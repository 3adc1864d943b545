package experiment

// The fault sweep: paper mixed traffic under live link failure/repair, as a
// function of the per-link fault rate. Every point runs the same seeded
// workload with a Poisson fault process of decreasing MTBF, measuring how
// latency, accepted throughput, delivery and availability degrade while the
// engine relabels and hot-swaps routing tables under the traffic.

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/updown"
	"repro/internal/workload"
)

// FaultSweepConfig parameterizes the latency/throughput-vs-fault-rate
// curves.
type FaultSweepConfig struct {
	// Nodes is the network size in switches (one processor each).
	Nodes int
	// Messages per trial; a tenth of them warm up.
	Messages int
	// RatePerProcPerUs is the open-loop arrival rate.
	RatePerProcPerUs float64
	// MTBFUs sweeps the per-link mean time between failures (µs);
	// 0 means "no faults" (the baseline point).
	MTBFUs []float64
	// MTTRUs is the per-link mean repair time (µs).
	MTTRUs float64
	// Trials is the number of replications per point.
	Trials int
	// Retries is the source retry cap.
	Retries int
	Seed    uint64
	Root    updown.RootStrategy
	Sim     sim.Config
	Workers int
}

// DefaultFaultSweep returns the standard fault-rate sweep: a no-fault
// baseline plus per-link MTBFs from one failure per 100 ms down to one per
// 2 ms (at 128 switches ≈ 230 links, the dense end relabels the network
// dozens of times per simulated millisecond).
func DefaultFaultSweep(messages int) FaultSweepConfig {
	return FaultSweepConfig{
		Nodes:            128,
		Messages:         messages,
		RatePerProcPerUs: 0.02,
		MTBFUs:           []float64{0, 100_000, 50_000, 20_000, 10_000, 5_000, 2_000},
		MTTRUs:           150,
		Trials:           5,
		Retries:          3,
		Seed:             1998,
		Sim:              sim.DefaultConfig(),
	}
}

// faultPoint carries the side metrics of one sweep point (the latency
// summary rides the shared runParallel result slot).
type faultPoint struct {
	throughput stats.Stream // accepted msg/µs/processor
	delivered  stats.Stream // % of messages delivered (originals only)
	avail      stats.Stream // % link availability
	disrupted  stats.Stream // mean µs latency of retried-then-delivered msgs
}

// RunFaultSweep produces five series over the per-link fault rate
// (failures per second per link; 0 = no faults): mean latency of messages
// delivered without disruption, mean end-to-end latency of messages
// delivered after fault retries (from original submission), accepted
// throughput, delivered share and link availability.
func RunFaultSweep(cfg FaultSweepConfig) ([]Series, error) {
	if cfg.Nodes <= 0 || cfg.Messages <= 0 || len(cfg.MTBFUs) == 0 {
		return nil, fmt.Errorf("experiment: fault sweep needs nodes, messages and MTBF points")
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	sys, err := lattice(cfg.Nodes, cfg.Seed, cfg.Root)
	if err != nil {
		return nil, err
	}
	procs := float64(sys.Net.NumProcs)
	warmup := cfg.Messages / 10

	side := make([]faultPoint, len(cfg.MTBFUs))
	jobs := make([]job, len(cfg.MTBFUs))
	for i, mtbfUs := range cfg.MTBFUs {
		i, mtbfUs := i, mtbfUs
		traffic := workload.Mixed{
			RatePerProcPerUs:  cfg.RatePerProcPerUs,
			MulticastFraction: 0.1,
			MulticastDests:    8,
			Messages:          cfg.Messages,
		}
		var w workload.Workload = traffic
		if mtbfUs > 0 {
			// The horizon generously covers the trial: open-loop arrivals
			// span messages/(rate·procs) µs; trailing events never fire.
			horizonNs := int64(4 * float64(cfg.Messages) / (cfg.RatePerProcPerUs * procs) * 1000)
			w = workload.Faulty{
				Inner: traffic,
				Spec: faults.Spec{
					Profile:   faults.ProfilePoisson,
					Seed:      cfg.Seed ^ 0xfa017,
					HorizonNs: horizonNs,
					MTBFNs:    int64(mtbfUs * 1000),
					MTTRNs:    int64(cfg.MTTRUs * 1000),
				},
				Policy: faults.Policy{MaxRetries: cfg.Retries},
			}
		}
		pointSeed := cfg.Seed ^ uint64(i)<<24 ^ 0x9d2c
		jobs[i] = func(c *workload.RunnerCache) (*stats.Summary, error) {
			runner, err := c.Get(sys, cfg.Sim)
			if err != nil {
				return nil, err
			}
			lat := stats.NewSummary()
			pt := &side[i]
			for t := 0; t < cfg.Trials; t++ {
				if err := runner.Trial(w, workload.TrialSeed(pointSeed, t)); err != nil {
					return nil, fmt.Errorf("fault sweep mtbf=%gus trial %d: %w", mtbfUs, t, err)
				}
				runner.EachLatencyUs(warmup, nil, lat.Add)
				counters := runner.Sim().Counters()
				if now := runner.Sim().Now(); now > 0 {
					pt.throughput.Add(float64(counters.WormsCompleted) / (float64(now) / 1000.0) / procs)
				}
				// Delivery share is per logical message: retries are extra
				// sim-level submissions of the same message, and every
				// message completes at most once (drained originals never
				// do), so completed / (submitted − retried) is exact.
				var retried uint64
				inj := runner.FaultInjector()
				if inj != nil && mtbfUs > 0 {
					retried = inj.Metrics().WormsRetried
					pt.avail.Add(100 * inj.Availability())
					if h := inj.Metrics().DisruptHist; h.Count() > 0 {
						pt.disrupted.Add(h.Mean())
					}
				} else {
					pt.avail.Add(100)
				}
				if originals := counters.WormsSubmitted - retried; originals > 0 {
					pt.delivered.Add(100 * float64(counters.WormsCompleted) / float64(originals))
				}
			}
			return lat, nil
		}
	}
	latencies, err := runParallel(jobs, cfg.Workers)
	if err != nil {
		return nil, err
	}

	series := []Series{
		{Label: "latency-undisturbed"},
		{Label: "latency-disrupted"},
		{Label: "accepted(msg/us/proc)"},
		{Label: "delivered%"},
		{Label: "availability%"},
	}
	for i, mtbfUs := range cfg.MTBFUs {
		// x: per-link failures per second (0 = fault-free baseline).
		x := 0.0
		if mtbfUs > 0 {
			x = 1e6 / mtbfUs
		}
		series[0].Points = append(series[0].Points, Point{
			X: x, Mean: latencies[i].Mean(), CI95: latencies[i].CI95(), N: latencies[i].N(),
		})
		for si, st := range []*stats.Stream{&side[i].disrupted, &side[i].throughput, &side[i].delivered, &side[i].avail} {
			ci := st.CI95()
			if st.N() < 2 {
				// With under two samples the half-width is formally +Inf
				// ("unknown"); report 0 with N carrying the sample count,
				// matching the serving layer's convention.
				ci = 0
			}
			series[1+si].Points = append(series[1+si].Points, Point{
				X: x, Mean: st.Mean(), CI95: ci, N: st.N(),
			})
		}
	}
	return series, nil
}
