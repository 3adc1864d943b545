package experiment

// The fault sweep: paper mixed traffic under live link failure/repair, as a
// function of the per-link fault rate. Every point runs the same seeded
// workload with a Poisson fault process of decreasing MTBF, measuring how
// latency, accepted throughput, delivery and availability degrade while the
// engine relabels and hot-swaps routing tables under the traffic.

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/updown"
	"repro/internal/workload"
)

// The fault sweep offers the paper's mixed traffic with 8-destination
// multicasts at 0.02 msg/µs/processor to a 128-switch lattice, retries a
// disrupted message up to 3 times, and repairs a link in 150 µs on average
// unless DriverOpts.FaultMTTRUs says otherwise. Its points run from a
// no-fault baseline (MTBF 0) through per-link MTBFs of one failure per
// 100 ms down to one per 2 ms: at about 230 links, the dense end relabels
// the network dozens of times per simulated millisecond.
const (
	faultNodes      = 128
	faultRate       = 0.02
	faultMcastDests = 8
	faultRetries    = 3
	faultMTTRUs     = 150
)

var faultMTBFUs = []float64{0, 100_000, 50_000, 20_000, 10_000, 5_000, 2_000}

// faultPoint carries the side metrics of one sweep point (the latency
// summary rides the shared runParallel result slot).
type faultPoint struct {
	throughput stats.Stream // accepted msg/µs/processor
	delivered  stats.Stream // % of messages delivered (originals only)
	avail      stats.Stream // % link availability
	disrupted  stats.Stream // mean µs latency of retried-then-delivered msgs
}

// faultSweep produces five series over the per-link fault rate (failures
// per second per link; 0 = no faults): mean latency of messages delivered
// without disruption, mean end-to-end latency of messages delivered after
// fault retries (from original submission), accepted throughput, delivered
// share and link availability.
func faultSweep(o DriverOpts) (*DriverResult, error) {
	mttrUs := float64(faultMTTRUs)
	if o.FaultMTTRUs > 0 {
		mttrUs = o.FaultMTTRUs
	}
	sys, err := lattice(faultNodes, o.Seed, updown.RootMinID)
	if err != nil {
		return nil, err
	}
	procs := float64(sys.Net.NumProcs)
	warmup := o.Messages / 10

	side := make([]faultPoint, len(faultMTBFUs))
	jobs := make([]job, len(faultMTBFUs))
	for i, mtbfUs := range faultMTBFUs {
		traffic := mixed(faultRate, faultMcastDests, o.Messages)
		var w workload.Workload = traffic
		if mtbfUs > 0 {
			// The horizon generously covers the trial: open-loop arrivals
			// span messages/(rate·procs) µs; trailing events never fire.
			horizonNs := int64(4 * float64(o.Messages) / (faultRate * procs) * 1000)
			w = workload.Faulty{
				Inner: traffic,
				Spec: faults.Spec{
					Profile:   faults.ProfilePoisson,
					Seed:      o.Seed ^ 0xfa017,
					HorizonNs: horizonNs,
					MTBFNs:    int64(mtbfUs * 1000),
					MTTRNs:    int64(mttrUs * 1000),
				},
				Policy: faults.Policy{MaxRetries: faultRetries},
			}
		}
		pointSeed := o.Seed ^ uint64(i)<<24 ^ 0x9d2c
		jobs[i] = func(c *workload.RunnerCache) (*stats.Summary, error) {
			runner, err := c.Get(sys, o.Sim)
			if err != nil {
				return nil, err
			}
			lat := stats.NewSummary()
			pt := &side[i]
			for t := 0; t < o.Trials; t++ {
				if err := runner.Trial(w, workload.TrialSeed(pointSeed, t)); err != nil {
					return nil, fmt.Errorf("fault sweep mtbf=%gus trial %d: %w", mtbfUs, t, err)
				}
				runner.EachLatencyUs(warmup, lat.Add)
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
	latencies, err := runParallel(jobs, o.Workers)
	if err != nil {
		return nil, err
	}

	series := []Series{
		{Label: "latency-undisturbed"},
		{Label: "latency-disrupted"},
		{Label: "accepted(msg/us/proc)", Unit: "msg/us/proc"},
		{Label: "delivered%", Unit: "%"},
		{Label: "availability%", Unit: "%"},
	}
	for i, mtbfUs := range faultMTBFUs {
		// x: per-link failures per second (0 = fault-free baseline).
		x := 0.0
		if mtbfUs > 0 {
			x = 1e6 / mtbfUs
		}
		series[0].Points = append(series[0].Points, point(x, latencies[i]))
		for si, st := range []*stats.Stream{&side[i].disrupted, &side[i].throughput, &side[i].delivered, &side[i].avail} {
			series[1+si].Points = append(series[1+si].Points, point(x, st))
		}
	}
	return seriesResult("Fault storms: latency/throughput vs per-link fault rate (live relabel + table hot-swap, 128 nodes)",
		"failures/s/link", series, "failures/s/link", "latency (us) / rate / %"), nil
}
