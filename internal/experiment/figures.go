package experiment

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/stats"
	"repro/internal/updown"
	"repro/internal/workload"
)

// Figure 2 measures one multicast in 128- and 256-switch lattices with one
// processor each; trials rotate through fig2Topologies random networks per
// size.
var fig2Nodes = []int{128, 256}

const fig2Topologies = 4

// destSweep produces the destination counts for a network of n processors.
func destSweep(n int) []int {
	sweep := []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256}
	var out []int
	for _, d := range sweep {
		if d <= n-1 {
			out = append(out, d)
		}
	}
	if len(out) == 0 || out[len(out)-1] != n-1 {
		out = append(out, n-1)
	}
	return out
}

// fig2 regenerates Figure 2, latency against the number of destinations:
// one series per network size.
func fig2(o DriverOpts) (*DriverResult, error) {
	var out []Series
	for _, nodes := range fig2Nodes {
		systems := make([]*workload.System, fig2Topologies)
		for i := range systems {
			sys, err := lattice(nodes, o.Seed+uint64(i)*7919, updown.RootMinID)
			if err != nil {
				return nil, err
			}
			systems[i] = sys
		}
		dests := destSweep(nodes)
		series, err := sweepGrid([]string{fmt.Sprintf("%d-node", nodes)}, floats(dests), o.Workers, func(_, di int) job {
			d := dests[di]
			return sweepSpec{
				systems: systems,
				cfg:     o.Sim,
				seed:    o.Seed ^ uint64(nodes)<<20 ^ uint64(d)<<4,
				trials:  o.Trials,
				run: func(t *sweepTrial) error {
					w, err := t.multicast(d)
					if err != nil {
						return err
					}
					t.AddNs(w.Latency())
					return nil
				},
			}.job()
		})
		if err != nil {
			return nil, err
		}
		out = append(out, series...)
	}
	return seriesResult("Figure 2: latency vs number of destinations (single multicast, 128/256 nodes)",
		"destinations", out, "destinations", "latency (us)"), nil
}

// Figure 3 offers 90 % unicast / 10 % multicast traffic to a 128-switch
// lattice at the paper's 0.005–0.04 msg/µs/processor, one series per
// multicast size. The throughput driver sweeps the same grid.
const (
	fig3Nodes     = 128
	fig3McastFrac = 0.1
)

var (
	fig3Dests = []int{8, 16, 32, 64}
	fig3Rates = []float64{0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04}
)

// mixed is the Figure-3 traffic at rate with d-destination multicasts.
func mixed(rate float64, d, messages int) workload.Mixed {
	return workload.Mixed{
		RatePerProcPerUs:  rate,
		MulticastFraction: fig3McastFrac,
		MulticastDests:    d,
		Messages:          messages,
	}
}

// fig3Labels names the Figure-3 series.
func fig3Labels() []string {
	out := make([]string, len(fig3Dests))
	for i, d := range fig3Dests {
		out[i] = fmt.Sprintf("%d destinations", d)
	}
	return out
}

// fig3 regenerates Figure 3, latency against the arrival rate: each point
// is measured by the warmup + batch-means harness over the worker's
// reusable simulator.
func fig3(o DriverOpts) (*DriverResult, error) {
	sys, err := lattice(fig3Nodes, o.Seed, updown.RootMinID)
	if err != nil {
		return nil, err
	}
	series, err := sweepGrid(fig3Labels(), fig3Rates, o.Workers, func(di, ri int) job {
		d := fig3Dests[di]
		return func(c *workload.RunnerCache) (*stats.Summary, error) {
			runner, err := c.Get(sys, o.Sim)
			if err != nil {
				return nil, err
			}
			return workload.Measure(runner, mixed(fig3Rates[ri], d, o.Messages), workload.MeasureOpts{
				WarmupMessages: o.Messages / 10,
				Seed:           o.Seed ^ uint64(d)<<32 ^ uint64(ri)<<8 ^ 0x5bd1,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return seriesResult("Figure 3: latency vs arrival rate (90% unicast / 10% multicast, 128 nodes)",
		"rate(msg/us/proc)", series, "rate (msg/us/proc)", "latency (us)"), nil
}

// The in-text comparison broadcasts in 128- and 256-switch lattices.
var comparisonNodes = []int{128, 256}

// comparison measures a SPAM broadcast against the software multicast
// baselines, the paper's Section 4 in-text comparison.
func comparison(o DriverOpts) (*DriverResult, error) {
	t := &Table{
		Title:   "SPAM vs software multicast (paper Section 4 in-text comparison)",
		Headers: []string{"nodes", "scheme", "dests", "mean(us)", "ci95(us)", "bound(us)", "worms", "vs SPAM"},
	}
	for _, nodes := range comparisonNodes {
		sys, err := lattice(nodes, o.Seed, updown.RootMinID)
		if err != nil {
			return nil, err
		}
		d := nodes - 1

		// Each scheme runs one trial and returns its latency and worm count.
		type scheme struct {
			name string
			run  func(t *sweepTrial) (int64, int, error)
		}
		schemes := []scheme{{name: "SPAM", run: func(t *sweepTrial) (int64, int, error) {
			w, err := t.multicast(d)
			if err != nil {
				return 0, 0, err
			}
			return w.Latency(), 1, nil
		}}}
		for _, bs := range []baseline.Scheme{baseline.BinomialTree, baseline.SeparateWorms, baseline.Chain} {
			schemes = append(schemes, scheme{name: bs.String(), run: func(t *sweepTrial) (int64, int, error) {
				src := t.RandProc()
				run, err := baseline.Start(t.Sim, bs, 0, src, t.PickDests(src, d))
				if err != nil {
					return 0, 0, err
				}
				if err := t.Sim.RunUntilIdle(idleCapNs); err != nil {
					return 0, 0, err
				}
				if run.Err != nil {
					return 0, 0, run.Err
				}
				return run.Latency(), run.Worms, nil
			}})
		}

		jobs := make([]job, len(schemes))
		wormCounts := make([]int, len(schemes))
		for si, sc := range schemes {
			jobs[si] = sweepSpec{
				systems: []*workload.System{sys},
				cfg:     o.Sim,
				seed:    o.Seed ^ uint64(nodes)<<16 ^ uint64(si)<<2,
				trials:  o.Trials,
				run: func(t *sweepTrial) error {
					lat, worms, err := sc.run(t)
					if err != nil {
						return err
					}
					wormCounts[si] += worms
					t.AddNs(lat)
					return nil
				},
			}.job()
		}
		streams, err := runParallel(jobs, o.Workers)
		if err != nil {
			return nil, err
		}
		for si, sc := range schemes {
			// Software schemes carry their analytic lower bound.
			bound := "-"
			if b := float64(baseline.LowerBoundNs(o.Sim.Params.StartupNs, d)) / nsPerUs; si > 0 && b > 0 {
				bound = fmt.Sprintf("%.1f", b)
			}
			t.AddRow(
				fmt.Sprintf("%d", nodes), sc.name, fmt.Sprintf("%d", d),
				fmt.Sprintf("%.2f", streams[si].Mean()), ci95Cell("%.2f", streams[si].CI95(), streams[si].N()),
				bound, fmt.Sprintf("%.1f", float64(wormCounts[si])/float64(o.Trials)),
				fmt.Sprintf("%.2fx", streams[si].Mean()/streams[0].Mean()),
			)
		}
	}
	return &DriverResult{Table: t}, nil
}
