package experiment

import (
	"repro/internal/stats"
	"repro/internal/updown"
	"repro/internal/workload"
)

// throughput complements Figure 3 with the classic saturation view on the
// same grid: accepted throughput (delivered messages per µs per processor)
// against offered load, per multicast destination count, one trial per
// point. Below saturation the curves track the diagonal; past it they
// flatten at network capacity.
func throughput(o DriverOpts) (*DriverResult, error) {
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
			if err := runner.Trial(mixed(fig3Rates[ri], d, o.Messages), o.Seed^uint64(d)<<24^uint64(ri)<<3^0x7f7f); err != nil {
				return nil, err
			}
			// Accepted rate over the busy interval: messages delivered /
			// span / processors, in msg/µs/proc.
			worms := runner.Worms()
			first, last := worms[0].SubmitNs, int64(0)
			for _, w := range worms {
				first = min(first, w.SubmitNs)
				last = max(last, w.DoneNs)
			}
			span := float64(last-first) / nsPerUs
			st := stats.NewSummary()
			if span > 0 {
				st.Add(float64(len(worms)) / span / float64(sys.Net.NumProcs))
			}
			return st, nil
		}
	})
	if err != nil {
		return nil, err
	}
	for i := range series {
		series[i].Unit = "msg/us/proc"
	}
	return seriesResult("Saturation: accepted vs offered throughput (msg/us/proc)",
		"offered(msg/us/proc)", series, "offered (msg/us/proc)", "accepted (msg/us/proc)"), nil
}
