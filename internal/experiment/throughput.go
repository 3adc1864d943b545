package experiment

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/workload"
)

// RunThroughput complements Figure 3 with the classic saturation view:
// accepted throughput (delivered messages per µs per processor) versus
// offered load, per multicast destination count. Below saturation the
// curves track the diagonal; past it they flatten at network capacity.
func RunThroughput(cfg Fig3Config) ([]Series, error) {
	if cfg.Nodes <= 0 || cfg.Messages <= 0 {
		return nil, fmt.Errorf("experiment: throughput needs nodes and messages")
	}
	sys, err := lattice(cfg.Nodes, cfg.Seed, cfg.Root)
	if err != nil {
		return nil, err
	}
	type key struct {
		d  int
		ri int
	}
	var jobs []job
	var keys []key
	for _, d := range cfg.DestCounts {
		for ri, rate := range cfg.Rates {
			d, ri, rate := d, ri, rate
			keys = append(keys, key{d: d, ri: ri})
			jobs = append(jobs, func(c *workload.RunnerCache) (*stats.Summary, error) {
				runner, err := c.Get(sys, cfg.Sim)
				if err != nil {
					return nil, err
				}
				seed := cfg.Seed ^ uint64(d)<<24 ^ uint64(ri)<<3 ^ 0x7f7f
				if err := runner.Trial(cfg.mixedFor(rate, d), seed); err != nil {
					return nil, err
				}
				// Accepted rate over the busy interval: messages
				// delivered / span / processors, in msg/µs/proc.
				worms := runner.Worms()
				first, last := worms[0].SubmitNs, int64(0)
				for _, w := range worms {
					if w.SubmitNs < first {
						first = w.SubmitNs
					}
					if w.DoneNs > last {
						last = w.DoneNs
					}
				}
				span := float64(last-first) / nsPerUs
				st := stats.NewSummary()
				if span > 0 {
					st.Add(float64(len(worms)) / span / float64(sys.Net.NumProcs))
				}
				return st, nil
			})
		}
	}
	streams, err := runParallel(jobs, cfg.Workers)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(cfg.DestCounts))
	index := map[int]int{}
	for i, d := range cfg.DestCounts {
		out[i] = Series{Label: fmt.Sprintf("%d destinations", d)}
		index[d] = i
	}
	for i, k := range keys {
		out[index[k.d]].Points = append(out[index[k.d]].Points, Point{
			X:    cfg.Rates[k.ri],
			Mean: streams[i].Mean(),
			CI95: streams[i].CI95(),
			N:    streams[i].N(),
		})
	}
	return out, nil
}
