package experiment

import (
	"fmt"

	"repro/internal/updown"
	"repro/internal/workload"
)

// RunIBRComparison contrasts SPAM's single-flit-buffer wormhole multicast
// with the input-buffer-based replication (IBR) architecture of Sivaram,
// Panda and Stunkel, which the paper's related work singles out as
// "requiring that intermediate routers be able to buffer the entire
// packet". Both run the same single-multicast workload while the message
// length sweeps; IBR's store-and-forward latency grows with hops × length
// while SPAM's wormhole latency grows with hops + length, and IBR's buffer
// requirement grows without bound — the paper's core architectural point.
// Returns two series (x = message flits, y = latency µs).
func RunIBRComparison(cfg PruneComparisonConfig) ([]Series, error) {
	if cfg.Trials <= 0 || len(cfg.Flits) == 0 {
		return nil, fmt.Errorf("experiment: IBR comparison needs trials and flit sweep")
	}
	sys, err := lattice(cfg.Nodes, cfg.Seed, updown.RootMinID)
	if err != nil {
		return nil, err
	}
	type variant struct {
		label string
		sf    bool
	}
	variants := []variant{
		{"SPAM (1-flit buffers)", false},
		{"IBR (full-packet buffers)", true},
	}
	var jobs []job
	type key struct{ vi, fi int }
	var keys []key
	for vi, v := range variants {
		for fi, flits := range cfg.Flits {
			vi, fi, v, flits := vi, fi, v, flits
			keys = append(keys, key{vi, fi})
			simCfg := cfg.Sim
			simCfg.Params.MessageFlits = flits
			simCfg.StoreAndForward = v.sf
			if !v.sf {
				simCfg.InputBufFlits = 1
			}
			d := cfg.Dests
			if d <= 0 {
				d = 16
			}
			jobs = append(jobs, sweepSpec{
				systems: []*workload.System{sys},
				cfg:     simCfg,
				seed:    cfg.Seed ^ uint64(vi)<<36 ^ uint64(flits)<<2,
				trials:  cfg.Trials,
				run: func(t *sweepTrial) error {
					src := t.RandProc()
					w, err := t.Sim.Submit(0, src, t.PickDests(src, d))
					if err != nil {
						return err
					}
					if err := t.Sim.RunUntilIdle(1e16); err != nil {
						return err
					}
					t.AddNs(w.Latency())
					return nil
				},
			}.job())
		}
	}
	streams, err := runParallel(jobs, cfg.Workers)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(variants))
	for vi, v := range variants {
		out[vi] = Series{Label: v.label}
	}
	for i, k := range keys {
		out[k.vi].Points = append(out[k.vi].Points, Point{
			X:    float64(cfg.Flits[k.fi]),
			Mean: streams[i].Mean(),
			CI95: streams[i].CI95(),
			N:    streams[i].N(),
		})
	}
	return out, nil
}
