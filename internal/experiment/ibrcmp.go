package experiment

import (
	"repro/internal/updown"
	"repro/internal/workload"
)

// ibrComparison contrasts SPAM's single-flit-buffer wormhole multicast with
// the input-buffer-based replication (IBR) architecture of Sivaram, Panda
// and Stunkel, which the paper's related work singles out as "requiring
// that intermediate routers be able to buffer the entire packet". Both run
// the same single multicast while the message length sweeps; IBR's
// store-and-forward latency grows with hops × length while SPAM's wormhole
// latency grows with hops + length, and IBR's buffer requirement grows
// without bound: the paper's core architectural point. It shares the
// pruning comparison's network, lengths and destination count.
func ibrComparison(o DriverOpts) (*DriverResult, error) {
	sys, err := lattice(lengthSweepNodes, o.Seed, updown.RootMinID)
	if err != nil {
		return nil, err
	}
	labels := []string{"SPAM (1-flit buffers)", "IBR (full-packet buffers)"}
	series, err := sweepGrid(labels, floats(lengthSweepFlits), o.Workers, func(vi, fi int) job {
		flits := lengthSweepFlits[fi]
		simCfg := o.Sim
		simCfg.Params.MessageFlits = flits
		simCfg.StoreAndForward = vi == 1
		if vi == 0 {
			simCfg.InputBufFlits = 1
		}
		return sweepSpec{
			systems: []*workload.System{sys},
			cfg:     simCfg,
			seed:    o.Seed ^ uint64(vi)<<36 ^ uint64(flits)<<2,
			trials:  o.Trials,
			run: func(t *sweepTrial) error {
				w, err := t.multicast(lengthSweepDests)
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
	return seriesResult("SPAM vs input-buffer-based replication (related work [14,15]) vs message length",
		"flits", series, "message length (flits)", "latency (us)"), nil
}
