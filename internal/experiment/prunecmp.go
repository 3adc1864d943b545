package experiment

import (
	"fmt"

	"repro/internal/prune"
	"repro/internal/sim"
	"repro/internal/updown"
	"repro/internal/workload"
)

// The message-length sweeps (pruning and IBR) run on a 64-switch lattice,
// with multicasts of 16 destinations and lengths of 8 to 512 flits; in the
// pruning comparison 6 multicasts contend at once.
const (
	lengthSweepNodes = 64
	lengthSweepDests = 16
	pruneConcurrent  = 6
)

var lengthSweepFlits = []int{8, 32, 128, 512}

// pruneComparison measures mean multicast completion latency for SPAM (OCRQ
// waiting) and the pruning discipline of Malumbres et al., per message
// length, under concurrent multicast contention. The paper's related-work
// section says pruning is "effective only for short messages": long worms
// hold channels longer, prune more branches and pay a fresh 10 µs startup
// per retry round.
func pruneComparison(o DriverOpts) (*DriverResult, error) {
	sys, err := lattice(lengthSweepNodes, o.Seed, updown.RootMinID)
	if err != nil {
		return nil, err
	}
	labels := []string{"SPAM (wait)", "prune+retry"}
	series, err := sweepGrid(labels, floats(lengthSweepFlits), o.Workers, func(vi, fi int) job {
		flits := lengthSweepFlits[fi]
		pruning := vi == 1
		simCfg := o.Sim
		simCfg.Params.MessageFlits = flits
		return sweepSpec{
			systems: []*workload.System{sys},
			cfg:     simCfg,
			seed:    o.Seed ^ uint64(vi)<<40 ^ uint64(flits)<<4,
			trials:  o.Trials,
			run: func(t *sweepTrial) error {
				type pending struct {
					spam *sim.Worm
					pr   *prune.Run
				}
				var ps []pending
				for c := 0; c < pruneConcurrent; c++ {
					src := t.RandProc()
					dests := t.PickDests(src, lengthSweepDests)
					at := int64(c) * 150
					if pruning {
						run, err := prune.Send(t.Sim, at, src, dests, 0)
						if err != nil {
							return err
						}
						ps = append(ps, pending{pr: run})
					} else {
						w, err := t.Sim.Submit(at, src, dests)
						if err != nil {
							return err
						}
						ps = append(ps, pending{spam: w})
					}
				}
				if err := t.Sim.RunUntilIdle(idleCapNs); err != nil {
					return err
				}
				for _, p := range ps {
					switch {
					case p.spam != nil:
						if !p.spam.Completed() {
							return fmt.Errorf("experiment: SPAM worm incomplete")
						}
						t.AddNs(p.spam.Latency())
					case p.pr != nil:
						if p.pr.Err != nil {
							return p.pr.Err
						}
						if !p.pr.Completed() {
							return fmt.Errorf("experiment: prune run incomplete")
						}
						t.AddNs(p.pr.Latency())
					}
				}
				return nil
			},
		}.job()
	})
	if err != nil {
		return nil, err
	}
	return seriesResult("SPAM vs pruning-based tree multicast (related work [9]) vs message length",
		"flits", series, "message length (flits)", "latency (us)"), nil
}
