package experiment

import (
	"fmt"

	"repro/internal/prune"
	"repro/internal/sim"
	"repro/internal/updown"
	"repro/internal/workload"
)

// PruneComparisonConfig parameterizes the SPAM-versus-pruning comparison.
// The paper's related-work section says the pruning scheme of Malumbres et
// al. is "effective only for short messages": long worms hold channels
// longer, prune more branches and pay a fresh 10 µs startup per retry
// round. Sweeping the message length makes that crossover measurable.
type PruneComparisonConfig struct {
	Nodes int
	// Flits lists the message lengths to sweep.
	Flits []int
	// Concurrent is how many multicasts contend simultaneously.
	Concurrent int
	// Dests is the destination count per multicast.
	Dests   int
	Trials  int
	Seed    uint64
	Sim     sim.Config
	Workers int
}

// DefaultPruneComparison returns a 64-node setup sweeping 8..512 flits.
func DefaultPruneComparison(trials int) PruneComparisonConfig {
	return PruneComparisonConfig{
		Nodes:      64,
		Flits:      []int{8, 32, 128, 512},
		Concurrent: 6,
		Dests:      16,
		Trials:     trials,
		Seed:       1998,
		Sim:        sim.DefaultConfig(),
	}
}

// RunPruneComparison measures mean multicast completion latency for SPAM
// (OCRQ waiting) and the pruning discipline, per message length, under
// concurrent multicast contention. Returns two series (x = flits).
func RunPruneComparison(cfg PruneComparisonConfig) ([]Series, error) {
	if cfg.Trials <= 0 || len(cfg.Flits) == 0 {
		return nil, fmt.Errorf("experiment: prune comparison needs trials and flit sweep")
	}
	if cfg.Concurrent <= 0 {
		cfg.Concurrent = 4
	}
	sys, err := lattice(cfg.Nodes, cfg.Seed, updown.RootMinID)
	if err != nil {
		return nil, err
	}

	type variant struct {
		label string
		prune bool
	}
	variants := []variant{{"SPAM (wait)", false}, {"prune+retry", true}}
	var jobs []job
	type key struct{ vi, fi int }
	var keys []key
	for vi, v := range variants {
		for fi, flits := range cfg.Flits {
			vi, fi, v, flits := vi, fi, v, flits
			keys = append(keys, key{vi, fi})
			simCfg := cfg.Sim
			simCfg.Params.MessageFlits = flits
			jobs = append(jobs, sweepSpec{
				systems: []*workload.System{sys},
				cfg:     simCfg,
				seed:    cfg.Seed ^ uint64(vi)<<40 ^ uint64(flits)<<4,
				trials:  cfg.Trials,
				run: func(t *sweepTrial) error {
					type pending struct {
						spam *sim.Worm
						pr   *prune.Run
					}
					var ps []pending
					for c := 0; c < cfg.Concurrent; c++ {
						src := t.RandProc()
						dests := t.PickDests(src, cfg.Dests)
						at := int64(c) * 150
						if v.prune {
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
					if err := t.Sim.RunUntilIdle(1e16); err != nil {
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
