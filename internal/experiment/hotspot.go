package experiment

import (
	"repro/internal/updown"
	"repro/internal/viz"
	"repro/internal/workload"
)

// RunRootShare quantifies the paper's Section 5 observation: "As the number
// of destinations increases, the probability that the worm must pass through
// the root of the underlying spanning tree increases, resulting in potential
// hot-spot effects at the root." For each destination count it measures the
// percentage of multicasts whose worm traverses the root switch (x =
// destinations, y = percent of worms through the root).
func RunRootShare(cfg AblationConfig, destCounts []int) (Series, error) {
	if len(destCounts) == 0 {
		destCounts = []int{1, 2, 4, 8, 16, 32, 64}
	}
	sys, err := lattice(cfg.Nodes, cfg.Seed, updown.RootMinID)
	if err != nil {
		return Series{}, err
	}
	jobs := make([]job, len(destCounts))
	for di, d := range destCounts {
		d := d
		if d > sys.Net.NumProcs-1 {
			d = sys.Net.NumProcs - 1
		}
		jobs[di] = sweepSpec{
			systems: []*workload.System{sys},
			cfg:     cfg.Sim,
			seed:    cfg.Seed ^ uint64(d)<<6 ^ 0x707,
			trials:  cfg.Trials,
			run: func(t *sweepTrial) error {
				src := t.RandProc()
				if _, err := t.Sim.Submit(0, src, t.PickDests(src, d)); err != nil {
					return err
				}
				if err := t.Sim.RunUntilIdle(1e16); err != nil {
					return err
				}
				if t.Sim.NodeThroughLoad(sys.Lab.Root) > 0 {
					t.AddUs(100)
				} else {
					t.AddUs(0)
				}
				return nil
			},
		}.job()
	}
	streams, err := runParallel(jobs, cfg.Workers)
	if err != nil {
		return Series{}, err
	}
	series := Series{Label: "worms through root (%)"}
	for di, d := range destCounts {
		series.Points = append(series.Points, Point{
			X: float64(d), Mean: streams[di].Mean(), CI95: streams[di].CI95(), N: streams[di].N(),
		})
	}
	return series, nil
}

// RunHeaderAblation measures the latency cost of realistic destination-set
// encoding in the header (extra address flits) versus the paper's
// single-header-flit abstraction, for a broadcast.
func RunHeaderAblation(cfg AblationConfig, addrsPerFlit []int) (Series, error) {
	if len(addrsPerFlit) == 0 {
		addrsPerFlit = []int{0, 16, 8, 4}
	}
	sys, err := lattice(cfg.Nodes, cfg.Seed, updown.RootMinID)
	if err != nil {
		return Series{}, err
	}
	jobs := make([]job, len(addrsPerFlit))
	for ai, a := range addrsPerFlit {
		simCfg := cfg.Sim
		simCfg.AddrsPerHeaderFlit = a
		jobs[ai] = sweepSpec{
			systems: []*workload.System{sys},
			cfg:     simCfg,
			seed:    cfg.Seed ^ uint64(a)<<5 ^ 0x909,
			trials:  cfg.Trials,
			run: func(t *sweepTrial) error {
				src := t.RandProc()
				w, err := t.Sim.Submit(0, src, t.PickDests(src, sys.Net.NumProcs-1))
				if err != nil {
					return err
				}
				if err := t.Sim.RunUntilIdle(1e16); err != nil {
					return err
				}
				t.AddNs(w.Latency())
				return nil
			},
		}.job()
	}
	streams, err := runParallel(jobs, cfg.Workers)
	if err != nil {
		return Series{}, err
	}
	series := Series{Label: "broadcast latency"}
	for ai, a := range addrsPerFlit {
		series.Points = append(series.Points, Point{
			X: float64(a), Mean: streams[ai].Mean(), CI95: streams[ai].CI95(), N: streams[ai].N(),
		})
	}
	return series, nil
}

// Plot renders series as an ASCII chart (80×20), echoing the paper's
// figures.
func Plot(title string, series []Series) string {
	var curves []viz.Curve
	for _, s := range series {
		c := viz.Curve{Label: s.Label}
		for _, p := range s.Points {
			c.Points = append(c.Points, viz.Point{X: p.X, Y: p.Mean})
		}
		curves = append(curves, c)
	}
	return viz.Chart(title, 80, 20, curves)
}
