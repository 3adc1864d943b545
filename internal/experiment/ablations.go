package experiment

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/updown"
	"repro/internal/workload"
)

// The future-work ablations run on a 128-switch lattice.
const ablationNodes = 128

// bufferSizes are the input buffer sizes, in flits, the buffer ablation
// sweeps.
var bufferSizes = []int{1, 2, 4, 8}

// bufferAblation measures multicast latency under concurrent multicast
// background load per input buffer size: the paper's Section 5 question of
// whether larger input buffers reduce latency.
func bufferAblation(o DriverOpts) (*DriverResult, error) {
	sys, err := lattice(ablationNodes, o.Seed, updown.RootMinID)
	if err != nil {
		return nil, err
	}
	series, err := sweepGrid([]string{"loaded multicast latency"}, floats(bufferSizes), o.Workers, func(_, bi int) job {
		buf := bufferSizes[bi]
		simCfg := o.Sim
		simCfg.InputBufFlits = buf
		return sweepSpec{
			systems: []*workload.System{sys},
			cfg:     simCfg,
			seed:    o.Seed ^ uint64(buf)<<8,
			trials:  o.Trials,
			run: func(t *sweepTrial) error {
				// Measured multicast plus 8 contending multicasts
				// launched concurrently: buffering matters only when
				// branches block.
				src := t.RandProc()
				k := sys.Net.NumProcs / 4
				w, err := t.Sim.Submit(0, src, t.PickDests(src, k))
				if err != nil {
					return err
				}
				for i := 0; i < 8; i++ {
					bsrc := t.RandProc()
					if _, err := t.Sim.Submit(int64(i)*200, bsrc, t.PickDests(bsrc, k)); err != nil {
						return err
					}
				}
				if err := t.Sim.RunUntilIdle(idleCapNs); err != nil {
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
	return seriesResult("Ablation A: input buffer size (loaded multicast, Section 5 future work)",
		"buffer(flits)", series, "input buffer (flits)", "latency (us)"), nil
}

// rootAblation measures single-broadcast latency under the three root
// selection strategies: the paper's Section 5 point that judicious
// spanning-tree selection may matter.
func rootAblation(o DriverOpts) (*DriverResult, error) {
	strategies := []updown.RootStrategy{updown.RootMinID, updown.RootMaxDegree, updown.RootCenter}
	jobs := make([]job, len(strategies))
	depths := make([]int, len(strategies))
	for si, strat := range strategies {
		sys, err := lattice(ablationNodes, o.Seed, strat)
		if err != nil {
			return nil, err
		}
		depths[si] = treeDepth(sys)
		jobs[si] = sweepSpec{
			systems: []*workload.System{sys},
			cfg:     o.Sim,
			seed:    o.Seed ^ uint64(si)<<12,
			trials:  o.Trials,
			run: func(t *sweepTrial) error {
				w, err := t.multicast(t.Sys.Net.NumProcs - 1)
				if err != nil {
					return err
				}
				t.AddNs(w.Latency())
				return nil
			},
		}.job()
	}
	streams, err := runParallel(jobs, o.Workers)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Spanning-tree root selection (future work, Section 5)",
		Headers: []string{"root strategy", "tree depth", "broadcast mean(us)", "ci95(us)"},
	}
	for si, strat := range strategies {
		t.AddRow(strat.String(), fmt.Sprintf("%d", depths[si]),
			fmt.Sprintf("%.2f", streams[si].Mean()), ci95Cell("%.2f", streams[si].CI95(), streams[si].N()))
	}
	return &DriverResult{Table: t}, nil
}

// partitionConcurrent is how many processors broadcast at once in the
// partition ablation.
const partitionConcurrent = 4

// partitionAblation measures the future-work idea of splitting each
// multicast into contiguous destination groups: several processors
// broadcast concurrently (root hot-spot pressure) under each strategy.
// Partitioning costs the multicast itself extra startups, but the question
// is whether it relieves *other* traffic at the root hot spot, hence the
// background-unicast columns.
func partitionAblation(o DriverOpts) (*DriverResult, error) {
	sys, err := lattice(ablationNodes, o.Seed, updown.RootMinID)
	if err != nil {
		return nil, err
	}
	type variant struct {
		strategy partition.Strategy
		k        int
	}
	variants := []variant{
		{partition.None, 0},
		{partition.BySubtree, 0},
		{partition.KWayDFS, 2},
		{partition.KWayDFS, 4},
	}
	jobs := make([]job, len(variants))
	groupCounts := make([]float64, len(variants))
	uniStreams := make([]*stats.Summary, len(variants))
	for vi, v := range variants {
		uni := stats.NewSummary()
		uniStreams[vi] = uni
		totalGroups := 0
		runsCount := 0
		jobs[vi] = sweepSpec{
			systems: []*workload.System{sys},
			cfg:     o.Sim,
			seed:    o.Seed ^ uint64(vi)<<10 ^ 0xabc,
			trials:  o.Trials,
			run: func(t *sweepTrial) error {
				var runs []*partition.Run
				for c := 0; c < partitionConcurrent; c++ {
					src := t.RandProc()
					dests := t.PickDests(src, sys.Net.NumProcs-1)
					run, err := partition.Send(t.Sim, sys.Lab, v.strategy, v.k, int64(c)*100, src, dests)
					if err != nil {
						return err
					}
					runs = append(runs, run)
					totalGroups += len(run.Groups)
					runsCount++
				}
				// Background unicasts arriving while the broadcasts
				// worm through: the hot-spot victims.
				var bg []*sim.Worm
				for u := 0; u < 2*partitionConcurrent; u++ {
					src := t.RandProc()
					dests := t.PickDests(src, 1)
					at := int64(t.Rand.Intn(15000))
					w, err := t.Sim.Submit(at, src, dests)
					if err != nil {
						return err
					}
					bg = append(bg, w)
				}
				if err := t.Sim.RunUntilIdle(idleCapNs); err != nil {
					return err
				}
				for _, run := range runs {
					if !run.Completed() {
						return fmt.Errorf("experiment: partition run incomplete")
					}
					t.AddNs(run.Latency())
				}
				for _, w := range bg {
					uni.Add(float64(w.Latency()) / nsPerUs)
				}
				groupCounts[vi] = float64(totalGroups) / float64(runsCount)
				return nil
			},
		}.job()
	}
	streams, err := runParallel(jobs, o.Workers)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Destination partitioning under concurrent broadcasts (future work, Section 5)",
		Headers: []string{"strategy", "k", "groups/mcast", "mcast(us)", "ci95", "bg-unicast(us)", "ci95"},
	}
	for vi, v := range variants {
		t.AddRow(v.strategy.String(), fmt.Sprintf("%d", v.k), fmt.Sprintf("%.1f", groupCounts[vi]),
			fmt.Sprintf("%.2f", streams[vi].Mean()), ci95Cell("%.2f", streams[vi].CI95(), streams[vi].N()),
			fmt.Sprintf("%.2f", uniStreams[vi].Mean()), ci95Cell("%.2f", uniStreams[vi].CI95(), uniStreams[vi].N()))
	}
	return &DriverResult{Table: t}, nil
}
