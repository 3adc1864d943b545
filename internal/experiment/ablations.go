package experiment

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/updown"
	"repro/internal/workload"
)

// AblationConfig is the shared setup for the future-work ablations.
type AblationConfig struct {
	Nodes  int
	Trials int
	Seed   uint64
	Sim    sim.Config
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultAblation returns a 128-node ablation setup.
func DefaultAblation(trials int) AblationConfig {
	return AblationConfig{Nodes: 128, Trials: trials, Seed: 1998, Sim: sim.DefaultConfig()}
}

// RunBufferAblation measures broadcast latency under concurrent multicast
// background load for input buffer sizes of 1, 2, 4 and 8 flits — the
// paper's Section 5 question of whether larger input buffers reduce latency.
// Returns one series point per buffer size (x = buffer size).
func RunBufferAblation(cfg AblationConfig, bufSizes []int) (Series, error) {
	if len(bufSizes) == 0 {
		bufSizes = []int{1, 2, 4, 8}
	}
	sys, err := lattice(cfg.Nodes, cfg.Seed, updown.RootMinID)
	if err != nil {
		return Series{}, err
	}
	jobs := make([]job, len(bufSizes))
	for bi, buf := range bufSizes {
		simCfg := cfg.Sim
		simCfg.InputBufFlits = buf
		jobs[bi] = sweepSpec{
			systems: []*workload.System{sys},
			cfg:     simCfg,
			seed:    cfg.Seed ^ uint64(buf)<<8,
			trials:  cfg.Trials,
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
	series := Series{Label: "loaded multicast latency"}
	for bi, buf := range bufSizes {
		series.Points = append(series.Points, Point{
			X: float64(buf), Mean: streams[bi].Mean(), CI95: streams[bi].CI95(), N: streams[bi].N(),
		})
	}
	return series, nil
}

// RootAblationRow reports one root strategy.
type RootAblationRow struct {
	Strategy  string
	TreeDepth int
	MeanUs    float64
	CI95Us    float64
}

// RunRootAblation measures single-broadcast latency under the three root
// selection strategies — the paper's Section 5 point that judicious
// spanning-tree selection may matter.
func RunRootAblation(cfg AblationConfig) ([]RootAblationRow, error) {
	strategies := []updown.RootStrategy{updown.RootMinID, updown.RootMaxDegree, updown.RootCenter}
	jobs := make([]job, len(strategies))
	depths := make([]int, len(strategies))
	for si, strat := range strategies {
		sys, err := lattice(cfg.Nodes, cfg.Seed, strat)
		if err != nil {
			return nil, err
		}
		depth := 0
		for v := 0; v < sys.Net.N(); v++ {
			if int(sys.Lab.Level[v]) > depth {
				depth = int(sys.Lab.Level[v])
			}
		}
		depths[si] = depth
		jobs[si] = sweepSpec{
			systems: []*workload.System{sys},
			cfg:     cfg.Sim,
			seed:    cfg.Seed ^ uint64(si)<<12,
			trials:  cfg.Trials,
			run: func(t *sweepTrial) error {
				src := t.RandProc()
				w, err := t.Sim.Submit(0, src, t.PickDests(src, t.Sys.Net.NumProcs-1))
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
		return nil, err
	}
	var rows []RootAblationRow
	for si, strat := range strategies {
		rows = append(rows, RootAblationRow{
			Strategy:  strat.String(),
			TreeDepth: depths[si],
			MeanUs:    streams[si].Mean(),
			CI95Us:    streams[si].CI95(),
		})
	}
	return rows, nil
}

// RootAblationTable renders root-ablation rows.
func RootAblationTable(rows []RootAblationRow) *Table {
	t := &Table{
		Title:   "Spanning-tree root selection (future work, Section 5)",
		Headers: []string{"root strategy", "tree depth", "broadcast mean(us)", "ci95(us)"},
	}
	for _, r := range rows {
		t.AddRow(r.Strategy, fmt.Sprintf("%d", r.TreeDepth),
			fmt.Sprintf("%.2f", r.MeanUs), fmt.Sprintf("%.2f", r.CI95Us))
	}
	return t
}

// PartitionAblationRow reports one partitioning strategy under concurrent
// broadcast load. Partitioning costs the multicast itself extra startups,
// but the interesting question is whether it relieves *other* traffic at
// the root hot spot — hence the background-unicast column.
type PartitionAblationRow struct {
	Strategy string
	K        int
	MeanUs   float64
	CI95Us   float64
	Groups   float64 // mean groups per multicast
	// UniMeanUs is the mean latency of background unicasts crossing the
	// network while the broadcasts are in flight.
	UniMeanUs float64
	UniCI95Us float64
}

// RunPartitionAblation measures the future-work idea of splitting each
// multicast into contiguous destination groups: several processors
// broadcast concurrently (root hot-spot pressure) under each strategy.
func RunPartitionAblation(cfg AblationConfig, concurrent int) ([]PartitionAblationRow, error) {
	if concurrent <= 0 {
		concurrent = 4
	}
	sys, err := lattice(cfg.Nodes, cfg.Seed, updown.RootMinID)
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
		vi, v := vi, v
		uni := stats.NewSummary()
		uniStreams[vi] = uni
		totalGroups := 0
		runsCount := 0
		jobs[vi] = sweepSpec{
			systems: []*workload.System{sys},
			cfg:     cfg.Sim,
			seed:    cfg.Seed ^ uint64(vi)<<10 ^ 0xabc,
			trials:  cfg.Trials,
			run: func(t *sweepTrial) error {
				var runs []*partition.Run
				for c := 0; c < concurrent; c++ {
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
				for u := 0; u < 2*concurrent; u++ {
					src := t.RandProc()
					dests := t.PickDests(src, 1)
					at := int64(t.Rand.Intn(15000))
					w, err := t.Sim.Submit(at, src, dests)
					if err != nil {
						return err
					}
					bg = append(bg, w)
				}
				if err := t.Sim.RunUntilIdle(1e16); err != nil {
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
	streams, err := runParallel(jobs, cfg.Workers)
	if err != nil {
		return nil, err
	}
	var rows []PartitionAblationRow
	for vi, v := range variants {
		label := v.strategy.String()
		rows = append(rows, PartitionAblationRow{
			Strategy:  label,
			K:         v.k,
			MeanUs:    streams[vi].Mean(),
			CI95Us:    streams[vi].CI95(),
			Groups:    groupCounts[vi],
			UniMeanUs: uniStreams[vi].Mean(),
			UniCI95Us: uniStreams[vi].CI95(),
		})
	}
	return rows, nil
}

// PartitionAblationTable renders partition-ablation rows.
func PartitionAblationTable(rows []PartitionAblationRow) *Table {
	t := &Table{
		Title:   "Destination partitioning under concurrent broadcasts (future work, Section 5)",
		Headers: []string{"strategy", "k", "groups/mcast", "mcast(us)", "ci95", "bg-unicast(us)", "ci95"},
	}
	for _, r := range rows {
		t.AddRow(r.Strategy, fmt.Sprintf("%d", r.K), fmt.Sprintf("%.1f", r.Groups),
			fmt.Sprintf("%.2f", r.MeanUs), fmt.Sprintf("%.2f", r.CI95Us),
			fmt.Sprintf("%.2f", r.UniMeanUs), fmt.Sprintf("%.2f", r.UniCI95Us))
	}
	return t
}
