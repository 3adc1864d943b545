package experiment

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/updown"
	"repro/internal/workload"
)

// Fig2Config parameterizes Figure 2: latency of a single multicast versus
// the number of destinations, in 128- and 256-node networks.
type Fig2Config struct {
	// Nodes lists the network sizes (paper: 128 and 256 switches, one
	// processor each).
	Nodes []int
	// DestCounts lists the x-axis values; nil derives a sweep up to
	// nodes-1 for each size.
	DestCounts []int
	// Trials is the number of random (topology, source, destination set)
	// samples per point.
	Trials int
	// TargetRelCI, when positive, keeps sampling beyond Trials until the
	// 95% confidence half-width falls below this fraction of the mean
	// (the paper: "each data point … within 1% of the mean or better,
	// using 95% confidence intervals"), capped at MaxTrials.
	TargetRelCI float64
	// MaxTrials caps adaptive sampling (default 20×Trials).
	MaxTrials int
	// Topologies is the number of distinct random networks sampled per
	// size (trials rotate through them).
	Topologies int
	// Seed is the base seed.
	Seed uint64
	// Root selects the spanning-tree root strategy.
	Root updown.RootStrategy
	// Sim holds the simulator configuration (latency constants, buffers).
	Sim sim.Config
	// Workers bounds the worker pool (0 = GOMAXPROCS).
	Workers int
}

// DefaultFig2 returns the paper's Figure-2 setup at a configurable sampling
// effort.
func DefaultFig2(trials int) Fig2Config {
	return Fig2Config{
		Nodes:      []int{128, 256},
		Trials:     trials,
		Topologies: 4,
		Seed:       1998,
		Sim:        sim.DefaultConfig(),
	}
}

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

// RunFig2 regenerates Figure 2: one series per network size.
func RunFig2(cfg Fig2Config) ([]Series, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("experiment: fig2 needs positive trials")
	}
	if cfg.Topologies <= 0 {
		cfg.Topologies = 1
	}
	maxTrials := cfg.MaxTrials
	if maxTrials <= 0 {
		maxTrials = 20 * cfg.Trials
	}
	var out []Series
	for _, nodes := range cfg.Nodes {
		dests := cfg.DestCounts
		if dests == nil {
			dests = destSweep(nodes)
		}
		// Build the topologies once per size.
		systems := make([]*workload.System, cfg.Topologies)
		for i := range systems {
			sys, err := lattice(nodes, cfg.Seed+uint64(i)*7919, cfg.Root)
			if err != nil {
				return nil, err
			}
			systems[i] = sys
		}
		jobs := make([]job, len(dests))
		for di, d := range dests {
			d := d
			jobs[di] = sweepSpec{
				systems:     systems,
				cfg:         cfg.Sim,
				seed:        cfg.Seed ^ uint64(nodes)<<20 ^ uint64(d)<<4,
				trials:      cfg.Trials,
				maxTrials:   maxTrials,
				targetRelCI: cfg.TargetRelCI,
				run: func(t *sweepTrial) error {
					src := t.RandProc()
					w, err := t.Sim.Submit(0, src, t.PickDests(src, d))
					if err != nil {
						return err
					}
					if err := t.Sim.RunUntilIdle(1e15); err != nil {
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
		series := Series{Label: fmt.Sprintf("%d-node", nodes)}
		for di, d := range dests {
			series.Points = append(series.Points, Point{
				X:    float64(d),
				Mean: streams[di].Mean(),
				CI95: streams[di].CI95(),
				N:    streams[di].N(),
			})
		}
		out = append(out, series)
	}
	return out, nil
}

// Fig3Config parameterizes Figure 3: mean latency versus average arrival
// rate under 90% unicast / 10% multicast traffic in a 128-node network.
type Fig3Config struct {
	Nodes int
	// DestCounts lists the multicast sizes (paper: 8, 16, 32, 64).
	DestCounts []int
	// Rates lists average arrival rates in messages/µs/processor
	// (paper sweeps ~0.005 to 0.04).
	Rates []float64
	// MulticastFraction is the share of multicast messages (paper: 0.1).
	MulticastFraction float64
	// Messages per point; Warmup of them are excluded from measurement.
	Messages int
	Warmup   int
	Seed     uint64
	Root     updown.RootStrategy
	Sim      sim.Config
	Workers  int
	// Metric selects which latencies enter the mean: "all", "multicast"
	// or "unicast" ("" = all).
	Metric string
}

// DefaultFig3 returns the paper's Figure-3 setup at a configurable sampling
// effort.
func DefaultFig3(messages int) Fig3Config {
	return Fig3Config{
		Nodes:             128,
		DestCounts:        []int{8, 16, 32, 64},
		Rates:             []float64{0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04},
		MulticastFraction: 0.1,
		Messages:          messages,
		Warmup:            messages / 10,
		Seed:              1998,
		Sim:               sim.DefaultConfig(),
	}
}

// metricFilter maps a Fig3 metric name to a worm filter (nil = all).
func metricFilter(metric string) func(*sim.Worm) bool {
	switch metric {
	case "multicast":
		return func(w *sim.Worm) bool { return len(w.Dests) > 1 }
	case "unicast":
		return func(w *sim.Worm) bool { return len(w.Dests) == 1 }
	}
	return nil
}

// mixedFor builds the Figure-3 workload for one (rate, dests) point.
func (cfg Fig3Config) mixedFor(rate float64, d int) workload.Mixed {
	return workload.Mixed{
		RatePerProcPerUs:  rate,
		MulticastFraction: cfg.MulticastFraction,
		MulticastDests:    d,
		Messages:          cfg.Messages,
	}
}

// RunFig3 regenerates Figure 3 on the workload engine: one series per
// multicast destination count, each point measured by the warmup +
// batch-means harness over the worker's reusable simulator.
func RunFig3(cfg Fig3Config) ([]Series, error) {
	if cfg.Nodes <= 0 || cfg.Messages <= 0 {
		return nil, fmt.Errorf("experiment: fig3 needs nodes and messages")
	}
	if cfg.Warmup >= cfg.Messages {
		return nil, fmt.Errorf("experiment: warmup %d >= messages %d", cfg.Warmup, cfg.Messages)
	}
	sys, err := lattice(cfg.Nodes, cfg.Seed, cfg.Root)
	if err != nil {
		return nil, err
	}
	type key struct {
		d  int
		ri int
	}
	jobs := make([]job, 0, len(cfg.DestCounts)*len(cfg.Rates))
	keys := make([]key, 0, len(cfg.DestCounts)*len(cfg.Rates))
	for _, d := range cfg.DestCounts {
		for ri, rate := range cfg.Rates {
			d, ri, rate := d, ri, rate
			keys = append(keys, key{d: d, ri: ri})
			jobs = append(jobs, func(c *workload.RunnerCache) (*stats.Summary, error) {
				runner, err := c.Get(sys, cfg.Sim)
				if err != nil {
					return nil, err
				}
				return workload.Measure(runner, cfg.mixedFor(rate, d), workload.MeasureOpts{
					WarmupMessages: cfg.Warmup,
					Seed:           cfg.Seed ^ uint64(d)<<32 ^ uint64(ri)<<8 ^ 0x5bd1,
					Filter:         metricFilter(cfg.Metric),
				})
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

// ComparisonConfig parameterizes the in-text comparison: SPAM broadcast
// versus software multicast in a 256-node network.
type ComparisonConfig struct {
	Nodes []int
	// Dests lists the destination counts to compare (nodes-1 = broadcast
	// when 0).
	Dests   []int
	Trials  int
	Seed    uint64
	Root    updown.RootStrategy
	Sim     sim.Config
	Workers int
}

// DefaultComparison returns the paper's in-text comparison setup.
func DefaultComparison(trials int) ComparisonConfig {
	return ComparisonConfig{
		Nodes:  []int{128, 256},
		Trials: trials,
		Seed:   1998,
		Sim:    sim.DefaultConfig(),
	}
}

// ComparisonRow is one measured scheme at one size.
type ComparisonRow struct {
	Nodes    int
	Scheme   string
	Dests    int
	MeanUs   float64
	CI95Us   float64
	Phases   int
	BoundUs  float64 // analytic lower bound for software schemes
	Speedup  float64 // software mean / SPAM mean (1.0 for SPAM itself)
	Trials   int64
	WormsPer float64
}

// RunComparison measures SPAM against the software multicast baselines.
func RunComparison(cfg ComparisonConfig) ([]ComparisonRow, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("experiment: comparison needs positive trials")
	}
	var rows []ComparisonRow
	for _, nodes := range cfg.Nodes {
		sys, err := lattice(nodes, cfg.Seed, cfg.Root)
		if err != nil {
			return nil, err
		}
		d := nodes - 1
		if len(cfg.Dests) > 0 {
			d = cfg.Dests[0]
		}

		type scheme struct {
			name   string
			run    func(t *sweepTrial) (int64, int, error)
			phases int
		}
		schemes := []scheme{
			{name: "SPAM", phases: 1, run: func(t *sweepTrial) (int64, int, error) {
				src := t.RandProc()
				w, err := t.Sim.Submit(0, src, t.PickDests(src, d))
				if err != nil {
					return 0, 0, err
				}
				if err := t.Sim.RunUntilIdle(1e16); err != nil {
					return 0, 0, err
				}
				return w.Latency(), 1, nil
			}},
		}
		for _, bs := range []baseline.Scheme{baseline.BinomialTree, baseline.SeparateWorms, baseline.Chain} {
			bs := bs
			schemes = append(schemes, scheme{name: bs.String(), run: func(t *sweepTrial) (int64, int, error) {
				src := t.RandProc()
				run, err := baseline.Start(t.Sim, bs, 0, src, t.PickDests(src, d))
				if err != nil {
					return 0, 0, err
				}
				if err := t.Sim.RunUntilIdle(1e16); err != nil {
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
			si, sc := si, sc
			jobs[si] = sweepSpec{
				systems: []*workload.System{sys},
				cfg:     cfg.Sim,
				seed:    cfg.Seed ^ uint64(nodes)<<16 ^ uint64(si)<<2,
				trials:  cfg.Trials,
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
		streams, err := runParallel(jobs, cfg.Workers)
		if err != nil {
			return nil, err
		}
		spamMean := streams[0].Mean()
		for si, sc := range schemes {
			row := ComparisonRow{
				Nodes:    nodes,
				Scheme:   sc.name,
				Dests:    d,
				MeanUs:   streams[si].Mean(),
				CI95Us:   streams[si].CI95(),
				Trials:   streams[si].N(),
				WormsPer: float64(wormCounts[si]) / float64(cfg.Trials),
				Speedup:  streams[si].Mean() / spamMean,
			}
			if sc.name == "SPAM" {
				row.Phases = 1
			} else {
				row.BoundUs = float64(baseline.LowerBoundNs(cfg.Sim.Params.StartupNs, d)) / nsPerUs
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ComparisonTable renders comparison rows.
func ComparisonTable(rows []ComparisonRow) *Table {
	t := &Table{
		Title:   "SPAM vs software multicast (paper Section 4 in-text comparison)",
		Headers: []string{"nodes", "scheme", "dests", "mean(us)", "ci95(us)", "bound(us)", "worms", "vs SPAM"},
	}
	for _, r := range rows {
		bound := "-"
		if r.BoundUs > 0 {
			bound = fmt.Sprintf("%.1f", r.BoundUs)
		}
		t.AddRow(
			fmt.Sprintf("%d", r.Nodes), r.Scheme, fmt.Sprintf("%d", r.Dests),
			fmt.Sprintf("%.2f", r.MeanUs), fmt.Sprintf("%.2f", r.CI95Us),
			bound, fmt.Sprintf("%.1f", r.WormsPer), fmt.Sprintf("%.2fx", r.Speedup),
		)
	}
	return t
}
