package experiment

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/updown"
	"repro/internal/workload"
)

// RoutingConfig parameterizes the adaptive-routing comparator sweeps: the
// same traffic measured under baseline up*/down* routing, budget-bounded
// misroute, and "duato" — misroute with an unbounded budget, the fully
// adaptive variant over the baseline escape class.
type RoutingConfig struct {
	Nodes int
	// Rates lists average arrival rates in messages/µs/processor for the
	// latency-vs-rate sweep (Figure 3 shape, one series per policy).
	Rates []float64
	// MulticastFraction/MulticastDests shape the mixed traffic (paper: 0.1).
	MulticastFraction float64
	MulticastDests    int
	// Messages per point; Warmup of them are excluded from measurement.
	Messages int
	Warmup   int
	// MisrouteBudget is the per-worm deroute budget of the misroute series.
	MisrouteBudget int
	Seed           uint64
	Sim            sim.Config
	Workers        int
}

// DefaultRouting returns the comparator setup at a configurable effort: the
// paper's 128-node mixed traffic, measured per policy.
func DefaultRouting(messages int) RoutingConfig {
	return RoutingConfig{
		Nodes:             128,
		Rates:             []float64{0.005, 0.01, 0.02, 0.03, 0.04},
		MulticastFraction: 0.1,
		MulticastDests:    16,
		Messages:          messages,
		Warmup:            messages / 10,
		MisrouteBudget:    2,
		Seed:              1998,
		Sim:               sim.DefaultConfig(),
	}
}

// RunRoutingComparison measures mean latency versus arrival rate under each
// routing policy on one network and labeling (the policies share the
// up*/down* structure, so the curves differ only by routing freedom). One
// series per policy; the misroute and duato series share one system and
// differ only in the simulator's misroute budget.
func RunRoutingComparison(cfg RoutingConfig) ([]Series, error) {
	if cfg.Nodes <= 0 || cfg.Messages <= 0 {
		return nil, fmt.Errorf("experiment: routing needs nodes and messages")
	}
	if cfg.Warmup >= cfg.Messages {
		return nil, fmt.Errorf("experiment: warmup %d >= messages %d", cfg.Warmup, cfg.Messages)
	}
	base, err := lattice(cfg.Nodes, cfg.Seed, updown.RootMinID)
	if err != nil {
		return nil, err
	}
	mis, err := withPolicy(base, core.PolicyMisroute)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		label  string
		sys    *workload.System
		budget int
	}{
		{"baseline", base, 0},
		{fmt.Sprintf("misroute-%d", cfg.MisrouteBudget), mis, cfg.MisrouteBudget},
		{"duato", mis, math.MaxInt32},
	}
	type key struct{ vi, ri int }
	var jobs []job
	var keys []key
	for vi, v := range variants {
		simCfg := cfg.Sim
		simCfg.MisrouteBudget = v.budget
		for ri, rate := range cfg.Rates {
			keys = append(keys, key{vi: vi, ri: ri})
			jobs = append(jobs, func(c *workload.RunnerCache) (*stats.Summary, error) {
				runner, err := c.Get(v.sys, simCfg)
				if err != nil {
					return nil, err
				}
				return workload.Measure(runner, workload.Mixed{
					RatePerProcPerUs:  rate,
					MulticastFraction: cfg.MulticastFraction,
					MulticastDests:    cfg.MulticastDests,
					Messages:          cfg.Messages,
				}, workload.MeasureOpts{
					WarmupMessages: cfg.Warmup,
					// The same seed per rate across policies: every variant
					// sees the identical arrival stream, so the comparison
					// is paired.
					Seed: cfg.Seed ^ uint64(ri)<<8 ^ 0x5bd1,
				})
			})
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
			X:    cfg.Rates[k.ri],
			Mean: streams[i].Mean(),
			CI95: streams[i].CI95(),
			N:    streams[i].N(),
		})
	}
	return out, nil
}

// RoutingRootRow is one (topology, root strategy) cell of the root-strategy
// sweep, measured under baseline and duato (unbounded misroute) routing.
type RoutingRootRow struct {
	Topology   string
	Strategy   string
	TreeDepth  int
	BaseMeanUs float64
	BaseCI95Us float64
	AdptMeanUs float64
	AdptCI95Us float64
}

// RunRoutingRootSweep measures the root-placement question the paper leaves
// open, per policy: a fat-tree rooted at a top-stage switch (max-degree)
// versus an arbitrary leaf-stage root (min-id), and a torus rooted at a
// graph center — each under baseline and duato (unbounded misroute)
// routing. Down-cross richness depends on the root, so the adaptive win is
// root-dependent.
func RunRoutingRootSweep(cfg RoutingConfig) ([]RoutingRootRow, error) {
	if cfg.Messages <= 0 {
		return nil, fmt.Errorf("experiment: routing-root needs messages")
	}
	topos := []string{"fattree:4x3", "torus:8x8"}
	strategies := []updown.RootStrategy{updown.RootMinID, updown.RootMaxDegree, updown.RootCenter}
	rate := cfg.Rates[len(cfg.Rates)/2]
	type cell struct {
		topo  string
		strat updown.RootStrategy
		depth int
	}
	adaptive := cfg.Sim
	adaptive.MisrouteBudget = math.MaxInt32
	var jobs []job
	var cells []cell
	for _, topo := range topos {
		sp, err := topology.ParseSpec(topo)
		if err != nil {
			return nil, err
		}
		for _, strat := range strategies {
			base, err := workload.NewSystem(workload.KeyFor(sp, cfg.Seed, core.PolicyBaseline, strat), nil)
			if err != nil {
				return nil, err
			}
			depth := 0
			for v := 0; v < base.Net.N(); v++ {
				if int(base.Lab.Level[v]) > depth {
					depth = int(base.Lab.Level[v])
				}
			}
			mis, err := withPolicy(base, core.PolicyMisroute)
			if err != nil {
				return nil, err
			}
			for _, v := range []struct {
				sys    *workload.System
				simCfg sim.Config
			}{{base, cfg.Sim}, {mis, adaptive}} {
				cells = append(cells, cell{topo: topo, strat: strat, depth: depth})
				jobs = append(jobs, func(c *workload.RunnerCache) (*stats.Summary, error) {
					runner, err := c.Get(v.sys, v.simCfg)
					if err != nil {
						return nil, err
					}
					return workload.Measure(runner, workload.Mixed{
						RatePerProcPerUs:  rate,
						MulticastFraction: cfg.MulticastFraction,
						MulticastDests:    min(cfg.MulticastDests, v.sys.Net.NumProcs-1),
						Messages:          cfg.Messages,
					}, workload.MeasureOpts{
						WarmupMessages: cfg.Warmup,
						Seed:           cfg.Seed ^ uint64(strat)<<12 ^ 0x700f,
					})
				})
			}
		}
	}
	streams, err := runParallel(jobs, cfg.Workers)
	if err != nil {
		return nil, err
	}
	var rows []RoutingRootRow
	for i := 0; i < len(cells); i += 2 {
		c := cells[i]
		rows = append(rows, RoutingRootRow{
			Topology:   c.topo,
			Strategy:   c.strat.String(),
			TreeDepth:  c.depth,
			BaseMeanUs: streams[i].Mean(),
			BaseCI95Us: streams[i].CI95(),
			AdptMeanUs: streams[i+1].Mean(),
			AdptCI95Us: streams[i+1].CI95(),
		})
	}
	return rows, nil
}

// RoutingRootTable renders root-sweep rows.
func RoutingRootTable(rows []RoutingRootRow) *Table {
	t := &Table{
		Title:   "Root placement × routing policy (fat-tree top stage vs leaf roots, torus centers)",
		Headers: []string{"topology", "root strategy", "depth", "baseline(us)", "ci95", "duato(us)", "ci95"},
	}
	for _, r := range rows {
		t.AddRow(r.Topology, r.Strategy, fmt.Sprintf("%d", r.TreeDepth),
			fmt.Sprintf("%.2f", r.BaseMeanUs), fmt.Sprintf("%.2f", r.BaseCI95Us),
			fmt.Sprintf("%.2f", r.AdptMeanUs), fmt.Sprintf("%.2f", r.AdptCI95Us))
	}
	return t
}
