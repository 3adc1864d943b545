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

// The routing comparator offers the paper's 90/10 mixed traffic with
// 16-destination multicasts to a 128-switch lattice, and bounds the
// misroute series at routingMisrouteBudget deroutes per worm.
const (
	routingNodes          = 128
	routingMcastDests     = 16
	routingMisrouteBudget = 2
)

var routingRates = []float64{0.005, 0.01, 0.02, 0.03, 0.04}

// routingComparison measures mean latency against arrival rate under each
// routing policy on one network and labeling (baseline up*/down*,
// budget-bounded misroute, and "duato": misroute with an unbounded budget,
// the fully adaptive variant over the baseline escape class). The policies
// share the up*/down* structure, so the curves differ only by routing
// freedom; the misroute and duato series share one system and differ only
// in the simulator's misroute budget.
func routingComparison(o DriverOpts) (*DriverResult, error) {
	base, err := lattice(routingNodes, o.Seed, updown.RootMinID)
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
		{fmt.Sprintf("misroute-%d", routingMisrouteBudget), mis, routingMisrouteBudget},
		{"duato", mis, math.MaxInt32},
	}
	labels := make([]string, len(variants))
	for vi, v := range variants {
		labels[vi] = v.label
	}
	series, err := sweepGrid(labels, routingRates, o.Workers, func(vi, ri int) job {
		v := variants[vi]
		simCfg := o.Sim
		simCfg.MisrouteBudget = v.budget
		return func(c *workload.RunnerCache) (*stats.Summary, error) {
			runner, err := c.Get(v.sys, simCfg)
			if err != nil {
				return nil, err
			}
			return workload.Measure(runner, mixed(routingRates[ri], routingMcastDests, o.Messages), workload.MeasureOpts{
				WarmupMessages: o.Messages / 10,
				// The same seed per rate across policies: every variant
				// sees the identical arrival stream, so the comparison
				// is paired.
				Seed: o.Seed ^ uint64(ri)<<8 ^ 0x5bd1,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return seriesResult("Adaptive-routing comparator: latency vs arrival rate per routing policy (90/10 mixed, 128 nodes)",
		"rate(msg/us/proc)", series, "rate (msg/us/proc)", "latency (us)"), nil
}

// routingRootTopologies are the networks the root-placement sweep roots
// three ways.
var routingRootTopologies = []string{"fattree:4x3", "torus:8x8"}

// routingRootSweep measures the root-placement question the paper leaves
// open, per policy: a fat-tree rooted at a top-stage switch (max-degree)
// against an arbitrary leaf-stage root (min-id), and a torus rooted at a
// graph center, each under baseline and duato (unbounded misroute)
// routing at the comparator's middle rate. Down-cross richness depends on
// the root, so the adaptive win is root-dependent.
func routingRootSweep(o DriverOpts) (*DriverResult, error) {
	strategies := []updown.RootStrategy{updown.RootMinID, updown.RootMaxDegree, updown.RootCenter}
	rate := routingRates[len(routingRates)/2]
	adaptive := o.Sim
	adaptive.MisrouteBudget = math.MaxInt32
	t := &Table{
		Title:   "Root placement × routing policy (fat-tree top stage vs leaf roots, torus centers)",
		Headers: []string{"topology", "root strategy", "depth", "baseline(us)", "ci95", "duato(us)", "ci95"},
	}
	var jobs []job
	for _, topo := range routingRootTopologies {
		sp, err := topology.ParseSpec(topo)
		if err != nil {
			return nil, err
		}
		for _, strat := range strategies {
			base, err := workload.NewSystem(workload.KeyFor(sp, o.Seed, core.PolicyBaseline, strat), nil)
			if err != nil {
				return nil, err
			}
			mis, err := withPolicy(base, core.PolicyMisroute)
			if err != nil {
				return nil, err
			}
			// The row's cells after the depth are filled in below, in job
			// order: baseline, then duato.
			t.AddRow(topo, strat.String(), fmt.Sprintf("%d", treeDepth(base)))
			for _, v := range []struct {
				sys    *workload.System
				simCfg sim.Config
			}{{base, o.Sim}, {mis, adaptive}} {
				jobs = append(jobs, func(c *workload.RunnerCache) (*stats.Summary, error) {
					runner, err := c.Get(v.sys, v.simCfg)
					if err != nil {
						return nil, err
					}
					return workload.Measure(runner, mixed(rate, min(routingMcastDests, v.sys.Net.NumProcs-1), o.Messages), workload.MeasureOpts{
						WarmupMessages: o.Messages / 10,
						Seed:           o.Seed ^ uint64(strat)<<12 ^ 0x700f,
					})
				})
			}
		}
	}
	streams, err := runParallel(jobs, o.Workers)
	if err != nil {
		return nil, err
	}
	for i, st := range streams {
		row := &t.Rows[i/2]
		*row = append(*row, fmt.Sprintf("%.2f", st.Mean()), ci95Cell("%.2f", st.CI95(), st.N()))
	}
	return &DriverResult{Table: t}, nil
}
