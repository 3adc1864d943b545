package main

import (
	"fmt"
	"math"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: allowed worsening, as a share of the median
}

// endToEnd metrics are measured with tracing off. Every workload reports
// every one: a workload's operation is a POST /run on serve-*, one whole
// campaign.Run on campaign-paper, and a pass is the workload's full point
// set once over (on campaign-paper, the campaign itself).
//
// The bounds are wide because this benchmark runs on a small shared host:
// run-to-run spreads of 10–20 % were measured on every timing metric, with
// the same seed as with different ones, and even on the seed-independent
// campaign. setup_s gets the largest bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_p50_ms", "ms", "lower", 0.24},
	{"run_p90_ms", "ms", "lower", 0.24},
	{"run_rps", "1/s", "higher", 0.24},
	{"campaign_s", "s", "lower", 0.24},
	{"live_heap_mib", "MiB", "lower", 0.15},
}

// driverNames are the experiment drivers the paper campaign runs; each has
// a per-layer metric experiment.<driver>_s.
var driverNames = []string{
	"ablate-buffer", "ablate-header", "ablate-partition", "ablate-root",
	"compare", "faults", "fig2", "fig3", "hotspot", "ibr", "prune",
	"routing", "routing-root", "throughput",
}

// perLayer metrics come from the traced run. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "serve.http_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.run_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.http_share", Unit: "ratio", Better: "lower"},
		{Name: "serve.attributed_share", Unit: "ratio", Better: "higher"},
		{Name: "topology.build_ms", Unit: "ms", Better: "lower"},
		{Name: "topology.builds", Unit: "count", Better: "lower"},
		{Name: "updown.label_ms", Unit: "ms", Better: "lower"},
		{Name: "updown.alloc_mib", Unit: "MiB", Better: "lower"},
		{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
		{Name: "core.table_mib", Unit: "MiB", Better: "lower"},
		{Name: "workload.runner_ms", Unit: "ms", Better: "lower"},
		{Name: "workload.cold_trial_ms", Unit: "ms", Better: "lower"},
		{Name: "workload.warm_trial_ms", Unit: "ms", Better: "lower"},
		{Name: "workload.trial_allocs", Unit: "count", Better: "lower"},
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "stats.merge_us", Unit: "us", Better: "lower"},
	}
	for _, d := range driverNames {
		defs = append(defs, metricDef{Name: "experiment." + d + "_s", Unit: "s", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "campaign.cell_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "campaign.cells_busy_s", Unit: "s", Better: "lower"},
		metricDef{Name: "campaign.fault_cell_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "campaign.unattributed_s", Unit: "s", Better: "lower"},
		metricDef{Name: "proc.alloc_mib_per_op", Unit: "MiB", Better: "lower"},
		metricDef{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "proc.peak_rss_mib", Unit: "MiB", Better: "lower"},
		metricDef{Name: "bench.fail_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	)
}()

// result is what one run of a workload reports.
type result struct {
	attempted int
	checker
	metrics map[string]float64
	// samples gives the sample count behind a metric, where it has one.
	samples map[string]int
	// notes are report lines printed before the metrics.
	notes []string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64, samples int) {
	r.metrics[name] = v
	if samples > 0 {
		r.samples[name] = samples
	}
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
