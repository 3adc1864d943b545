package experiment

// The driver registry names every figure/table driver of the reproduction,
// so callers (cmd/spamsim, the campaign engine, the serve layer) run "the
// paper" by name. A driver is a function of DriverOpts alone; the paper's
// parameters are constants next to the code that uses them.

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// DriverOpts are the knobs every named driver consumes. Zero values select
// each driver's default effort.
type DriverOpts struct {
	// Trials is samples per data point (single-shot drivers); 0 = 20.
	Trials int
	// Messages is the per-point message budget (steady-state drivers);
	// 0 = 1500.
	Messages int
	// Workers bounds the parallel worker pool (0 = GOMAXPROCS).
	Workers int
	// Seed is the base random seed (0 is a valid seed).
	Seed uint64
	// Sim is the simulator configuration; a zero value (detected by
	// MessageFlits == 0) selects sim.DefaultConfig().
	Sim sim.Config
	// FaultMTTRUs overrides the fault sweep's per-link repair time (0 =
	// driver default).
	FaultMTTRUs float64
}

func (o DriverOpts) withDefaults() DriverOpts {
	if o.Trials <= 0 {
		o.Trials = 20
	}
	if o.Messages <= 0 {
		o.Messages = 1500
	}
	if o.Sim.Params.MessageFlits == 0 {
		o.Sim = sim.DefaultConfig()
	}
	return o
}

// DriverResult is the uniform output of a named driver: always a table,
// plus the underlying series for drivers that produce curves (nil for
// row-table drivers like the comparisons and categorical ablations).
type DriverResult struct {
	Driver string
	Table  *Table
	Series []Series
	// XLabel/YLabel annotate plots of Series.
	XLabel, YLabel string
}

// driverFn runs one registered driver on defaulted options.
type driverFn struct {
	run  func(o DriverOpts) (*DriverResult, error)
	desc string
}

var drivers = map[string]driverFn{
	"fig2":             {fig2, "Figure 2: latency vs destinations (single multicast, 128/256 nodes)"},
	"fig3":             {fig3, "Figure 3: latency vs arrival rate (90/10 mixed traffic, 128 nodes)"},
	"throughput":       {throughput, "accepted vs offered throughput saturation sweep"},
	"faults":           {faultSweep, "latency/throughput/availability vs per-link fault rate"},
	"prune":            {pruneComparison, "SPAM vs pruning-based tree multicast vs message length"},
	"ibr":              {ibrComparison, "SPAM vs input-buffer-based replication vs message length"},
	"hotspot":          {rootShare, "share of worms through the root vs destinations"},
	"ablate-header":    {headerAblation, "broadcast latency vs destination addresses per header flit"},
	"ablate-buffer":    {bufferAblation, "input buffer size ablation under loaded multicast"},
	"routing":          {routingComparison, "latency vs rate per routing policy (baseline / misroute / Duato)"},
	"routing-root":     {routingRootSweep, "root placement × routing policy (fat-tree and torus roots)"},
	"compare":          {comparison, "SPAM vs software multicast baselines"},
	"ablate-root":      {rootAblation, "spanning-tree root strategy ablation"},
	"ablate-partition": {partitionAblation, "destination partitioning ablation"},
}

// seriesResult wraps a driver's series with their table and plot labels.
func seriesResult(title, xName string, series []Series, xLabel, yLabel string) *DriverResult {
	return &DriverResult{Table: SeriesTable(title, xName, series), Series: series, XLabel: xLabel, YLabel: yLabel}
}

// Drivers returns the registered driver names, sorted.
func Drivers() []string {
	out := make([]string, 0, len(drivers))
	for name := range drivers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DriverDescription returns the one-line description of a driver ("" if
// unknown).
func DriverDescription(name string) string { return drivers[name].desc }

// RunDriver executes the named driver. Every driver is deterministic for a
// given DriverOpts: same options, same table bytes and series values.
func RunDriver(name string, o DriverOpts) (*DriverResult, error) {
	d, ok := drivers[name]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown driver %q (have %v)", name, Drivers())
	}
	res, err := d.run(o.withDefaults())
	if err != nil {
		return nil, fmt.Errorf("experiment: driver %s: %w", name, err)
	}
	res.Driver = name
	return res, nil
}
