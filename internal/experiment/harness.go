package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/updown"
	"repro/internal/viz"
	"repro/internal/workload"
)

// Point is one data point of a series: x value, mean (in its series' unit)
// and the 95% confidence half-width. N is the number of statistical samples
// behind the CI — independent trials for single-shot experiments, batch
// means for steady-state experiments (Figure 3); below two the CI is
// unknown.
type Point struct {
	X    float64
	Mean float64
	CI95 float64
	N    int64
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
	// Unit names what the points' Mean and CI95 carry; empty means µs.
	Unit string `json:",omitempty"`
}

// Table is a generic text table for experiment reports.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "# %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (quotes are not needed
// for the numeric content these tables carry).
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Headers, ","))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SeriesTable renders a set of series as a table keyed by x value.
func SeriesTable(title, xName string, series []Series) *Table {
	t := &Table{Title: title}
	t.Headers = append(t.Headers, xName)
	xs := map[float64]bool{}
	for _, s := range series {
		unit := s.Unit
		if unit == "" {
			unit = "us"
		}
		t.Headers = append(t.Headers, s.Label+" mean("+unit+")", s.Label+" ci95("+unit+")")
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	var xsSorted []float64
	for x := range xs {
		xsSorted = append(xsSorted, x)
	}
	sort.Float64s(xsSorted)
	for _, x := range xsSorted {
		row := []string{trimFloat(x)}
		for _, s := range series {
			found := false
			for _, p := range s.Points {
				if p.X == x {
					mean := "-" // no samples, no mean
					if p.N > 0 {
						mean = fmt.Sprintf("%.3f", p.Mean)
					}
					row = append(row, mean, ci95Cell("%.3f", p.CI95, p.N))
					found = true
					break
				}
			}
			if !found {
				row = append(row, "-", "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// ci95Cell formats a confidence half-width from n samples, or "-" when
// fewer than two samples leave it unknown.
func ci95Cell(format string, ci float64, n int64) string {
	if n < 2 {
		return "-"
	}
	return fmt.Sprintf(format, ci)
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.4f", x)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// job is one parallel work item producing a streaming latency summary. The
// cache hands it the worker goroutine's reusable simulators.
type job func(c *workload.RunnerCache) (*stats.Summary, error)

// runParallel executes the jobs on a bounded worker pool, preserving order.
// Every worker goroutine owns a runner cache that keeps every runner for the
// whole run, so jobs (and trials within jobs) that share a (system, config)
// pair reuse one resettable simulator instead of rebuilding arenas per
// trial.
//
// Determinism: results are indexed by job, every job owns its random stream
// and its summary, and no job reads shared mutable state — so the output is
// bit-identical for any worker count or GOMAXPROCS setting (the serial-vs-
// parallel golden test in determinism_test.go pins this).
func runParallel(jobs []job, workers int) ([]*stats.Summary, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]*stats.Summary, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cache := workload.NewRunnerCache(0)
			for i := range next {
				results[i], errs[i] = jobs[i](cache)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// lattice builds the paper's random lattice of the given size under seed,
// labeled from root and routed by the baseline policy.
func lattice(switches int, seed uint64, root updown.RootStrategy) (*workload.System, error) {
	sp := topology.Spec{Family: "lattice", A: switches}
	return workload.NewSystem(workload.KeyFor(sp, seed, core.PolicyBaseline, root), nil)
}

// withPolicy derives base's system under pol, sharing its network and
// labeling — the comparator sweeps measure policies on the *same* up*/down*
// structure, so every latency difference is the policy's doing.
func withPolicy(base *workload.System, pol core.Policy) (*workload.System, error) {
	k := base.Key
	k.Policy = pol
	return workload.NewSystem(k, base)
}

const nsPerUs = 1000.0

// sweepTrial is the context a sweep's run function executes one trial in:
// a freshly Reset reusable simulator, the point's deterministic random
// stream and the trial's system.
type sweepTrial struct {
	Sys  *workload.System
	Sim  *sim.Simulator
	Rand *rng.Source
	st   *stats.Summary
}

// AddNs records one latency sample in nanoseconds.
func (t *sweepTrial) AddNs(lat int64) { t.st.Add(float64(lat) / nsPerUs) }

// AddUs records one sample already in microseconds (or any custom unit).
func (t *sweepTrial) AddUs(v float64) { t.st.Add(v) }

// RandProc draws a uniform source processor.
func (t *sweepTrial) RandProc() topology.NodeID {
	return t.proc(t.Rand.Intn(t.Sys.Net.NumProcs))
}

// PickDests draws k uniform destinations excluding src.
func (t *sweepTrial) PickDests(src topology.NodeID, k int) []topology.NodeID {
	srcIdx := int(src) - t.Sys.Net.NumSwitches
	idx := t.Rand.Choose(t.Sys.Net.NumProcs-1, k)
	out := make([]topology.NodeID, k)
	for i, v := range idx {
		if v >= srcIdx {
			v++
		}
		out[i] = t.proc(v)
	}
	return out
}

// proc maps a processor index to its node ID.
func (t *sweepTrial) proc(i int) topology.NodeID {
	return topology.NodeID(t.Sys.Net.NumSwitches + i)
}

// idleCapNs bounds a single-shot trial's simulated time: far past any
// multicast's drain, so reaching it means the trial is stuck.
const idleCapNs = 1e16

// multicast submits one multicast from a uniform source to d uniform
// destinations at time 0 and runs the trial until the network is idle.
func (t *sweepTrial) multicast(d int) (*sim.Worm, error) {
	src := t.RandProc()
	w, err := t.Sim.Submit(0, src, t.PickDests(src, d))
	if err != nil {
		return nil, err
	}
	return w, t.Sim.RunUntilIdle(idleCapNs)
}

// sweepSpec is the shared trial loop every single-shot experiment driver
// runs on: a fixed number of trials of `run` over per-goroutine reusable
// simulators, rotating through systems when several topologies are sampled.
type sweepSpec struct {
	systems []*workload.System
	cfg     sim.Config
	seed    uint64
	trials  int
	run     func(t *sweepTrial) error
}

// job converts the spec into a parallel work item.
func (sp sweepSpec) job() job {
	return func(c *workload.RunnerCache) (*stats.Summary, error) {
		st := stats.NewSummary()
		tr := sweepTrial{Rand: rng.New(sp.seed), st: st}
		for trial := 0; trial < sp.trials; trial++ {
			sys := sp.systems[trial%len(sp.systems)]
			runner, err := c.Get(sys, sp.cfg)
			if err != nil {
				return nil, err
			}
			runner.Sim().Reset()
			tr.Sys, tr.Sim = sys, runner.Sim()
			if err := sp.run(&tr); err != nil {
				return nil, err
			}
		}
		return st, nil
	}
}

// estimate is what a point reads from a summary or a stream.
type estimate interface {
	Mean() float64
	CI95() float64
	N() int64
}

// point is the data point at x of an estimate.
func point(x float64, e estimate) Point {
	return Point{X: x, Mean: e.Mean(), CI95: e.CI95(), N: e.N()}
}

// sweepGrid runs one job per (series, x) pair, series-major, and returns one
// series per label with a point per x.
func sweepGrid(labels []string, xs []float64, workers int, mk func(si, xi int) job) ([]Series, error) {
	jobs := make([]job, 0, len(labels)*len(xs))
	for si := range labels {
		for xi := range xs {
			jobs = append(jobs, mk(si, xi))
		}
	}
	streams, err := runParallel(jobs, workers)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(labels))
	for si, label := range labels {
		out[si].Label = label
		for xi, x := range xs {
			out[si].Points = append(out[si].Points, point(x, streams[si*len(xs)+xi]))
		}
	}
	return out, nil
}

// treeDepth is the depth of a system's up*/down* spanning tree.
func treeDepth(sys *workload.System) int {
	depth := 0
	for v := 0; v < sys.Net.N(); v++ {
		depth = max(depth, int(sys.Lab.Level[v]))
	}
	return depth
}

// floats converts a parameter list to x values.
func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Plot renders series as an ASCII chart (80×20), echoing the paper's
// figures. Points without samples are left out.
func Plot(title string, series []Series) string {
	var curves []viz.Curve
	for _, s := range series {
		c := viz.Curve{Label: s.Label}
		for _, p := range s.Points {
			if p.N > 0 {
				c.Points = append(c.Points, viz.Point{X: p.X, Y: p.Mean})
			}
		}
		curves = append(curves, c)
	}
	return viz.Chart(title, 80, 20, curves)
}
