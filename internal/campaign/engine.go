package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// defaultWorkers sizes the campaign session pool when Options.Workers is 0.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Options parameterize a campaign run.
type Options struct {
	// Workers bounds the campaign's session pool: grid cells execute on
	// this many concurrent reusable simulators, and experiment drivers use
	// it as their internal worker bound (0 = GOMAXPROCS).
	Workers int
	// CheckpointDir enables per-cell checkpointing: every completed
	// experiment and grid cell is persisted as JSON, and a re-run (or a
	// resumed interrupted run) loads completed cells instead of
	// recomputing them. "" disables checkpointing.
	CheckpointDir string
	// Sim is the simulator configuration for grid cells (zero value =
	// sim.DefaultConfig()).
	Sim sim.Config
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
	// MaxTrials/MaxMessages/MaxCells clamp per-cell effort and grid size —
	// the serving layer's admission control (0 = unlimited).
	MaxTrials   int
	MaxMessages int
	MaxCells    int
	// AllowFileTopologies permits file: topology specs (CLI use only; the
	// serving layer keeps it false).
	AllowFileTopologies bool
	// CellRunner, if non-nil, computes grid cells instead of the local
	// session pool — the fleet coordinator's scatter hook. It must be
	// deterministic: the engine slots its result by cell position and
	// checkpoints it under the locally derived id, so a remote runner has
	// to return exactly what the local pool would have computed (our
	// workers do, by the pool-size-independence guarantee). Experiments
	// always run locally. Resilience — retries, fallback to local
	// execution — is the runner's responsibility; an error here fails the
	// campaign.
	CellRunner func(ctx context.Context, g Grid, cell Cell) (*CellResult, error)
	// Metrics, when wired, counts campaign progress out of band. The
	// handles are nil-safe, the engine never branches on them, and nothing
	// they observe flows into results or the report — so the report stays
	// bit-identical with metrics on or off.
	Metrics Metrics
}

// Metrics is the campaign engine's observability hook: how many cells
// entered execution, how many loaded from checkpoints, how many computed,
// and how long each computed cell took (wall clock, seconds). All fields
// are nil-safe telemetry handles; the zero value disables everything.
type Metrics struct {
	CellsStarted  *telemetry.Counter
	CellsCached   *telemetry.Counter
	CellsComputed *telemetry.Counter
	CellSeconds   *telemetry.Histogram
}

// ExperimentResult is one completed experiment driver.
type ExperimentResult struct {
	ID     string              `json:"id"`
	Driver string              `json:"driver"`
	Seed   uint64              `json:"seed"`
	Table  *experiment.Table   `json:"table"`
	Series []experiment.Series `json:"series,omitempty"`
	XLabel string              `json:"x_label,omitempty"`
	YLabel string              `json:"y_label,omitempty"`
}

// CellResult is one completed grid cell: the streaming-statistics summary
// of Trials replications of a scenario on a topology, plus the topology's
// headline shape for the report's zoo table.
type CellResult struct {
	ID string `json:"id"`
	Cell
	Switches   int     `json:"switches"`
	Processors int     `json:"processors"`
	Links      int     `json:"links"`
	Diameter   int     `json:"diameter"`
	Trials     int     `json:"trials"`
	Count      int64   `json:"count"`
	MeanUs     float64 `json:"mean_us"`
	CI95Us     float64 `json:"ci95_us"`
	MinUs      float64 `json:"min_us"`
	MaxUs      float64 `json:"max_us"`
	P50Us      float64 `json:"p50_us"`
	P90Us      float64 `json:"p90_us"`
	P99Us      float64 `json:"p99_us"`
	// TableMB and TableCompression report the cell system's compiled
	// routing-table footprint: mebibytes after structural sharing, and the
	// ratio of the dense (index + per-cell rows) structure to the
	// compressed one. The report's zoo table surfaces both.
	TableMB          float64 `json:"table_mb"`
	TableCompression float64 `json:"table_compression_x"`
	// Counters aggregates the engine counters over the cell's trials —
	// deterministic exact sums, checkpointed with the cell and surfaced as
	// REPORT.md columns.
	Counters sim.Counters `json:"counters"`
}

// Result is a completed campaign.
type Result struct {
	Manifest    *Manifest
	Experiments []*ExperimentResult
	Cells       []*CellResult
	// Computed and Cached count how many units ran versus loaded from
	// checkpoints.
	Computed int
	Cached   int
	// Report is the rendered REPORT.md content.
	Report string
	// SVGs maps relative plot paths (e.g. "plots/exp-fig2.svg") to their
	// rendered content.
	SVGs map[string]string
}

func driverNames() []string { return experiment.Drivers() }

func driverProbe(name string) (string, error) {
	if desc := experiment.DriverDescription(name); desc != "" {
		return desc, nil
	}
	return "", fmt.Errorf("campaign: unknown experiment driver %q (have %v)", name, experiment.Drivers())
}

// checkpoint is the on-disk unit: exactly one of Experiment or Cell.
type checkpoint struct {
	Version    int               `json:"version"`
	Experiment *ExperimentResult `json:"experiment,omitempty"`
	Cell       *CellResult       `json:"cell,omitempty"`
}

// checkpointVersion is bumped whenever a stored unit's meaning changes, so
// older checkpoints recompute instead of loading. Version 2: duato cells run
// as unbounded misroute, and Counters lost adaptive_hops (their hops count
// in misroute_hops). Version 3: experiment tables print "-" for a CI from
// fewer than two samples and name each series' unit in its headers.
const checkpointVersion = 3

// cellID derives the stable checkpoint identity of a unit from its complete
// parameterization: any change to the spec changes the ID, so stale
// checkpoints are never reused.
func cellID(kind, name string, spec any) string {
	blob, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("campaign: marshaling spec for id: %v", err))
	}
	h := fnv.New64a()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(blob)
	return fmt.Sprintf("%s-%s-%016x", kind, sanitize(name), h.Sum64())
}

// loadCheckpoint returns the stored unit for id, or nil. A missing,
// truncated, corrupt or mislabeled file is treated as "this unit was never
// computed": the cell recomputes (deterministically, so the output is
// unchanged) instead of the whole campaign failing on a half-written
// checkpoint left by a crash.
func loadCheckpoint(dir, id string) *checkpoint {
	if dir == "" {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		return nil
	}
	var cp checkpoint
	if err := json.Unmarshal(data, &cp); err != nil || cp.Version != checkpointVersion {
		return nil
	}
	// The embedded id must match the file's name-derived id: a checkpoint
	// copied or renamed across cells (or a hash-colliding stale file) must
	// not impersonate a different unit.
	if cp.Experiment != nil && cp.Experiment.ID != id {
		return nil
	}
	if cp.Cell != nil && cp.Cell.ID != id {
		return nil
	}
	return &cp
}

// saveCheckpoint persists a completed unit crash-safely: the JSON is
// written to a temp file and renamed into place, so a crash mid-write
// leaves either the old checkpoint or none — never a truncated one a
// resume would have to distrust (loadCheckpoint rejects those anyway as a
// second line of defense). Write errors are surfaced: a checkpointed
// campaign that cannot checkpoint should fail loudly rather than silently
// recompute forever.
func saveCheckpoint(dir, id string, cp checkpoint) error {
	if dir == "" {
		return nil
	}
	cp.Version = checkpointVersion
	blob, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, id+".json.tmp")
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, id+".json"))
}

// expSpec is the checkpoint identity of an experiment unit.
type expSpec struct {
	Driver   string `json:"driver"`
	Trials   int    `json:"trials"`
	Messages int    `json:"messages"`
	Seed     uint64 `json:"seed"`
}

// cellSpec is the checkpoint identity of a grid cell: the cell coordinates
// plus every grid knob that shapes its measurement.
type cellSpec struct {
	Cell   Cell            `json:"cell"`
	Trials int             `json:"trials"`
	Warmup int             `json:"warmup"`
	Params workload.Params `json:"params"`
}

// Run executes the manifest. Determinism: for a fixed (manifest, Options
// clamps) pair the Result — report bytes, SVG bytes, every float — is
// bit-identical on every run, for any Workers value, whether a unit was
// computed or loaded from a checkpoint. Interrupting a run (context cancel,
// crash) loses at most the in-flight cells; completed cells are already
// checkpointed and a re-run resumes after them.
func Run(ctx context.Context, m *Manifest, opts Options) (*Result, error) {
	if err := m.Validate(opts.AllowFileTopologies); err != nil {
		return nil, err
	}
	if opts.Sim.Params.MessageFlits == 0 {
		opts.Sim = sim.DefaultConfig()
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: checkpoint dir: %w", err)
		}
	}

	if n := m.NumCells(); opts.MaxCells > 0 && n > opts.MaxCells {
		return nil, fmt.Errorf("campaign: manifest expands to %d cells, limit %d", n, opts.MaxCells)
	}
	cells := m.cells()
	// Every cell's identity resolves before any unit runs, so a cell the
	// budget clamp refuses fails the campaign before it costs anything.
	specs := make([]cellSpec, len(cells))
	for i, cell := range cells {
		spec, err := cellSpecFor(m.grid(cell.Grid), cell, opts)
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", cell, err)
		}
		specs[i] = spec
	}

	res := &Result{Manifest: m, SVGs: map[string]string{}}

	// Experiments run sequentially; each driver parallelizes internally
	// over opts.Workers.
	for _, e := range m.Experiments {
		e := e
		seed := e.Seed
		if seed == 0 {
			seed = m.Seed
		}
		spec := expSpec{Driver: e.Driver, Trials: e.Trials, Messages: e.Messages, Seed: seed}
		id := cellID("exp", e.Driver, spec)
		if cp := loadCheckpoint(opts.CheckpointDir, id); cp != nil && cp.Experiment != nil {
			logf("campaign: experiment %s: checkpoint hit", e.Driver)
			res.Experiments = append(res.Experiments, cp.Experiment)
			res.Cached++
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		logf("campaign: experiment %s: running", e.Driver)
		dr, err := experiment.RunDriver(e.Driver, experiment.DriverOpts{
			Trials:   e.Trials,
			Messages: e.Messages,
			Workers:  opts.Workers,
			Seed:     seed,
			Sim:      opts.Sim,
		})
		if err != nil {
			return nil, err
		}
		er := &ExperimentResult{
			ID: id, Driver: e.Driver, Seed: seed,
			Table: dr.Table, Series: sanitizeSeries(dr.Series),
			XLabel: dr.XLabel, YLabel: dr.YLabel,
		}
		if err := saveCheckpoint(opts.CheckpointDir, id, checkpoint{Experiment: er}); err != nil {
			return nil, fmt.Errorf("campaign: checkpointing %s: %w", id, err)
		}
		res.Experiments = append(res.Experiments, er)
		res.Computed++
	}

	// Grid cells execute on the campaign session pool: Workers goroutines,
	// each keeping every reusable simulator it builds for the whole run,
	// over one shared cache of systems. Results land in their cell's slot,
	// so output order — and therefore the report — is independent of
	// scheduling.
	cellResults := make([]*CellResult, len(cells))
	cellErrs := make([]error, len(cells))
	var cached, computed int
	var mu sync.Mutex // counters
	systems := workload.NewSystemCache(0, nil)

	workers := opts.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	// gridStart anchors the ETA estimate. Wall-clock readings flow only
	// into Logf lines and telemetry — never into results or the report.
	gridStart := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runners := workload.NewRunnerCache(0)
			for i := range next {
				cell := cells[i]
				g := m.grid(cell.Grid)
				spec := specs[i]
				id := cellID("cell", cell.Grid+"-"+cell.Scenario, spec)
				if cp := loadCheckpoint(opts.CheckpointDir, id); cp != nil && cp.Cell != nil {
					opts.Metrics.CellsCached.Inc()
					cellResults[i] = cp.Cell
					mu.Lock()
					cached++
					mu.Unlock()
					continue
				}
				if ctx.Err() != nil {
					cellErrs[i] = ctx.Err()
					continue
				}
				opts.Metrics.CellsStarted.Inc()
				cellStart := time.Now()
				var cr *CellResult
				var err error
				if opts.CellRunner != nil {
					cr, err = opts.CellRunner(ctx, *g, cell)
					if err == nil && cr.Cell != cell {
						err = fmt.Errorf("cell runner returned result for %s", cr.Cell)
					}
					if err == nil {
						// The checkpoint identity is coordinator-derived;
						// a remote worker's id (equal under the fleet's
						// matched-config contract) is not trusted.
						c := *cr
						c.ID = id
						cr = &c
					}
				} else {
					cr, err = runCell(cell, spec, id, opts, systems, runners)
				}
				if err != nil {
					cellErrs[i] = fmt.Errorf("campaign: cell %s: %w", cell, err)
					continue
				}
				if err := saveCheckpoint(opts.CheckpointDir, id, checkpoint{Cell: cr}); err != nil {
					cellErrs[i] = fmt.Errorf("campaign: checkpointing %s: %w", id, err)
					continue
				}
				cellResults[i] = cr
				cellDur := time.Since(cellStart)
				opts.Metrics.CellsComputed.Inc()
				opts.Metrics.CellSeconds.Observe(cellDur.Seconds())
				mu.Lock()
				computed++
				done := cached + computed
				nComputed := computed
				mu.Unlock()
				// ETA from the mean computed-cell pace so far; checkpoint
				// hits are effectively free and excluded from the rate.
				eta := time.Since(gridStart) / time.Duration(nComputed) *
					time.Duration(len(cells)-done)
				logf("campaign: cell %s done in %.1fs (%d/%d cells, ETA %s)",
					cell, cellDur.Seconds(), done, len(cells), eta.Round(time.Second))
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range cellErrs {
		if err != nil {
			return nil, err
		}
	}
	res.Cells = cellResults
	res.Cached += cached
	res.Computed += computed

	render(res)
	return res, nil
}

// RunSingleCell measures exactly one grid cell — the worker half of the
// fleet scatter: a coordinator ships (grid, cell) over the wire, the worker
// computes the cell with its own clamps and returns the CellResult. It is a
// pure function of (grid, cell, Options clamps, Options.Sim), so any worker
// with matching configuration returns bit-identical floats to a local run;
// Options.Workers, checkpointing and CellRunner are ignored.
func RunSingleCell(ctx context.Context, g Grid, cell Cell, opts Options) (*CellResult, error) {
	if cell.Grid != g.Name {
		return nil, fmt.Errorf("campaign: cell %s does not belong to grid %q", cell, g.Name)
	}
	sp, err := topology.ParseSpec(cell.Topology)
	if err != nil {
		return nil, err
	}
	if sp.Family == "file" && !opts.AllowFileTopologies {
		return nil, fmt.Errorf("campaign: file topology %q not allowed here", cell.Topology)
	}
	if opts.Sim.Params.MessageFlits == 0 {
		opts.Sim = sim.DefaultConfig()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spec, err := cellSpecFor(&g, cell, opts)
	if err != nil {
		return nil, err
	}
	id := cellID("cell", cell.Grid+"-"+cell.Scenario, spec)
	return runCell(cell, spec, id, opts, workload.NewSystemCache(0, nil), workload.NewRunnerCache(0))
}

// cellSpecFor resolves the complete checkpoint identity of a cell,
// including the Options clamps (a clamp change must invalidate checkpoints).
// It fails when the clamp refuses the cell (a replayed trace over the cap).
func cellSpecFor(g *Grid, cell Cell, opts Options) (cellSpec, error) {
	trials := g.Trials
	if trials <= 0 {
		trials = 3
	}
	if opts.MaxTrials > 0 && trials > opts.MaxTrials {
		trials = opts.MaxTrials
	}
	params := g.Params
	// The grid's fault-profile axis is authoritative: cell.Fault overrides
	// (or clears) any profile smuggled in via Params, so the report's
	// faults column always matches what ran.
	params.FaultProfile = cell.Fault
	if cell.Fault != "" && params.FaultSeed == 0 {
		params.FaultSeed = cell.Seed ^ 0xfa17
	}
	// The same budget clamp as serve's /run, on the params the cell runs,
	// against the cell network's processor count.
	if sc, ok := workload.Lookup(cell.Scenario); ok {
		var err error
		if params, err = workload.ClampBudget(sc, params, cellProcs(cell.Topology), opts.MaxMessages); err != nil {
			return cellSpec{}, err
		}
	}
	return cellSpec{Cell: cell, Trials: trials, Warmup: g.WarmupMessages, Params: params}, nil
}

// cellProcs predicts the processor count of a cell's network from its spec,
// without a build. A file spec, whose size is known only after loading,
// predicts 0, as does a spec that does not parse (its cell fails when it
// builds); only the CLI runs file specs, and it sets no message cap.
func cellProcs(topo string) int {
	sp, _ := topology.ParseSpec(topo)
	return max(sp.Nodes()-sp.Switches(), 0)
}

// runCell measures one grid cell on the worker's reusable simulator for the
// cell's system.
func runCell(cell Cell, spec cellSpec, id string, opts Options,
	systems *workload.SystemCache, runners *workload.RunnerCache) (*CellResult, error) {

	// The routing-policy and root axes ride the grid Params (validated by
	// Manifest.Validate; RunSingleCell re-resolves them here so a fleet
	// worker builds the same system as a local pool).
	pol, budget, err := workload.RoutingPolicy(spec.Params)
	if err != nil {
		return nil, err
	}
	root, _, err := workload.RootStrategy(spec.Params)
	if err != nil {
		return nil, err
	}
	sp, err := topology.ParseSpec(cell.Topology)
	if err != nil {
		return nil, err
	}
	sys, err := systems.Get(workload.KeyFor(sp, cell.Seed, pol, root))
	if err != nil {
		return nil, err
	}
	cfg := opts.Sim
	cfg.MisrouteBudget = budget
	r, err := runners.Get(sys, cfg)
	if err != nil {
		return nil, err
	}
	sc, ok := workload.Lookup(cell.Scenario)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", cell.Scenario)
	}
	// A grid shares one Params across topologies of very different sizes;
	// clamp the fan-out knobs to what each network can express. The clamp
	// is a pure function of the cell, so determinism is unaffected.
	params := workload.ClampFanOut(spec.Params, sys.Net.NumProcs)
	w, err := workload.ApplyFaults(sc.New(params), params)
	if err != nil {
		return nil, err
	}
	warmup := spec.Warmup
	if warmup == 0 {
		warmup = workload.Budget(w, sys.Net.NumProcs) / 10
	}
	st, err := workload.Measure(r, w, workload.MeasureOpts{
		Trials:         spec.Trials,
		WarmupMessages: warmup,
		Seed:           cell.Seed,
	})
	if err != nil {
		return nil, err
	}
	counters := r.Counters()
	ts := topology.ComputeStats(sys.Net)
	ms := sys.Router.TableMemStats()
	return &CellResult{
		ID:         id,
		Cell:       cell,
		Switches:   ts.Switches,
		Processors: ts.Processors,
		Links:      ts.SwitchLinks,
		Diameter:   ts.SwitchGraphDiameter,
		Trials:     spec.Trials,
		Count:      st.Count(),
		MeanUs:     st.Mean(),
		CI95Us:     finiteOrZero(st.CI95()),
		MinUs:      st.Min(),
		MaxUs:      st.Max(),
		P50Us:      st.Quantile(0.50),
		P90Us:      st.Quantile(0.90),
		P99Us:      st.Quantile(0.99),

		TableMB:          float64(ms.TableBytes) / (1 << 20),
		TableCompression: ms.CompressionX,
		Counters:         counters,
	}, nil
}

// sanitizeSeries maps non-finite point values (the +Inf "CI unknown"
// sentinel, NaN means of empty points) to 0 so experiment results survive
// JSON checkpointing. It runs before rendering AND checkpointing, so a
// replayed report is bit-identical to a computed one.
func sanitizeSeries(series []experiment.Series) []experiment.Series {
	for si := range series {
		for pi := range series[si].Points {
			p := &series[si].Points[pi]
			p.X = finiteOrZero(p.X)
			p.Mean = finiteOrZero(p.Mean)
			p.CI95 = finiteOrZero(p.CI95)
		}
	}
	return series
}

// finiteOrZero maps the +Inf "CI unknown" sentinel to 0 so results survive
// JSON checkpointing.
func finiteOrZero(v float64) float64 {
	if v != v || v > 1e300 || v < -1e300 {
		return 0
	}
	return v
}

// sortedSVGNames returns the plot names in deterministic order.
func sortedSVGNames(svgs map[string]string) []string {
	out := make([]string, 0, len(svgs))
	for name := range svgs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
