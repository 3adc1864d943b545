package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/sim"
)

// campaignSetupRepeats is how many times the campaign run loads and
// validates its manifest; setup_s is the median.
const campaignSetupRepeats = 201

// loadManifest is campaign-paper's set-up: the benchmark's copy of the paper
// manifest round-trips through its JSON form the way a manifest file loads,
// then validates as the serving layer would.
func loadManifest() (*campaign.Manifest, error) {
	pm, err := paperManifest()
	if err != nil {
		return nil, err
	}
	blob, err := json.Marshal(pm)
	if err != nil {
		return nil, fmt.Errorf("encoding the manifest: %w", err)
	}
	m, err := campaign.Parse(blob)
	if err != nil {
		return nil, err
	}
	return m, m.Validate(false)
}

// setUpCampaign loads the manifest campaignSetupRepeats times and returns
// it with the per-load times. A process loads its manifest once, far below
// the first collection; back-to-back loads would instead time the
// collector's pacing, which split processes into a ~35 µs and a ~55 µs mode.
// So the collector pauses while the loads are timed.
func setUpCampaign() (*campaign.Manifest, []float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m *campaign.Manifest
	var times []float64
	for i := 0; i < campaignSetupRepeats; i++ {
		t0 := time.Now()
		var err error
		if m, err = loadManifest(); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return m, times, nil
}

func runCampaign(cfg benchConfig) (*result, error) {
	res := newResult()
	m, times, err := setUpCampaign()
	if err != nil {
		return nil, err
	}
	cells := manifestCells(m)
	faulty := 0
	for _, c := range cells {
		if c.Fault != "" {
			faulty++
		}
	}
	res.note("input: %d experiments, %d grid cells, fault-cell share %.3f (%d cells)",
		len(m.Experiments), len(cells), float64(faulty)/float64(max(1, len(cells))), faulty)
	if cfg.trace {
		return res, runCampaignTraced(cfg, m, res)
	}

	ctx := context.Background()
	opts := campaign.Options{Workers: cfg.nproc}
	var durs []float64
	var first *campaign.Result
	t0 := time.Now()
	for res.attempted == 0 || time.Since(t0) < cfg.dur {
		res.attempted++
		s := time.Now()
		r, err := campaign.Run(ctx, m, opts)
		d := time.Since(s).Seconds()
		if err != nil {
			res.fail("campaign run %d: %v", res.attempted, err)
			continue
		}
		durs = append(durs, d)
		if first == nil {
			first = r
			checkCampaign(m, r, &res.checker)
		} else if !sameCampaign(first, r) {
			res.fail("campaign run %d: report or plots differ from run 1", res.attempted)
		}
	}
	wall := time.Since(t0).Seconds()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if first != nil {
		res.note("digest: sha256 of the campaign report and plots = %s", campaignDigest(first))
	}
	res.set("setup_s", median(times), len(times))
	res.set("run_p50_ms", 1000*median(durs), len(durs))
	res.set("run_p90_ms", 1000*percentile(durs, 90), len(durs))
	res.set("run_rps", float64(len(durs))/wall, len(durs))
	res.set("campaign_s", median(durs), len(durs))
	res.set("live_heap_mib", mib(ms.HeapAlloc), 1)
	return res, nil
}

// checkCampaign checks a campaign result's shape: every experiment and cell
// present, every cell measured.
func checkCampaign(m *campaign.Manifest, r *campaign.Result, c *checker) {
	if len(r.Experiments) != len(m.Experiments) {
		c.fail("campaign: %d experiments in the result, %d in the manifest", len(r.Experiments), len(m.Experiments))
	}
	for _, e := range r.Experiments {
		if e.Table == nil {
			c.fail("campaign: experiment %s has no table", e.Driver)
		}
	}
	if n := len(manifestCells(m)); len(r.Cells) != n {
		c.fail("campaign: %d cells in the result, %d in the manifest", len(r.Cells), n)
	}
	for _, cell := range r.Cells {
		if cell == nil || cell.Count == 0 {
			c.fail("campaign: a grid cell measured no latencies")
		}
	}
	if r.Report == "" {
		c.fail("campaign: empty report")
	}
}

func sameCampaign(a, b *campaign.Result) bool {
	if a.Report != b.Report || len(a.SVGs) != len(b.SVGs) {
		return false
	}
	for name, svg := range a.SVGs {
		if b.SVGs[name] != svg {
			return false
		}
	}
	return true
}

// campaignDigest hashes the report and the plots in name order.
func campaignDigest(r *campaign.Result) string {
	h := sha256.New()
	h.Write([]byte(r.Report))
	for _, name := range slices.Sorted(maps.Keys(r.SVGs)) {
		h.Write([]byte(name))
		h.Write([]byte(r.SVGs[name]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runCampaignTraced alternates untraced and traced campaign.Run calls for
// half the run time (the overhead comparison), then replays the campaign's
// ladder: experiment.RunDriver per experiment, then campaign.RunSingleCell
// per grid cell on nproc goroutines like the campaign's pool.
func runCampaignTraced(cfg benchConfig, m *campaign.Manifest, res *result) error {
	tr := newTracer()
	ctx := context.Background()
	opts := campaign.Options{Workers: cfg.nproc}
	var plain, traced []float64
	var first *campaign.Result
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < 2 || time.Since(t0) < cfg.dur/2; i++ {
		res.attempted++
		id := 0
		if i%2 == 1 {
			id = tr.begin("campaign.run", 0, i)
		}
		s := time.Now()
		r, err := campaign.Run(ctx, m, opts)
		d := time.Since(s).Seconds()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("campaign run %d: %w", i, err)
		}
		if i%2 == 1 {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
		if first == nil {
			first = r
			checkCampaign(m, r, &res.checker)
		} else if !sameCampaign(first, r) {
			res.fail("campaign run %d: report or plots differ from run 1", i+1)
		}
	}
	runtime.ReadMemStats(&m1)
	runs := len(plain) + len(traced)
	overhead := 100 * (median(traced)/median(plain) - 1)
	res.set("trace.overhead_pct", overhead, len(traced))
	res.note("tracing overhead: campaign.Run %.3f s traced (%d runs) vs %.3f s untraced (%d): %+.2f%%",
		median(traced), len(traced), median(plain), len(plain), overhead)
	res.set("proc.alloc_mib_per_op", mib(m1.TotalAlloc-m0.TotalAlloc)/float64(runs), runs)
	res.set("proc.gc_cycles", float64(m1.NumGC-m0.NumGC), 1)
	wallS := median(append(plain, traced...))
	if len(first.Experiments) != len(m.Experiments) || len(first.Cells) != len(manifestCells(m)) {
		return fmt.Errorf("campaign result does not match its manifest; no ladder to compare")
	}

	root := tr.begin("campaign.ladder", 0, 0)
	var driversS float64
	for i, e := range m.Experiments {
		seed := e.Seed
		if seed == 0 {
			seed = m.Seed
		}
		res.attempted++
		id := tr.begin("experiment."+e.Driver, root, 0)
		s := time.Now()
		dr, err := experiment.RunDriver(e.Driver, experiment.DriverOpts{
			Trials: e.Trials, Messages: e.Messages, Workers: cfg.nproc, Seed: seed, Sim: sim.DefaultConfig(),
		})
		d := time.Since(s).Seconds()
		tr.end(id)
		if err != nil {
			return err
		}
		driversS += d
		res.set("experiment."+e.Driver+"_s", d, 1)
		if !sameJSON(dr.Table, first.Experiments[i].Table) {
			res.fail("experiment %s: RunDriver table differs from campaign.Run's", e.Driver)
		}
	}

	cells := manifestCells(m)
	cellS := make([]float64, len(cells))
	gid := tr.begin("campaign.grid", root, 0)
	gs := time.Now()
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, cfg.nproc)
	for w := 0; w < cfg.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(cells) {
					return
				}
				g := grid(m, cells[i].Grid)
				id := tr.begin("campaign.cell", gid, i)
				s := time.Now()
				cr, err := campaign.RunSingleCell(ctx, *g, cells[i], opts)
				cellS[i] = time.Since(s).Seconds()
				tr.end(id)
				if err != nil {
					errs[w] = err
					return
				}
				mu.Lock()
				if !sameJSON(cr, first.Cells[i]) {
					res.fail("cell %s: RunSingleCell differs from campaign.Run's cell", cells[i])
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	gridS := time.Since(gs).Seconds()
	tr.end(gid)
	tr.end(root)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	res.attempted += len(cells)

	clean, poisson := map[string]float64{}, map[string]float64{}
	for i, c := range cells {
		k := c.Grid + "|" + c.Topology + "|" + c.Scenario + fmt.Sprint(c.Seed)
		switch c.Fault {
		case "":
			clean[k] += cellS[i]
		case "poisson":
			poisson[k] += cellS[i]
		}
	}
	var cleanS, poissonS float64
	for k, v := range poisson {
		if c, ok := clean[k]; ok {
			cleanS += c
			poissonS += v
		}
	}
	busy := sum(cellS)
	// As on the serve ladder: when the replay ran longer than the campaign
	// it replays, its parts are scaled down to fit and the excess is
	// reported as overrun.
	overrun := max(0, driversS+gridS-wallS)
	if overrun > 0 {
		scale := wallS / (driversS + gridS)
		driversS, gridS = driversS*scale, gridS*scale
	}
	unattributed := wallS - driversS - gridS
	res.set("campaign.cell_ms", 1000*median(cellS), len(cellS))
	res.set("campaign.cells_busy_s", busy, len(cellS))
	res.set("campaign.fault_cell_ratio", poissonS/cleanS, len(poisson))
	res.set("campaign.unattributed_s", unattributed, 1)
	res.set("bench.fail_ratio", float64(res.failed)/float64(max(1, res.attempted)), res.attempted)
	res.set("proc.peak_rss_mib", peakRSSMiB(), 1)

	res.note("ladder: shares of campaign.Run wall-clock (median %.3f s over %d runs):", wallS, runs)
	row := func(name string, s float64) { res.note("  %-44s %8.3f s %6.1f%%", name, s, 100*s/wallS) }
	row("experiment drivers (RunDriver, in sequence)", driversS)
	row("grid cells (RunSingleCell on the pool)", gridS)
	row("remainder: system/runner caches, rendering", unattributed)
	res.note("  the replay overran campaign.Run by %.3f s; grid cells busy %.3f s over %d workers; fault cells cost %.2f× their clean twins",
		overrun, busy, cfg.nproc, poissonS/cleanS)

	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	spans := tr.snapshot()
	res.note("self time by span, Σ ms: %s", selfTimeLine(spans))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	res.note("spans: %d written to %s", len(spans), path)
	return nil
}

func grid(m *campaign.Manifest, name string) *campaign.Grid {
	for i := range m.Grids {
		if m.Grids[i].Name == name {
			return &m.Grids[i]
		}
	}
	return nil
}

func sameJSON(a, b any) bool {
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}
