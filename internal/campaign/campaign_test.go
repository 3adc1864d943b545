package campaign

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/topology"
	"repro/internal/workload"
)

// testManifest is a seconds-scale manifest exercising both unit kinds.
func testManifest() *Manifest {
	return &Manifest{
		Name: "test",
		Seed: 11,
		Experiments: []Experiment{
			{Driver: "hotspot", Trials: 2},
		},
		Grids: []Grid{{
			Name:       "zoo",
			Topologies: []string{"fattree:2x3", "torus:4x4"},
			Scenarios:  []string{"mixed"},
			Trials:     1,
			Params:     workload.Params{Messages: 120},
		}},
	}
}

func TestRunSmokeManifest(t *testing.T) {
	m, ok := Builtin("smoke")
	if !ok {
		t.Fatal("no smoke manifest")
	}
	res, err := Run(context.Background(), m, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Experiments) != len(m.Experiments) || len(res.Cells) != 2 {
		t.Fatalf("got %d experiments, %d cells", len(res.Experiments), len(res.Cells))
	}
	if res.Cached != 0 || res.Computed != len(res.Experiments)+len(res.Cells) {
		t.Errorf("computed=%d cached=%d", res.Computed, res.Cached)
	}
	for _, want := range []string{"# Campaign smoke", "## Topology zoo", "`fattree:2x3`", "## Grid: zoo-smoke", "plots/"} {
		if !strings.Contains(res.Report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(res.SVGs) == 0 {
		t.Error("no SVGs rendered")
	}
	for name, svg := range res.SVGs {
		if !strings.Contains(svg, "</svg>") {
			t.Errorf("SVG %s unterminated", name)
		}
		if !strings.Contains(res.Report, "("+name+")") {
			t.Errorf("report does not reference %s", name)
		}
	}
}

// TestRunDeterministic pins the bit-identical-replay guarantee: same
// manifest, same Options clamps, different worker counts — identical report
// and SVG bytes.
func TestRunDeterministic(t *testing.T) {
	a, err := Run(context.Background(), testManifest(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), testManifest(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Report != b.Report {
		t.Error("reports differ across worker counts")
	}
	if !reflect.DeepEqual(a.SVGs, b.SVGs) {
		t.Error("SVGs differ across worker counts")
	}
	if !reflect.DeepEqual(a.Cells, b.Cells) {
		t.Error("cell results differ across worker counts")
	}
}

// TestCheckpointResume pins the resume semantics: a re-run over an intact
// checkpoint dir recomputes nothing; deleting one cell's checkpoint
// recomputes exactly that cell; outputs are bit-identical throughout.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 2, CheckpointDir: dir}

	first, err := Run(context.Background(), testManifest(), opts)
	if err != nil {
		t.Fatal(err)
	}
	units := len(first.Experiments) + len(first.Cells)
	if first.Computed != units || first.Cached != 0 {
		t.Fatalf("first run: computed=%d cached=%d want %d/0", first.Computed, first.Cached, units)
	}

	second, err := Run(context.Background(), testManifest(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Computed != 0 || second.Cached != units {
		t.Errorf("second run: computed=%d cached=%d want 0/%d", second.Computed, second.Cached, units)
	}
	if second.Report != first.Report || !reflect.DeepEqual(second.SVGs, first.SVGs) {
		t.Error("cached replay is not bit-identical")
	}

	// Simulate an interrupted run: one cell's checkpoint is missing.
	var victim string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "cell-") {
			victim = e.Name()
			break
		}
	}
	if victim == "" {
		t.Fatal("no cell checkpoint written")
	}
	if err := os.Remove(filepath.Join(dir, victim)); err != nil {
		t.Fatal(err)
	}
	third, err := Run(context.Background(), testManifest(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if third.Computed != 1 || third.Cached != units-1 {
		t.Errorf("resume: computed=%d cached=%d want 1/%d", third.Computed, third.Cached, units-1)
	}
	if third.Report != first.Report {
		t.Error("resumed run is not bit-identical")
	}
	if _, err := os.Stat(filepath.Join(dir, victim)); err != nil {
		t.Error("recomputed cell not re-checkpointed")
	}
}

// TestCheckpointInvalidation: changing a knob that shapes the measurement
// must miss the old checkpoints.
func TestCheckpointInvalidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), testManifest(), Options{Workers: 2, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	m := testManifest()
	m.Grids[0].Params.Messages = 150
	res, err := Run(context.Background(), m, Options{Workers: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Cells); res.Computed != got {
		t.Errorf("changed grid params: computed=%d want %d cells recomputed", res.Computed, got)
	}
}

// TestSanitizeSeries: non-finite driver outputs (the +Inf "CI unknown"
// sentinel) must be mapped out before checkpointing, or JSON marshaling of
// the checkpoint fails mid-campaign.
func TestSanitizeSeries(t *testing.T) {
	inf := math.Inf(1)
	s := sanitizeSeries([]experiment.Series{{
		Label:  "x",
		Points: []experiment.Point{{X: 1, Mean: inf, CI95: inf}, {X: 2, Mean: math.NaN(), CI95: 0.5}},
	}})
	blob, err := json.Marshal(checkpoint{Experiment: &ExperimentResult{Series: s}})
	if err != nil {
		t.Fatalf("sanitized series still unmarshalable: %v", err)
	}
	if !strings.Contains(string(blob), `"Mean":0`) {
		t.Error("Inf/NaN not mapped to 0")
	}
	if s[0].Points[1].CI95 != 0.5 {
		t.Error("finite values must pass through")
	}
}

// TestCurvesSkipSamplelessPoints: a point without samples has no mean, so
// the plot leaves it out, as the table prints "-" for it.
func TestCurvesSkipSamplelessPoints(t *testing.T) {
	c := toCurves([]experiment.Series{{
		Label:  "x",
		Points: []experiment.Point{{X: 0}, {X: 1, Mean: 5, CI95: 0.5, N: 3}},
	}})
	if len(c[0].Points) != 1 || c[0].Points[0].X != 1 {
		t.Fatalf("curve points %+v, want only x=1", c[0].Points)
	}
}

// TestMarkdownTableShortRows: the report's table writer pads a row shorter
// than the header, and an empty cell, with "-".
func TestMarkdownTableShortRows(t *testing.T) {
	var sb strings.Builder
	writeMarkdownTable(&sb, &experiment.Table{
		Headers: []string{"x", "y", "z"},
		Rows:    [][]string{{"only"}, {"1", "", "3"}},
	})
	for _, want := range []string{"| x | y | z |\n| --- | --- | --- |\n", "| only | - | - |\n", "| 1 | - | 3 |\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, sb.String())
		}
	}
}

// TestCellSpecClamps: the MaxMessages admission cap is a ceiling, never a
// default — an omitted budget falls to the scenario default; only budgets
// above the cap clamp. The grid's fault axis is authoritative over any
// profile smuggled through Params.
func TestCellSpecClamps(t *testing.T) {
	g := &Grid{Name: "g", Scenarios: []string{"mixed"}}
	cell := Cell{Grid: "g", Scenario: "mixed", Seed: 3}

	spec := cellSpecFor(g, cell, Options{MaxMessages: 20000})
	if spec.Params.Messages != 0 {
		t.Errorf("omitted budget became %d; cap must not act as default", spec.Params.Messages)
	}
	g.Params.Messages = 50000
	if spec = cellSpecFor(g, cell, Options{MaxMessages: 20000}); spec.Params.Messages != 20000 {
		t.Errorf("oversize budget not clamped: %d", spec.Params.Messages)
	}
	g.Params.Messages = 500
	if spec = cellSpecFor(g, cell, Options{MaxMessages: 20000}); spec.Params.Messages != 500 {
		t.Errorf("in-cap budget rewritten to %d", spec.Params.Messages)
	}

	g.Params.FaultProfile = "poisson"
	if spec = cellSpecFor(g, cell, Options{}); spec.Params.FaultProfile != "" {
		t.Error("fault-free cell kept a smuggled profile")
	}
	// When the axis is empty, cells() carries the Params profile into the
	// cell coordinate, so it both validates and labels correctly.
	m := &Manifest{Name: "m", Seed: 1, Grids: []Grid{{
		Name: "g", Topologies: []string{"torus:4x4"}, Scenarios: []string{"mixed"},
		Params: workload.Params{FaultProfile: "poisson"},
	}}}
	cs := m.cells()
	if len(cs) != 1 || cs[0].Fault != "poisson" {
		t.Errorf("params-level profile not promoted to cell coordinate: %+v", cs)
	}
	m.Grids[0].Params.FaultScript = "x"
	if err := m.Validate(false); err == nil {
		t.Error("malformed params-level fault script escaped validation")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(m *Manifest)
	}{
		{"no name", func(m *Manifest) { m.Name = "" }},
		{"empty", func(m *Manifest) { m.Experiments = nil; m.Grids = nil }},
		{"bad driver", func(m *Manifest) { m.Experiments[0].Driver = "fig99" }},
		{"bad topology", func(m *Manifest) { m.Grids[0].Topologies = []string{"ring:9"} }},
		{"bad scenario", func(m *Manifest) { m.Grids[0].Scenarios = []string{"nope"} }},
		{"bad fault profile", func(m *Manifest) { m.Grids[0].FaultProfiles = []string{"gremlins"} }},
		{"file topology disallowed", func(m *Manifest) { m.Grids[0].Topologies = []string{"file:/etc/passwd"} }},
		{"dup grid", func(m *Manifest) { m.Grids = append(m.Grids, m.Grids[0]) }},
	}
	for _, c := range cases {
		m := testManifest()
		c.mut(m)
		if err := m.Validate(false); err == nil {
			t.Errorf("%s: want validation error", c.name)
		}
	}
	if err := testManifest().Validate(false); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","sede":1}`)); err == nil {
		t.Error("typo field accepted")
	}
	m, err := Parse([]byte(`{"name":"x","seed":3,"grids":[{"name":"g","topologies":["torus:4x4"],"scenarios":["mixed"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Seed != 3 || len(m.Grids) != 1 {
		t.Error("parse dropped fields")
	}
}

func TestMaxCellsClamp(t *testing.T) {
	m := testManifest()
	if _, err := Run(context.Background(), m, Options{MaxCells: 1}); err == nil {
		t.Error("MaxCells not enforced")
	}
}

func TestBuiltinPaperCoversEveryDriver(t *testing.T) {
	m, ok := Builtin("paper")
	if !ok {
		t.Fatal("no paper manifest")
	}
	if err := m.Validate(false); err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, e := range m.Experiments {
		have[e.Driver] = true
	}
	for _, d := range driverNames() {
		if !have[d] {
			t.Errorf("paper manifest misses driver %s", d)
		}
	}
	zoo := map[string]bool{}
	for _, tspec := range m.Grids[0].Topologies {
		fam := strings.SplitN(tspec, ":", 2)[0]
		zoo[fam] = true
	}
	for _, fam := range []string{"lattice", "gnm", "mesh", "torus", "hypercube", "fattree"} {
		if !zoo[fam] {
			t.Errorf("paper zoo misses family %s", fam)
		}
	}
}

// TestMangledCheckpointRecomputes: a crash can leave a checkpoint file
// truncated or corrupt. Resume must treat any unreadable cell as "never
// computed" — recompute it (bit-identically) instead of failing the whole
// campaign, and replace the damaged file.
func TestMangledCheckpointRecomputes(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 2, CheckpointDir: dir}
	first, err := Run(context.Background(), testManifest(), opts)
	if err != nil {
		t.Fatal(err)
	}
	units := len(first.Experiments) + len(first.Cells)

	var cellFiles []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "cell-") {
			cellFiles = append(cellFiles, e.Name())
		}
	}
	if len(cellFiles) < 2 {
		t.Fatalf("need 2 cell checkpoints, have %d", len(cellFiles))
	}

	mangle := []struct {
		name string
		do   func(path string) error
	}{
		{"truncated", func(path string) error {
			blob, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, blob[:len(blob)/2], 0o644)
		}},
		{"garbage", func(path string) error {
			return os.WriteFile(path, []byte("not json at all\x00\x7f"), 0o644)
		}},
		{"empty", func(path string) error {
			return os.WriteFile(path, nil, 0o644)
		}},
		{"wrong-id", func(path string) error {
			// Valid JSON, valid version — but it is another cell's
			// checkpoint copied over this one. The embedded id mismatch
			// must reject it, or the campaign would report one cell's
			// numbers under another cell's coordinates.
			other, err := os.ReadFile(filepath.Join(dir, cellFiles[1]))
			if err != nil {
				return err
			}
			return os.WriteFile(path, other, 0o644)
		}},
	}
	for _, mg := range mangle {
		t.Run(mg.name, func(t *testing.T) {
			victim := filepath.Join(dir, cellFiles[0])
			if err := mg.do(victim); err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), testManifest(), opts)
			if err != nil {
				t.Fatalf("campaign failed on a mangled checkpoint: %v", err)
			}
			if res.Computed != 1 || res.Cached != units-1 {
				t.Errorf("computed=%d cached=%d, want 1/%d", res.Computed, res.Cached, units-1)
			}
			if res.Report != first.Report {
				t.Error("recovered run is not bit-identical")
			}
		})
	}
}

// TestRunSingleCellMatchesEngine: the fleet worker entry point must return
// exactly what the engine's local pool computes for the same cell.
func TestRunSingleCellMatchesEngine(t *testing.T) {
	m := testManifest()
	m.Experiments = nil
	opts := Options{Workers: 2}
	res, err := Run(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range res.Cells {
		got, err := RunSingleCell(context.Background(), m.Grids[0], want.Cell, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("single-cell run diverged:\n got %+v\nwant %+v", got, want)
		}
	}
	// Guard rails: foreign grid, file topology.
	if _, err := RunSingleCell(context.Background(), Grid{Name: "other"}, res.Cells[0].Cell, opts); err == nil {
		t.Fatal("cell from a different grid accepted")
	}
	fileCell := Cell{Grid: "zoo", Topology: "file:/etc/passwd", Scenario: "mixed"}
	if _, err := RunSingleCell(context.Background(), m.Grids[0], fileCell, opts); err == nil {
		t.Fatal("file topology accepted without AllowFileTopologies")
	}
}

// TestBuiltinCollectivesManifest validates the collective-communication
// sweep: every cell must pass registry/topology validation and the
// expansion must stay within the shared admission cap.
func TestBuiltinCollectivesManifest(t *testing.T) {
	m, ok := Builtin("collectives")
	if !ok {
		t.Fatal("no collectives manifest")
	}
	if err := m.Validate(false); err != nil {
		t.Fatal(err)
	}
	if got := m.NumCells(); got != 24 {
		t.Errorf("collectives manifest: %d cells, want 24", got)
	}
	for _, name := range BuiltinNames() {
		if name == "collectives" {
			return
		}
	}
	t.Error("collectives missing from BuiltinNames")
}

// TestBuiltinScaleManifest validates the large-network manifest without
// running it (its cells compile 16k- and 62500-switch fat-trees): every
// builtin must validate, and the headline 62500-switch cell must sit inside
// the shared switch cap. (Serve's build-peak bound still refuses that cell;
// spamsim runs it.)
func TestBuiltinScaleManifest(t *testing.T) {
	m, ok := Builtin("scale")
	if !ok {
		t.Fatal("no scale manifest")
	}
	if err := m.Validate(false); err != nil {
		t.Fatal(err)
	}
	if got := m.NumCells(); got != 3 {
		t.Errorf("scale manifest: %d cells, want 3", got)
	}
	maxSwitches := 0
	for _, tspec := range m.Grids[0].Topologies {
		sp, err := topology.ParseSpec(tspec)
		if err != nil {
			t.Fatal(err)
		}
		if n := sp.Switches(); n > maxSwitches {
			maxSwitches = n
		}
	}
	if maxSwitches <= 16384 {
		t.Errorf("scale manifest tops out at %d switches; want a past-16k headline cell", maxSwitches)
	}
	if maxSwitches > topology.MaxAdmittedSwitches {
		t.Errorf("scale manifest cell (%d switches) exceeds the admission cap %d",
			maxSwitches, topology.MaxAdmittedSwitches)
	}
}
