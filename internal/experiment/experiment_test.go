package experiment

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The tests run the drivers at their fixed network sizes and a small
// effort; the CLI and the campaigns run the full effort.

// smallSim is the configuration `spamsim -flits 32` runs: 32-flit messages
// keep the single-shot drivers fast.
func smallSim() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Params.MessageFlits = 32
	return cfg
}

// run executes a driver on o with RunDriver's defaults applied.
func run(t *testing.T, driver func(DriverOpts) (*DriverResult, error), o DriverOpts) *DriverResult {
	t.Helper()
	res, err := driver(o.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// text returns the table cell of the given row in the column headed
// header, failing the test unless exactly one column carries that header,
// so a change of column layout cannot make a test read the wrong column.
func text(t *testing.T, tbl *Table, row int, header string) string {
	t.Helper()
	col := -1
	for i, h := range tbl.Headers {
		if h == header {
			if col >= 0 {
				t.Fatalf("%s: two %q columns", tbl.Title, header)
			}
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("%s: no %q column in %q", tbl.Title, header, tbl.Headers)
	}
	return tbl.Rows[row][col]
}

// cell parses the numeric table cell of the given row under header (a
// trailing "x" is dropped).
func cell(t *testing.T, tbl *Table, row int, header string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(text(t, tbl, row, header), "x"), 64)
	if err != nil {
		t.Fatalf("%s row %d column %q: %v", tbl.Title, row, header, err)
	}
	return v
}

func TestRunFig2Small(t *testing.T) {
	const trials = 3
	res := run(t, fig2, DriverOpts{Trials: trials, Seed: 42, Sim: smallSim()})
	if len(res.Series) != len(fig2Nodes) {
		t.Fatalf("%d series", len(res.Series))
	}
	for i, s := range res.Series {
		// destSweep ends at a broadcast to every other processor.
		nodes := fig2Nodes[i]
		if len(s.Points) != len(destSweep(nodes)) || s.Points[len(s.Points)-1].X != float64(nodes-1) {
			t.Fatalf("series %q points %+v, want destSweep(%d) ending at %d", s.Label, s.Points, nodes, nodes-1)
		}
		for _, p := range s.Points {
			// Latency exceeds the 10 µs startup and stays near it at zero
			// load (paper: 11-14 µs at 128 flits; here 32 flits).
			if p.Mean < 10 || p.Mean > 15 {
				t.Fatalf("series %q point %v has implausible latency %.2f us", s.Label, p.X, p.Mean)
			}
			if p.N != trials {
				t.Fatalf("point has %d samples want %d", p.N, trials)
			}
		}
	}
}

func TestFig2LatencyFlatInDestinations(t *testing.T) {
	// The paper's headline: latency is essentially independent of the
	// number of destinations, at the paper's 128-flit messages.
	res := run(t, fig2, DriverOpts{Trials: 4, Seed: 7})
	for _, s := range res.Series {
		lo, hi := math.Inf(1), 0.0
		for _, p := range s.Points {
			lo, hi = min(lo, p.Mean), max(hi, p.Mean)
		}
		if hi/lo > 1.35 {
			t.Fatalf("%s latency not flat: min %.2f max %.2f us", s.Label, lo, hi)
		}
	}
}

func TestRunFig3Small(t *testing.T) {
	res := run(t, fig3, DriverOpts{Messages: 60, Seed: 9, Sim: smallSim()})
	if len(res.Series) != len(fig3Dests) {
		t.Fatalf("%d series", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != len(fig3Rates) {
			t.Fatalf("series %q has %d points", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Mean < 10 {
				t.Fatalf("mean %.2f below startup", p.Mean)
			}
			if p.N == 0 {
				t.Fatal("no measured messages")
			}
		}
	}
}

func TestFig3LatencyGrowsWithRate(t *testing.T) {
	res := run(t, fig3, DriverOpts{Messages: 200, Seed: 13, Sim: smallSim()})
	for _, s := range res.Series {
		lo, hi := s.Points[0], s.Points[len(s.Points)-1]
		if hi.Mean <= lo.Mean {
			t.Fatalf("%s latency did not grow with rate: %.2f -> %.2f", s.Label, lo.Mean, hi.Mean)
		}
	}
}

func TestRunFig3BatchMeansKickIn(t *testing.T) {
	res := run(t, fig3, DriverOpts{Messages: 120, Seed: 6, Sim: smallSim()})
	// 108 measured messages -> streaming batch means with size doubling:
	// the CI sample count lands in [10, 20), well below the observation
	// count, proving the batch CI (not the raw stream) backs the point.
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.N < 10 || p.N >= 20 {
				t.Fatalf("%s at rate %v: N=%d want [10,20) batch means", s.Label, p.X, p.N)
			}
		}
	}
}

func TestRunComparisonSmall(t *testing.T) {
	tbl := run(t, comparison, DriverOpts{Trials: 2, Seed: 3, Sim: smallSim()}).Table
	if len(tbl.Rows) != 4*len(comparisonNodes) { // SPAM + 3 baselines per size
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	var spam float64
	for i, row := range tbl.Rows {
		mean, bound := cell(t, tbl, i, "mean(us)"), text(t, tbl, i, "bound(us)")
		if mean <= 0 {
			t.Fatalf("row %v non-positive", row)
		}
		switch scheme := text(t, tbl, i, "scheme"); scheme {
		case "SPAM":
			spam = mean
			if bound != "-" {
				t.Fatalf("SPAM row carries a software bound: %v", row)
			}
		default:
			if bound == "-" {
				t.Fatalf("no analytic bound on software row %v", row)
			}
			if scheme == "unicast-binomial" && spam >= mean {
				t.Fatalf("SPAM %.2f not faster than binomial %v", spam, row)
			}
		}
	}
	if !strings.Contains(tbl.CSV(), "scheme") {
		t.Fatal("CSV missing header")
	}
}

func TestBufferAblationSmall(t *testing.T) {
	res := run(t, bufferAblation, DriverOpts{Trials: 2, Seed: 77, Sim: smallSim()})
	if len(res.Series) != 1 || len(res.Series[0].Points) != len(bufferSizes) {
		t.Fatalf("series %+v", res.Series)
	}
	for _, p := range res.Series[0].Points {
		if p.Mean <= 0 {
			t.Fatal("non-positive ablation latency")
		}
	}
}

func TestRootAblationSmall(t *testing.T) {
	tbl := run(t, rootAblation, DriverOpts{Trials: 2, Seed: 78, Sim: smallSim()}).Table
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	depth := map[string]float64{}
	for i, row := range tbl.Rows {
		if cell(t, tbl, i, "tree depth") <= 0 || cell(t, tbl, i, "broadcast mean(us)") <= 0 {
			t.Fatalf("row %v", row)
		}
		depth[text(t, tbl, i, "root strategy")] = cell(t, tbl, i, "tree depth")
	}
	// A center root can never be deeper than the min-ID root's tree.
	if depth["center"] > depth["min-id"] {
		t.Fatalf("center root deeper than min-id:\n%s", tbl.Format())
	}
}

func TestPartitionAblationSmall(t *testing.T) {
	tbl := run(t, partitionAblation, DriverOpts{Trials: 2, Seed: 79, Sim: smallSim()}).Table
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	if text(t, tbl, 0, "strategy") != "none" || cell(t, tbl, 0, "groups/mcast") != 1 {
		t.Fatalf("strategy none does not send one group:\n%s", tbl.Format())
	}
	for i := range tbl.Rows[1:] {
		if cell(t, tbl, i+1, "groups/mcast") < 1 {
			t.Fatalf("row %v", tbl.Rows[i+1])
		}
	}
}

func TestSeriesTableAndCSV(t *testing.T) {
	series := []Series{
		{Label: "a", Points: []Point{{X: 1, Mean: 10, CI95: 0.1, N: 5}, {X: 2, Mean: 11, CI95: 0.2, N: 5}}},
		{Label: "b", Points: []Point{{X: 1, Mean: 12, CI95: 0.3, N: 5}}},
		{Label: "c", Points: []Point{{X: 1, Mean: 7, CI95: 0.4, N: 1}, {X: 2}}},
	}
	tbl := SeriesTable("test", "x", series)
	out := tbl.Format()
	for _, want := range []string{"a mean(us)", "b mean(us)", "10.000", "12.000", "7.000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	// A missing point, a CI from one sample and a mean from none print "-".
	for _, c := range []struct {
		row    int
		header string
	}{{1, "b mean(us)"}, {0, "c ci95(us)"}, {1, "c mean(us)"}, {1, "c ci95(us)"}} {
		if got := text(t, tbl, c.row, c.header); got != "-" {
			t.Fatalf("row %d %q = %q, want -:\n%s", c.row, c.header, got, out)
		}
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, "x,a mean(us)") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
}

func TestPlotRendersSeries(t *testing.T) {
	series := []Series{{Label: "demo", Points: []Point{{X: 1, Mean: 10, N: 1}, {X: 2, Mean: 20, N: 1}}}}
	out := Plot("title", series)
	if !strings.Contains(out, "title") || !strings.Contains(out, "demo") {
		t.Fatalf("plot output wrong:\n%s", out)
	}
	// A point without samples has no mean to draw.
	if out := Plot("title", []Series{{Label: "empty", Points: []Point{{X: 1}}}}); !strings.Contains(out, "(no data)") {
		t.Fatalf("sample-less point drawn:\n%s", out)
	}
}

// TestDriverTablesFiniteWithUnits runs every registered driver at one trial
// per point: a CI from fewer than two samples prints "-", never a +Inf or
// NaN cell, and a column carries "(us)" only when its values are latencies.
func TestDriverTablesFiniteWithUnits(t *testing.T) {
	for _, name := range Drivers() {
		res, err := RunDriver(name, DriverOpts{Trials: 1, Messages: 60, Seed: 3, Sim: smallSim()})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Table.Rows {
			for _, c := range row {
				if strings.Contains(c, "Inf") || strings.Contains(c, "NaN") {
					t.Fatalf("%s: cell %q in row %v", name, c, row)
				}
			}
		}
		for _, h := range res.Table.Headers {
			nonLatency := name == "hotspot" || name == "throughput" || (name == "faults" && !strings.HasPrefix(h, "latency-"))
			if nonLatency && strings.Contains(h, "(us)") {
				t.Fatalf("%s: header %q labels a non-latency column in µs", name, h)
			}
		}
	}
}
