// Command spambench is the repository benchmark. It runs one named workload
// against the code the way a user meets it — loopback-HTTP POST /run on an
// in-process serve.Service, or an in-process campaign.Run — checks every
// output, and prints the metrics by name with units and sample counts. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). See README.md for the workloads and the ladder.
//
// Usage, from the repository root:
//
//	bash spambench/run.sh --workload serve-paper --seed 1 --seconds 20 --trace 0
//	bash spambench/run.sh spread out1.txt out2.txt ...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "spread" {
		return spreadMain(args[1:], stdout)
	}
	fs := flag.NewFlagSet("spambench", flag.ContinueOnError)
	name := fs.String("workload", "", "serve-paper | serve-zoo | campaign-paper")
	seed := fs.Uint64("seed", 1, "workload seed: every request derives from it")
	seconds := fs.Float64("seconds", 20, "measurement time of the run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := benchConfig{
		workload: *name,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		nproc:    runtime.NumCPU(),
	}
	var res *result
	var err error
	switch cfg.workload {
	case "serve-paper", "serve-zoo":
		res, err = runServe(cfg)
	case "campaign-paper":
		res, err = runCampaign(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (serve-paper | serve-zoo | campaign-paper)", cfg.workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spambench: %v\n", err)
		return 1
	}
	if report(cfg, res, stdout) {
		return 0
	}
	return 1
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the notes, every metric of the run's kind with its unit
// and sample count, the check outcome, and the result line. It returns
// whether the run is correct.
func report(cfg benchConfig, res *result, w io.Writer) bool {
	defs := endToEnd
	mode := "untraced"
	if cfg.trace {
		defs, mode = perLayer, "traced"
	}
	fmt.Fprintf(w, "spambench %s, seed %d, %s run, %v, %d clients / pool %d\n",
		cfg.workload, cfg.seed, mode, cfg.dur, cfg.nproc, cfg.nproc)
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	if !cfg.trace {
		fmt.Fprintf(w, "fail_ratio = %d/%d = %.4f\n", res.failed, res.attempted, float64(res.failed)/float64(max(1, res.attempted)))
	}
	line := resultLine{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok && cfg.trace {
			v, ok = 0, true // a layer this workload does not exercise
		}
		switch {
		case !ok:
			res.fail("metric %s was not measured", d.Name)
			v = 0
		case !finite(v):
			res.fail("metric %s is not finite (%v)", d.Name, v)
			v = 0
		}
		n := ""
		if s, ok := res.samples[d.Name]; ok {
			n = fmt.Sprintf(" (n=%d)", s)
		}
		fmt.Fprintf(w, "metric %-28s = %14.6f %s%s\n", d.Name, v, d.Unit, n)
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line.Failed = res.failed
	line.Correct = res.failed == 0 && res.attempted > 0
	for _, p := range res.problems {
		fmt.Fprintln(w, "check failed:", p)
	}
	if line.Correct {
		fmt.Fprintf(w, "check: all %d operations passed the output check\n", res.attempted)
	}
	blob, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spambench: encoding the result: %v\n", err)
		return false
	}
	fmt.Fprintln(w, string(blob))
	return line.Correct
}

// spreadMain summarizes repeated runs: for each metric in the result lines
// (the last line of each file), the median, quartiles and IQR share, next to
// the metric's bound from BENCHMARK.json when that file is readable.
func spreadMain(files []string, w io.Writer) int {
	bounds := map[string]float64{}
	if blob, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bj struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if json.Unmarshal(blob, &bj) == nil {
			for _, m := range bj.EndToEnd {
				bounds[m.Name] = m.Bound
			}
		}
	}
	values := map[string][]float64{}
	for _, f := range files {
		line, err := lastResultLine(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spread: %s: %v\n", f, err)
			return 1
		}
		for name, mv := range line.Metrics {
			values[name] = append(values[name], mv.Value)
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %3s %14s %14s %14s %8s %8s\n", "metric", "n", "q1", "median", "q3", "iqr/med", "bound")
	for _, n := range names {
		xs := values[n]
		q1, q2, q3 := quartiles(xs)
		b := ""
		if v, ok := bounds[n]; ok {
			b = fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintf(w, "%-28s %3d %14.6f %14.6f %14.6f %8.4f %8s\n", n, len(xs), q1, q2, q3, iqrShare(xs), b)
	}
	return 0
}

// lastResultLine parses the result line of one run's saved output.
func lastResultLine(path string) (*resultLine, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &line, nil
}
