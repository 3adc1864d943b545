// Command spamsim regenerates the paper's figures and the future-work
// ablations at full scale, printing aligned tables (or CSV) to stdout, runs
// ad-hoc scenarios from the workload registry on reusable sessions, and
// executes whole reproduction campaigns from declarative manifests.
//
// Usage:
//
//	spamsim -experiment fig2 [-trials 50]
//	spamsim -experiment fig3 [-messages 2000]
//	spamsim -experiment all
//	spamsim -list-scenarios
//	spamsim -scenario hotspot -rate 0.02 [-nodes 128] [-trials 5]
//	spamsim -scenario mixed -topo torus:8x8
//	spamsim -scenario allreduce-ring -topo torus:8x8 -trace-out ring.trace
//	spamsim -trace-in ring.trace -topo torus:8x8
//	spamsim -campaign paper [-out campaign-out]
//	spamsim -campaign my-manifest.json
//
// -trace-out records the submission stream of the run's last trial to a
// byte-stable trace file; -trace-in replays a trace file bit-identically
// on a network with the same processor count (see internal/workload's
// trace format).
//
// A campaign writes REPORT.md plus SVG plots under -out and checkpoints
// every completed cell in <out>/cells: re-running the same manifest skips
// completed cells and reproduces the artifacts byte for byte; an
// interrupted run resumes where it stopped.
//
// Every experiment, scenario and campaign is deterministic for a given
// seed (-seed for experiments/scenarios; the manifest's seed for
// campaigns).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	var (
		exp      = flag.String("experiment", "all", "experiment driver name or 'all' (see internal/experiment registry: fig2, fig3, compare, ...)")
		plot     = flag.Bool("plot", false, "also render figures as ASCII charts")
		trials   = flag.Int("trials", 20, "samples per data point (fig2, compare, ablations) / scenario replications")
		messages = flag.Int("messages", 1500, "messages per data point (fig3) or per scenario trial")
		seed     = flag.Uint64("seed", 1998, "base random seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		bufFlits = flag.Int("inputbuf", 1, "input buffer size in flits")
		flits    = flag.Int("flits", 128, "message length in flits")
		workers  = flag.Int("workers", 0, "parallel replications (0 = GOMAXPROCS)")

		campaignArg = flag.String("campaign", "", "run a campaign manifest: built-in name (paper | collectives | routing | smoke | scale) or path to a JSON manifest")
		outDir      = flag.String("out", "campaign-out", "campaign output directory (REPORT.md, plots/, cells/ checkpoints)")

		scenario  = flag.String("scenario", "", "run a named workload scenario instead of an experiment (see -list-scenarios)")
		listScen  = flag.Bool("list-scenarios", false, "list the registered workload scenarios and exit")
		nodes     = flag.Int("nodes", 128, "scenario network size in switches (ignored when -topo is set)")
		topoSpec  = flag.String("topo", "", `scenario topology spec, e.g. "torus:8x8", "fattree:4x3", "file:net.adj" (default: lattice:<nodes>)`)
		rate      = flag.Float64("rate", 0, "scenario arrival rate (msg/us/processor; 0 = scenario default)")
		mcastFrac = flag.Float64("mcast-frac", 0, "scenario multicast fraction (0 = scenario default)")
		dests     = flag.Int("dests", 0, "scenario multicast destination count (0 = scenario default)")
		window    = flag.Int("window", 0, "closed-loop outstanding window per processor")
		sources   = flag.Int("sources", 0, "broadcast-storm source count")
		hotFrac   = flag.Float64("hot-frac", 0, "hotspot traffic concentration (0 = scenario default)")
		rounds    = flag.Int("rounds", 0, "permutation round count")
		stages    = flag.Int("stages", 0, "pipeline stage count (0 = scenario default)")
		fanout    = flag.Int("fanout", 0, "tree all-reduce arity (0 = scenario default)")
		warmup    = flag.Int("warmup", -1, "scenario warmup messages excluded from measurement (-1 = messages/10)")
		routing   = flag.String("routing", "", "routing policy: baseline (default) | misroute | duato (misroute with an unbounded budget)")
		misBudget = flag.Int("misroute-budget", 0, "per-worm deroute budget (routing=misroute only)")
		rootStrat = flag.String("root", "", "spanning-tree root strategy: min-id (default) | max-degree | center")
		traceOut  = flag.String("trace-out", "", "record the last trial's submission stream to this trace file")
		traceIn   = flag.String("trace-in", "", "replay a recorded trace file (implies -scenario replay)")

		faultScript  = flag.String("faults", "", `fault timeline DSL, e.g. "50us down 3-7; 90us up 3-7; 120us switch-down 4"`)
		faultProfile = flag.String("fault-profile", "", "generated fault profile: poisson | maintenance | regional")
		faultSeed    = flag.Uint64("fault-seed", 0, "fault generator seed")
		faultMTBF    = flag.Float64("fault-mtbf", 0, "per-link mean time between failures (us, poisson; 0 = default)")
		faultMTTR    = flag.Float64("fault-mttr", 0, "per-link mean time to repair (us, poisson; 0 = default)")
		faultHorizon = flag.Float64("fault-horizon", 0, "generated-timeline horizon (us; 0 = default)")
		faultRetries = flag.Int("fault-retries", 0, "per-message retry cap (0 = default 3, -1 = none)")
	)
	flag.Parse()

	simCfg := sim.DefaultConfig()
	simCfg.InputBufFlits = *bufFlits
	simCfg.Params.MessageFlits = *flits

	if *listScen {
		t := &experiment.Table{
			Title:   "Registered workload scenarios (run with -scenario <name>)",
			Headers: []string{"name", "description"},
		}
		for _, sc := range workload.Scenarios() {
			t.AddRow(sc.Name, sc.Description)
		}
		fmt.Println(t.Format())
		return
	}

	if *campaignArg != "" {
		if err := runCampaign(*campaignArg, *outDir, *workers, simCfg); err != nil {
			fmt.Fprintf(os.Stderr, "spamsim: campaign: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *traceIn != "" {
		// Replaying a trace is selecting the replay scenario with the
		// file's contents as its inline trace parameter.
		if *scenario != "" && *scenario != "replay" {
			fmt.Fprintf(os.Stderr, "spamsim: -trace-in replays the recorded stream; drop -scenario %s\n", *scenario)
			os.Exit(1)
		}
		*scenario = "replay"
	}

	if *scenario != "" {
		traceFile := ""
		if *traceIn != "" {
			data, err := os.ReadFile(*traceIn)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spamsim: reading trace: %v\n", err)
				os.Exit(1)
			}
			traceFile = string(data)
		}
		params := workload.Params{
			Topology:          *topoSpec,
			RatePerProcPerUs:  *rate,
			Messages:          *messages,
			MulticastFraction: *mcastFrac,
			MulticastDests:    *dests,
			Window:            *window,
			Sources:           *sources,
			HotFraction:       *hotFrac,
			Rounds:            *rounds,
			Stages:            *stages,
			Fanout:            *fanout,
			Trace:             traceFile,
			Routing:           *routing,
			MisrouteBudget:    *misBudget,
			Root:              *rootStrat,
			FaultScript:       *faultScript,
			FaultProfile:      *faultProfile,
			FaultSeed:         *faultSeed,
			FaultMTBFUs:       *faultMTBF,
			FaultMTTRUs:       *faultMTTR,
			FaultHorizonUs:    *faultHorizon,
			FaultRetries:      *faultRetries,
		}
		if err := runScenario(*scenario, params, simCfg, *nodes, *trials, *warmup, *seed, *csv, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "spamsim: scenario %s: %v\n", *scenario, err)
			os.Exit(1)
		}
		return
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experiment.Drivers()
	}
	for _, name := range names {
		res, err := experiment.RunDriver(name, experiment.DriverOpts{
			Trials:      *trials,
			Messages:    *messages,
			Workers:     *workers,
			Seed:        *seed,
			Sim:         simCfg,
			FaultMTTRUs: *faultMTTR,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "spamsim: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(res.Table.CSV())
		} else {
			fmt.Println(res.Table.Format())
		}
		if *plot && !*csv && len(res.Series) > 0 {
			fmt.Println(experiment.Plot(
				fmt.Sprintf("%s (y: %s, x: %s)", res.Table.Title, res.YLabel, res.XLabel),
				res.Series))
		}
	}
}

// runCampaign resolves the manifest (built-in name or JSON file), executes
// it with per-cell checkpointing under <out>/cells, and writes REPORT.md
// plus plots/*.svg under <out>.
func runCampaign(arg, out string, workers int, simCfg sim.Config) error {
	m, ok := campaign.Builtin(arg)
	if !ok {
		data, err := os.ReadFile(arg)
		if err != nil {
			return fmt.Errorf("%q is neither a built-in manifest (%s) nor a readable file: %w",
				arg, strings.Join(campaign.BuiltinNames(), " | "), err)
		}
		if m, err = campaign.Parse(data); err != nil {
			return err
		}
	}
	res, err := campaign.Run(context.Background(), m, campaign.Options{
		Workers:             workers,
		CheckpointDir:       filepath.Join(out, "cells"),
		Sim:                 simCfg,
		AllowFileTopologies: true,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(out, "plots"), 0o755); err != nil {
		return err
	}
	for name, svg := range res.SVGs {
		if err := os.WriteFile(filepath.Join(out, filepath.FromSlash(name)), []byte(svg), 0o644); err != nil {
			return err
		}
	}
	reportPath := filepath.Join(out, "REPORT.md")
	if err := os.WriteFile(reportPath, []byte(res.Report), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign %s: %d unit(s) computed, %d from checkpoints; report at %s (%d plots)\n",
		m.Name, res.Computed, res.Cached, reportPath, len(res.SVGs))
	return nil
}

// runScenario executes a registered workload scenario on one reusable
// session: trials run back to back on the same simulator via Reset, and the
// measured latencies are aggregated with the warmup + batch-means harness.
// When traceOut is set, the last trial's submission stream is written there
// as a byte-stable trace file (replayable with -trace-in).
func runScenario(name string, params workload.Params, simCfg sim.Config, nodes, trials, warmup int, seed uint64, csv bool, traceOut string) error {
	sc, ok := workload.Lookup(name)
	if !ok {
		var names []string
		for _, s := range workload.Scenarios() {
			names = append(names, s.Name)
		}
		return fmt.Errorf("unknown scenario (have %v)", names)
	}
	if err := workload.ValidateRoutingParams(params); err != nil {
		return err
	}
	w, err := workload.ApplyFaults(sc.New(params), params)
	if err != nil {
		return err
	}
	// The -topo spec when given, else the paper lattice at -nodes switches.
	spec := topology.Spec{Family: "lattice", A: nodes}
	if params.Topology != "" {
		if spec, err = topology.ParseSpec(params.Topology); err != nil {
			return err
		}
	}
	pol, budget, err := workload.RoutingPolicy(params)
	if err != nil {
		return err
	}
	root, _, err := workload.RootStrategy(params)
	if err != nil {
		return err
	}
	sys, err := workload.NewSystem(workload.KeyFor(spec, seed, pol, root), nil)
	if err != nil {
		return err
	}
	simCfg.MisrouteBudget = budget
	runner, err := workload.NewRunner(sys.Router, simCfg)
	if err != nil {
		return err
	}
	if trials <= 0 {
		trials = 1
	}
	if warmup < 0 {
		// Default to a tenth of what the workload will actually submit, so
		// budget-aware workloads (permutations, storms, collectives, replay)
		// warm up proportionally; fall back to the -messages knob for
		// workloads that report no budget.
		if b := workload.Budget(w, sys.Net.NumProcs); b > 0 {
			warmup = b / 10
		} else {
			warmup = params.Messages / 10
		}
	}
	if traceOut != "" {
		runner.CaptureTrace(true)
	}
	st, err := workload.Measure(runner, w, workload.MeasureOpts{
		Trials:         trials,
		WarmupMessages: warmup,
		Seed:           seed,
	})
	if err != nil {
		return err
	}
	if traceOut != "" {
		// Multi-trial runs derive per-trial seeds; the file holds the
		// final trial's stream, which replays that trial bit-identically.
		if err := os.WriteFile(traceOut, []byte(runner.Trace().Format()), 0o644); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d messages, trial %d of %d)\n",
			traceOut, len(runner.Trace().Msgs), trials, trials)
	}
	c := runner.Sim().Counters()
	topoName := params.Topology
	if topoName == "" {
		topoName = fmt.Sprintf("lattice:%d", nodes)
	}
	t := &experiment.Table{
		Title: fmt.Sprintf("Scenario %s (%s: %d switches / %d processors, %d trials on one reusable session, seed %d)",
			sc.Name, topoName, sys.Net.NumSwitches, sys.Net.NumProcs, trials, seed),
		Headers: []string{"metric", "value"},
	}
	t.AddRow("mean latency (us)", fmt.Sprintf("%.3f", st.Mean()))
	t.AddRow("ci95 (us)", fmt.Sprintf("%.3f", st.CI95()))
	t.AddRow("min / max (us)", fmt.Sprintf("%.3f / %.3f", st.Min(), st.Max()))
	t.AddRow("p50 / p90 / p99 (us)", fmt.Sprintf("%.3f / %.3f / %.3f",
		st.Quantile(0.5), st.Quantile(0.9), st.Quantile(0.99)))
	t.AddRow("observations", fmt.Sprintf("%d", st.Count()))
	t.AddRow("samples (batch means)", fmt.Sprintf("%d", st.N()))
	t.AddRow("messages (last trial)", fmt.Sprintf("%d", c.WormsCompleted))
	t.AddRow("events (last trial)", fmt.Sprintf("%d", c.Events))
	t.AddRow("payload flit-hops (last trial)", fmt.Sprintf("%d", c.PayloadFlitHops))
	if pol != core.PolicyBaseline {
		t.AddRow("misroute hops (last trial)", fmt.Sprintf("%d", c.MisrouteHops))
	}
	if inj := runner.FaultInjector(); inj != nil {
		m := inj.Metrics()
		t.AddRow("fault events applied/rejected (last trial)", fmt.Sprintf("%d / %d", m.EventsApplied, m.EventsRejected))
		t.AddRow("table swaps (last trial)", fmt.Sprintf("%d", m.Swaps))
		t.AddRow("aborted / retried / lost (last trial)", fmt.Sprintf("%d / %d / %d", m.WormsAborted, m.WormsRetried, m.MessagesLost))
		t.AddRow("link availability (last trial)", fmt.Sprintf("%.4f", inj.Availability()))
		if m.DisruptHist.Count() > 0 {
			t.AddRow("disrupted-msg latency p50/p99 (us)", fmt.Sprintf("%.3f / %.3f",
				m.DisruptHist.Quantile(0.5), m.DisruptHist.Quantile(0.99)))
		}
	}
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.Format())
	}
	return nil
}
