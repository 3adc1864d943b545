package main

import (
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/topology"
	"repro/internal/workload"
)

// benchConfig is one invocation's settings.
type benchConfig struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	// nproc is both the client count and the service's pool size.
	nproc int
}

// spanDir is where traced runs write their spans, inside the checkout's
// ignored build directory.
const spanDir = ".bench_build/spans"

// setupRepeats is how many times a serve run sets up; setup_s is the median.
const setupRepeats = 7

// altCacheSize is serve's alternate-system cache bound at this commit; the
// traced ladder's system cache mirrors it.
const altCacheSize = 8

// ladderReqBase offsets ladder request ids from closed-loop ones in spans.
const ladderReqBase = 1 << 20

func runServe(cfg benchConfig) (*result, error) {
	st, err := newStream(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	env, setupS, err := setUpServe(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return res, runServeTraced(cfg, st, env, res)
	}
	defer env.close()
	outs := env.closedLoop(st, cfg.nproc, cfg.dur, nil, nil)
	var fills []outcome
	if cfg.workload == "serve-zoo" {
		fills = env.sequential(fillRequests(cfg.seed))
	}
	res.attempted = len(outs) + len(fills)
	refs, err := references(append(requestsOf(outs), requestsOf(fills)...), cfg.nproc)
	if err != nil {
		return nil, err
	}
	res.checkOutcomes(outs, refs)
	res.checkOutcomes(fills, refs)
	describeServeInputs(cfg, st, outs, res)
	ls := summarizeLoop(outs, st.passLen)

	// The live heap is the service's footprint: the replies the check held
	// are no longer referenced, and the service still runs.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set("setup_s", setupS, setupRepeats)
	res.set("run_p50_ms", percentile(ls.latMs, 50), len(ls.latMs))
	res.set("run_p90_ms", percentile(ls.latMs, 90), len(ls.latMs))
	res.set("run_rps", float64(ls.completed)/ls.wallS, ls.completed)
	res.set("campaign_s", median(ls.passS), len(ls.passS))
	res.set("live_heap_mib", mib(ms.HeapAlloc), 1)
	if len(ls.latMs) < 100 {
		res.fail("only %d requests completed; a run needs at least 100 for its p90", len(ls.latMs))
	}
	if len(ls.passS) == 0 {
		res.fail("no complete pass of %d requests", st.passLen)
	}
	return res, nil
}

// setUpServe builds the service, its listener and client, and warms every
// pool worker, setupRepeats times; it keeps the last environment and
// returns the median set-up time.
func setUpServe(cfg benchConfig) (*serveEnv, float64, error) {
	var env *serveEnv
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		var err error
		if env, err = startServeEnv(cfg.nproc); err != nil {
			return nil, 0, err
		}
		if err := env.warmUp(cfg.seed, cfg.nproc); err != nil {
			env.close()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return env, median(times), nil
}

// sequential sends requests one at a time, untimed.
func (e *serveEnv) sequential(reqs []request) []outcome {
	outs := make([]outcome, len(reqs))
	for i, r := range reqs {
		status, body, err := e.post(r.Body)
		outs[i] = outcome{req: r, status: status, body: body, err: err}
	}
	return outs
}

// describeServeInputs prints the input properties later changes cite, and
// the digest of the first full cycle of distinct requests.
func describeServeInputs(cfg benchConfig, st *stream, outs []outcome, res *result) {
	if d, ok := digestOutcomes(outs, st.cycle); ok {
		res.note("digest: sha256 of replies to stream positions [0,%d) = %s", st.cycle, d)
	} else {
		res.note("digest: run ended before stream position %d; no digest", st.cycle)
	}
	switch cfg.workload {
	case "serve-paper":
		var ev []float64
		for _, o := range outs {
			var resp serve.RunResponse
			if decodeReply(o.body, &resp) == nil {
				ev = append(ev, float64(resp.Counters.Events))
			}
		}
		res.note("input: events per request: mean %.0f, min %.0f, max %.0f over %d requests (%d trials × %d messages each)",
			mean(ev), percentile(ev, 0), percentile(ev, 100), len(ev), paperTrials, paperMessages)
	case "serve-zoo":
		sizes := map[int]int{}
		combos, keys := map[string]bool{}, map[string]bool{}
		var comboSeen, keySeen int
		for _, o := range outs {
			if sp, err := topology.ParseSpec(o.req.Run.Params.Topology); err == nil {
				sizes[sp.Switches()]++
			}
			if combos[o.req.Combo] {
				comboSeen++
			}
			if keys[o.req.SysKey] {
				keySeen++
			}
			combos[o.req.Combo], keys[o.req.SysKey] = true, true
		}
		var parts []string
		for _, s := range slices.Sorted(maps.Keys(sizes)) {
			parts = append(parts, fmt.Sprintf("%d:%d", s, sizes[s]))
		}
		n := float64(max(1, len(outs)))
		res.note("input: switch count → requests: %s", strings.Join(parts, " "))
		res.note("input: (topology, policy, root) named earlier in the run: %.3f of %d requests", float64(comboSeen)/n, len(outs))
		res.note("input: exact (spec, seed, policy, root) named earlier in the run: %.3f of %d requests", float64(keySeen)/n, len(outs))
	}
}

// runServeTraced is the traced run: a closed loop of half the run time with
// every other pass traced (the overhead comparison; passes share their
// composition and order, so both halves do the same kind of work), then one
// pass replayed request by request down the ladder.
func runServeTraced(cfg benchConfig, st *stream, env *serveEnv, res *result) error {
	tr := newTracer()
	traced := func(pos int) bool { return pos/st.passLen%2 == 1 }
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	outs := env.closedLoop(st, cfg.nproc, cfg.dur/2, tr, traced)
	runtime.ReadMemStats(&m1)
	env.close()
	res.attempted = len(outs)
	var plainMs, tracedMs []float64
	for _, o := range outs {
		if traced(o.req.Pos) {
			tracedMs = append(tracedMs, o.latencyMs())
		} else {
			plainMs = append(plainMs, o.latencyMs())
		}
	}
	overhead := 100 * (median(tracedMs)/median(plainMs) - 1)
	res.set("trace.overhead_pct", overhead, len(tracedMs))
	res.note("tracing overhead: p50 /run %.2f ms traced (%d requests) vs %.2f ms untraced (%d): %+.2f%%",
		median(tracedMs), len(tracedMs), median(plainMs), len(plainMs), overhead)
	res.set("proc.alloc_mib_per_op", mib(m1.TotalAlloc-m0.TotalAlloc)/float64(max(1, len(outs))), len(outs))
	res.set("proc.gc_cycles", float64(m1.NumGC-m0.NumGC), 1)

	if err := runLadder(cfg, st, tr, res); err != nil {
		return err
	}
	refs, err := references(requestsOf(outs), cfg.nproc)
	if err != nil {
		return err
	}
	res.checkOutcomes(outs, refs)
	res.set("bench.fail_ratio", float64(res.failed)/float64(max(1, res.attempted)), res.attempted)
	res.set("proc.peak_rss_mib", peakRSSMiB(), 1)
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	spans := tr.snapshot()
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	res.note("spans: %d written to %s", len(spans), path)
	return nil
}

// runLadder replays the stream's first pass one request at a time: POST
// /run on one service and Service.Run in process on a second (so each sees
// the request sequence once and caches alike), then the in-process layer
// ladder, and for each distinct request a cold/warm trial probe.
func runLadder(cfg benchConfig, st *stream, tr *tracer, res *result) error {
	h, err := startServeEnv(cfg.nproc)
	if err != nil {
		return err
	}
	defer h.close()
	if err := h.warmUp(cfg.seed, cfg.nproc); err != nil {
		return err
	}
	svc, err := newService(h.sys, cfg.nproc)
	if err != nil {
		return err
	}
	defer svc.Close()
	rp := newReplayer(h.sys, cfg.nproc, altCacheSize)
	runners := make([]*workload.Runner, cfg.nproc)
	for w := range runners {
		if runners[w], err = rp.newDefaultRunner(); err != nil {
			return err
		}
	}
	ctx := context.Background()
	for w := 0; w < cfg.nproc; w++ {
		warm := warmupRequest(cfg.seed, w)
		if _, err := svc.Run(ctx, warm.Run); err != nil {
			return fmt.Errorf("warming the in-process service: %w", err)
		}
		if _, _, err := rp.replay(warm.Run, runners[w:w+1], nil, 0, 0); err != nil {
			return fmt.Errorf("warming the ladder's runners: %w", err)
		}
	}

	probed := map[string]bool{}
	var probes []probeOut
	for pos := 0; pos < st.passLen; pos++ {
		req := st.at(pos)
		rid := ladderReqBase + pos
		res.attempted++
		root := tr.begin("request", 0, rid)
		var status int
		var body []byte
		var herr, serr error
		var sresp *serve.RunResponse
		post := func() {
			id := tr.begin("serve.http", root, rid)
			status, body, herr = h.post(req.Body)
			tr.end(id)
		}
		run := func() {
			id := tr.begin("serve.run", root, rid)
			sresp, serr = svc.Run(ctx, req.Run)
			tr.end(id)
		}
		// Alternate which goes first, so warm-cache effects of running
		// the same request twice do not bias the serve front's share.
		if pos%2 == 0 {
			post()
			run()
		} else {
			run()
			post()
		}
		lid := tr.begin("ladder", root, rid)
		lresp, rv, lerr := rp.replay(req.Run, runners, tr, lid, rid)
		tr.end(lid)
		if lerr != nil {
			tr.end(root)
			return fmt.Errorf("ladder for request %d: %w", pos, lerr)
		}
		if !probed[string(req.Body)] {
			probed[string(req.Body)] = true
			pid := tr.begin("probe", root, rid)
			po, err := rp.probe(rv, tr, pid, rid)
			tr.end(pid)
			if err != nil {
				tr.end(root)
				return fmt.Errorf("probe for request %d: %w", pos, err)
			}
			probes = append(probes, po)
		}
		tr.end(root)
		if !res.checkReply(req, status, body, herr, lresp) {
			continue
		}
		switch {
		case serr != nil:
			res.fail("request %d: in-process Service.Run: %v", pos, serr)
		case detOf(sresp) != detOf(lresp):
			res.fail("request %d: in-process Service.Run differs from the ladder", pos)
		}
	}
	ladderMetrics(cfg, tr.snapshot(), rp, probes, res)
	return nil
}

// ladderMetrics derives the per-layer metrics and rung shares from the
// ladder's spans.
func ladderMetrics(cfg benchConfig, spans []span, rp *replayer, probes []probeOut, res *result) {
	var ladder []span
	for _, s := range spans {
		if s.Req >= ladderReqBase {
			ladder = append(ladder, s)
		}
	}
	tot := totalsByName(ladder)
	kids := map[int][]span{}
	for _, s := range ladder {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	// /run over HTTP splits into the serve front (the part of the POSTs not
	// spent in Service.Run) and Service.Run. Service.Run's time is
	// attributed to the layers in the proportions the ladder measured;
	// when the replay took longer than Service.Run its layers are scaled
	// down to fit, and the excess is reported as overrun. Sums, not
	// per-request differences, so timing noise does not bias the split.
	var httpNs, runNs, named float64
	layerNs := map[string]float64{}
	for _, s := range ladder {
		switch s.Name {
		case "serve.http":
			httpNs += float64(s.dur())
		case "serve.run":
			runNs += float64(s.dur())
		case "ladder":
			named += float64(covered(s, kids[s.ID]))
			byName := map[string][]span{}
			for _, k := range kids[s.ID] {
				byName[k.Name] = append(byName[k.Name], k)
			}
			for name, ks := range byName {
				layerNs[name] += float64(covered(s, ks))
			}
		}
	}
	svcNs := min(httpNs, runNs)
	frontNs := httpNs - svcNs
	overrunNs := max(0, named-svcNs)
	if overrunNs > 0 {
		scale := svcNs / named
		named = svcNs
		for name := range layerNs {
			layerNs[name] *= scale
		}
	}
	share := func(ns float64) float64 { return ns / max(1, httpNs) }
	meanMs := func(name string) float64 {
		if lt := tot[name]; lt != nil && lt.Count > 0 {
			return float64(lt.TotalNs) / float64(lt.Count) / 1e6
		}
		return 0
	}
	count := func(name string) int {
		if lt := tot[name]; lt != nil {
			return lt.Count
		}
		return 0
	}
	n := count("serve.http")
	res.set("serve.http_ms", meanMs("serve.http"), n)
	res.set("serve.run_ms", meanMs("serve.run"), count("serve.run"))
	res.set("serve.http_share", share(frontNs), n)
	res.set("serve.attributed_share", share(frontNs+named), n)
	res.set("topology.build_ms", meanMs("topology.build"), count("topology.build"))
	res.set("topology.builds", float64(count("topology.build")), n)
	res.set("updown.label_ms", meanMs("updown.label"), count("updown.label"))
	res.set("core.compile_ms", meanMs("core.compile"), count("core.compile"))
	var labelAlloc uint64
	var tableBytes int64
	for _, b := range rp.builds {
		labelAlloc += b.labelAllocBytes
		tableBytes += b.tableBytes
	}
	if nb := len(rp.builds); nb > 0 {
		res.set("updown.alloc_mib", mib(labelAlloc)/float64(nb), nb)
		res.set("core.table_mib", float64(tableBytes)/(1<<20)/float64(nb), nb)
	} else {
		res.set("updown.alloc_mib", 0, 0)
		res.set("core.table_mib", mib(uint64(rp.sys.TableMemStats().TableBytes)), 0)
	}
	res.set("workload.runner_ms", meanMs("probe.runner"), count("probe.runner"))
	res.set("workload.cold_trial_ms", meanMs("probe.cold_trial"), count("probe.cold_trial"))
	res.set("workload.warm_trial_ms", meanMs("probe.warm_trial"), count("probe.warm_trial"))
	var mallocs, events uint64
	for _, p := range probes {
		mallocs += p.mallocs
		events += p.events
	}
	np := max(1, len(probes))
	res.set("workload.trial_allocs", float64(mallocs)/float64(np), len(probes))
	res.set("sim.events", float64(events)/float64(np), len(probes))
	if lt := tot["probe.warm_trial"]; lt != nil && events > 0 {
		res.set("sim.ns_per_event", float64(lt.TotalNs)/float64(events), len(probes))
	}
	res.set("stats.merge_us", meanMs("stats.merge")*1000, count("stats.merge"))

	build := layerNs["topology.build"] + layerNs["updown.label"] + layerNs["core.compile"]
	res.note("ladder: %d requests of pass 0 replayed; shares of /run busy time (Σ client POST /run = %.1f ms):", n, httpNs/1e6)
	row := func(name string, ns float64) {
		res.note("  %-52s %8.1f ms %6.1f%%", name, ns/1e6, 100*share(ns))
	}
	row("serve front: HTTP, JSON, loopback (POST − Service.Run)", frontNs)
	row("Service.Run", svcNs)
	row("  topology.Spec.Build", layerNs["topology.build"])
	row("  updown.New", layerNs["updown.label"])
	row("  core.NewRouterPolicy", layerNs["core.compile"])
	row("  workload.NewRunner", layerNs["workload.runner"])
	row("  workload.Measure (sim engine, generation, stats adds)", layerNs["workload.measure"])
	row("  stats.Summary.Merge", layerNs["stats.merge"])
	row("  remainder: resolveRun, admission, pool queue, handoff", svcNs-named)
	res.note("attributed to named layers: %.1f%% of /run busy time (target ≥ 90%%); the remainder is Service.Run's resolve, admission and pool-queue time; the replay overran Service.Run by %.1f ms in all",
		100*share(frontNs+named), overrunNs/1e6)
	res.note("self time by span, Σ ms: %s", selfTimeLine(ladder))
	setup := build + layerNs["workload.runner"]
	sim := layerNs["workload.measure"]
	switch cfg.workload {
	case "serve-paper":
		res.note("role: sim is the largest layer (%.1f%%; serve front %.1f%%, build + runner %.1f%%, remainder %.1f%%): %v",
			100*share(sim), 100*share(frontNs), 100*share(setup), 100*share(svcNs-named),
			sim > frontNs && sim > setup && sim > svcNs-named)
	case "serve-zoo":
		res.note("role: system build + runner set-up %.1f%% vs sim %.1f%% and serve front %.1f%% (expected the largest): %v",
			100*share(setup), 100*share(sim), 100*share(frontNs), setup > sim && setup > frontNs)
	}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
