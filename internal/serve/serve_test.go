package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	spamnet "repro"
	"repro/internal/campaign"
	"repro/internal/workload"
)

// testSystem builds a small system shared by the service tests.
func testSystem(t *testing.T, switches int) *spamnet.System {
	t.Helper()
	sys, err := spamnet.NewLattice(switches, spamnet.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func newService(t *testing.T, sys *spamnet.System, pool int) *Service {
	t.Helper()
	svc, err := New(Config{System: sys, PoolSize: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func smallRequest(trials int) RunRequest {
	return RunRequest{
		Scenario: "mixed",
		Trials:   trials,
		Seed:     42,
		Params:   workload.Params{RatePerProcPerUs: 0.01, Messages: 60, MulticastDests: 4},
	}
}

func TestRunBasics(t *testing.T) {
	sys := testSystem(t, 16)
	svc := newService(t, sys, 2)
	resp, err := svc.Run(context.Background(), smallRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	// 3 trials x 60 messages, default warmup 6 per trial.
	if resp.Count != 3*(60-6) {
		t.Fatalf("count %d, want %d measured latencies", resp.Count, 3*(60-6))
	}
	if resp.CISamples != 3 {
		t.Fatalf("CI samples %d, want 3 trial means", resp.CISamples)
	}
	if resp.MeanUs < 10 {
		t.Fatalf("mean %.2f below the 10 us startup latency", resp.MeanUs)
	}
	if resp.P50Us < resp.MinUs || resp.P99Us > resp.MaxUs || resp.P50Us > resp.P99Us {
		t.Fatalf("quantiles out of order: min %.2f p50 %.2f p99 %.2f max %.2f",
			resp.MinUs, resp.P50Us, resp.P99Us, resp.MaxUs)
	}
	if resp.Warmup != 6 {
		t.Fatalf("warmup %d, want default messages/10", resp.Warmup)
	}

	// Single-trial requests fall back to within-trial batch means.
	one, err := svc.Run(context.Background(), smallRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if one.CISamples < 2 {
		t.Fatalf("single trial CI samples %d", one.CISamples)
	}

	// Unknown scenarios fail.
	if _, err := svc.Run(context.Background(), RunRequest{Scenario: "nope"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestGoldenSerialVsConcurrent is the determinism golden: the same seeded
// sweep answered by a serial pool (size 1) and by concurrent pools at
// GOMAXPROCS 1, 4 and 8 must produce bit-identical merged statistics —
// work-stealing may execute trials in any order on any simulator, but the
// per-trial seeds and the fixed-order shard merge pin the result.
func TestGoldenSerialVsConcurrent(t *testing.T) {
	sys := testSystem(t, 16)
	req := smallRequest(8)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var golden *RunResponse
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, pool := range []int{1, 4, 8} {
			svc, err := New(Config{System: sys, PoolSize: pool})
			if err != nil {
				t.Fatal(err)
			}
			// Concurrent identical requests exercise cross-request
			// work-stealing interleavings on the same pool.
			const dup = 3
			resps := make([]*RunResponse, dup)
			errs := make([]error, dup)
			var wg sync.WaitGroup
			for i := 0; i < dup; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					resps[i], errs[i] = svc.Run(context.Background(), req)
				}()
			}
			wg.Wait()
			svc.Close()
			for i := 0; i < dup; i++ {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				r := *resps[i]
				r.ElapsedMs, r.PoolSize = 0, 0
				if golden == nil {
					golden = &r
					continue
				}
				if r != *golden {
					t.Fatalf("procs=%d pool=%d request %d diverged:\n got %+v\nwant %+v",
						procs, pool, i, r, *golden)
				}
			}
		}
	}
}

// TestConcurrent64Requests is the acceptance load test: 64 simultaneous
// /run requests over a pool of 4 simulators must all succeed, produce
// identical bodies (they are identical requests), and never drive more than
// PoolSize simulators at once.
func TestConcurrent64Requests(t *testing.T) {
	sys := testSystem(t, 16)
	svc := newService(t, sys, 4)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	body, err := json.Marshal(smallRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	const clients = 64
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			bodies[i] = b
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	// Identical requests must yield identical statistics despite the
	// interleaving (elapsed time is the one nondeterministic field).
	canon := func(b []byte) string {
		var r RunResponse
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("bad body %s: %v", b, err)
		}
		r.ElapsedMs = 0
		return fmt.Sprintf("%+v", r)
	}
	want := canon(bodies[0])
	for i := 1; i < clients; i++ {
		if got := canon(bodies[i]); got != want {
			t.Fatalf("client %d diverged:\n got %s\nwant %s", i, got, want)
		}
	}

	// The pool bound held.
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var h Health
	if err := json.NewDecoder(hres.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.PoolSize != 4 {
		t.Fatalf("healthz %+v", h)
	}
	if h.HighWater > int64(h.PoolSize) {
		t.Fatalf("pool bound violated: high water %d > pool %d", h.HighWater, h.PoolSize)
	}
	if h.Requests < clients {
		t.Fatalf("requests_total %d < %d", h.Requests, clients)
	}
	if h.TrialsRun < clients*2 {
		t.Fatalf("trials_total %d < %d", h.TrialsRun, clients*2)
	}
}

// TestPooledSimulatorsNeverTrace: a System built with a trace callback must
// not leak it into the pool — a non-thread-safe sink (strings.Builder here)
// written by concurrent workers would be a data race under `go test -race`.
func TestPooledSimulatorsNeverTrace(t *testing.T) {
	var sink strings.Builder
	sys, err := spamnet.NewLattice(16, spamnet.WithSeed(7),
		spamnet.WithTrace(func(format string, args ...any) {
			fmt.Fprintf(&sink, format, args...)
		}))
	if err != nil {
		t.Fatal(err)
	}
	svc := newService(t, sys, 4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Run(context.Background(), smallRequest(2)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if sink.Len() != 0 {
		t.Fatalf("pooled simulators traced %d bytes", sink.Len())
	}
}

func TestCancellation(t *testing.T) {
	sys := testSystem(t, 16)
	svc := newService(t, sys, 1)

	// Already-canceled context: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Run(ctx, smallRequest(4)); err == nil {
		t.Fatal("canceled request succeeded")
	}

	// Cancellation mid-request: the single-worker pool serializes trials,
	// so canceling after submission skips the queued remainder.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	req := smallRequest(64)
	req.Params.Messages = 2000
	if _, err := svc.Run(ctx2, req); err == nil {
		t.Fatal("timed-out request succeeded")
	}

	// The pool survives cancellation and keeps serving.
	resp, err := svc.Run(context.Background(), smallRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count == 0 {
		t.Fatal("post-cancel request empty")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	sys := testSystem(t, 16)
	svc := newService(t, sys, 2)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// /scenarios lists the registry.
	res, err := http.Get(ts.URL + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []ScenarioInfo
	if err := json.NewDecoder(res.Body).Decode(&scenarios); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(scenarios) != len(workload.Scenarios()) {
		t.Fatalf("%d scenarios, want %d", len(scenarios), len(workload.Scenarios()))
	}

	// Wrong methods are rejected.
	if res, err = http.Get(ts.URL + "/run"); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run -> %d", res.StatusCode)
	}

	// Unknown scenario and malformed JSON -> 400.
	for _, body := range []string{`{"scenario":"nope"}`, `{"scenario":`, `{"bogus_field":1}`} {
		res, err = http.Post(ts.URL+"/run", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q -> %d, want 400", body, res.StatusCode)
		}
	}

	// Invalid scenario parameters are the client's fault -> 400, even
	// though the validation fires inside the pooled trial (the mixed
	// generator rejects a rate too high for its arrival slot).
	res, err = http.Post(ts.URL+"/run", "application/json",
		bytes.NewBufferString(`{"scenario":"mixed","params":{"rate_per_proc_per_us":1e9,"messages":10}}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid params -> %d, want 400", res.StatusCode)
	}

	// A genuine simulator failure on a well-formed request -> 500: a
	// service over a system with a 1 ns simulated-time horizon cannot
	// finish any trial.
	tiny, err := spamnet.NewLattice(16, spamnet.WithSeed(7), spamnet.WithMaxSimTime(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	tinySvc := newService(t, tiny, 1)
	tts := httptest.NewServer(tinySvc.Handler())
	defer tts.Close()
	body, err := json.Marshal(smallRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err = http.Post(tts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("simulator failure -> %d, want 500", res.StatusCode)
	}

	// A single-observation request has no CI (mathematically +Inf); the
	// response must still be valid JSON reporting ci95=0 with ci_samples=1.
	res, err = http.Post(ts.URL+"/run", "application/json",
		bytes.NewBufferString(`{"scenario":"mixed","trials":1,"warmup_messages":-1,"params":{"rate_per_proc_per_us":0.01,"messages":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	var one RunResponse
	err = json.NewDecoder(res.Body).Decode(&one)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("single-observation run -> %d, decode err %v", res.StatusCode, err)
	}
	if one.Count != 1 || one.CISamples != 1 || one.CI95Us != 0 {
		t.Fatalf("single-observation response %+v", one)
	}
}

// TestClampsAndClose: per-request limits apply, and Run after Close fails.
func TestClampsAndClose(t *testing.T) {
	sys := testSystem(t, 16)
	svc, err := New(Config{System: sys, PoolSize: 1, MaxTrials: 2, MaxMessages: 30})
	if err != nil {
		t.Fatal(err)
	}
	req := smallRequest(10)
	req.WarmupMessages = -1 // disable warmup: count the full clamped budget
	resp, err := svc.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trials != 2 {
		t.Fatalf("trials %d, want clamp 2", resp.Trials)
	}
	if resp.Count != 2*30 {
		t.Fatalf("count %d, want 2 trials x 30 clamped messages", resp.Count)
	}

	// Omitting the message budget must not bypass the clamp through the
	// scenario default (mixed defaults to 2000 messages).
	defReq := RunRequest{
		Scenario:       "mixed",
		Trials:         1,
		Seed:           1,
		WarmupMessages: -1,
		Params:         workload.Params{RatePerProcPerUs: 0.01},
	}
	defResp, err := svc.Run(context.Background(), defReq)
	if err != nil {
		t.Fatal(err)
	}
	if defResp.Count != 30 {
		t.Fatalf("defaulted budget count %d, want clamp 30", defResp.Count)
	}

	// Budget-less workloads are bounded through their own knobs: a huge
	// permutation round count clamps to MaxMessages/procs rounds, and a
	// storm cannot have more sources than processors.
	permResp, err := svc.Run(context.Background(), RunRequest{
		Scenario:       "transpose",
		Trials:         1,
		WarmupMessages: -1,
		Params:         workload.Params{Rounds: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if permResp.Count == 0 || permResp.Count > 30 {
		t.Fatalf("unbounded rounds leaked through: count %d", permResp.Count)
	}
	stormResp, err := svc.Run(context.Background(), RunRequest{
		Scenario:       "bcast-storm",
		Trials:         1,
		WarmupMessages: -1,
		Params:         workload.Params{Sources: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stormResp.Count == 0 || stormResp.Count > 16 {
		t.Fatalf("unbounded sources leaked through: count %d", stormResp.Count)
	}
	svc.Close()
	svc.Close() // idempotent
	if _, err := svc.Run(context.Background(), smallRequest(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: %v, want ErrClosed", err)
	}
}

// TestServeReplayGolden is the serve-layer half of the record/replay
// acceptance property: a trace captured from a scenario trial, replayed
// through the service at pool sizes 1 and 4, reproduces the original
// scenario response bit-identically (every statistic, not just the mean).
func TestServeReplayGolden(t *testing.T) {
	sys := testSystem(t, 16)

	// Capture trial 0 exactly as the service runs it: a single-trial
	// Measure on the system's router, seeded with TrialSeed(base, 0).
	simCfg := sys.SimConfig()
	simCfg.Logf = nil
	rec, err := workload.NewRunner(sys.Router(), simCfg)
	if err != nil {
		t.Fatal(err)
	}
	rec.MaxSimTimeNs = sys.MaxSimTimeNs()
	sc, ok := workload.Lookup("mixed")
	if !ok {
		t.Fatal("mixed scenario missing")
	}
	params := workload.Params{RatePerProcPerUs: 0.01, Messages: 60, MulticastDests: 4}
	rec.CaptureTrace(true)
	if _, err := workload.Measure(rec, sc.New(params), workload.MeasureOpts{
		Trials: 1, WarmupMessages: 6, Seed: workload.TrialSeed(42, 0),
	}); err != nil {
		t.Fatal(err)
	}
	trace := rec.Trace().Format()
	if len(rec.Trace().Msgs) != 60 {
		t.Fatalf("captured %d messages, want 60", len(rec.Trace().Msgs))
	}

	norm := func(r RunResponse) RunResponse {
		r.Scenario, r.PoolSize, r.ElapsedMs = "", 0, 0
		return r
	}
	origSvc := newService(t, sys, 2)
	orig, err := origSvc.Run(context.Background(), smallRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range []int{1, 4} {
		svc := newService(t, sys, pool)
		got, err := svc.Run(context.Background(), RunRequest{
			Scenario: "replay",
			Trials:   1,
			Seed:     42,
			Params:   workload.Params{Trace: trace},
		})
		if err != nil {
			t.Fatalf("pool=%d: %v", pool, err)
		}
		if norm(*got) != norm(*orig) {
			t.Fatalf("pool=%d replay diverged from the recorded scenario:\n got %+v\nwant %+v",
				pool, norm(*got), norm(*orig))
		}
	}
}

// TestServeReplayValidation: malformed, mismatched and oversized traces are
// client errors (ErrInvalidWorkload → HTTP 400), rejected before any trial.
func TestServeReplayValidation(t *testing.T) {
	sys := testSystem(t, 16)
	svc, err := New(Config{System: sys, PoolSize: 1, MaxMessages: 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	bad := func(name string, req RunRequest, want string) {
		t.Helper()
		_, err := svc.Run(context.Background(), req)
		if !errors.Is(err, workload.ErrInvalidWorkload) {
			t.Fatalf("%s: got %v, want ErrInvalidWorkload", name, err)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not mention %q", name, err, want)
		}
	}
	bad("garbage", RunRequest{Scenario: "replay", Params: workload.Params{Trace: "not a trace"}}, "header")
	bad("procs mismatch", RunRequest{
		Scenario: "replay",
		Params:   workload.Params{Trace: "trace 1\nprocs 4\nmsg 0 0 1\n"},
	}, "processors")
	over := &workload.Trace{Procs: 16}
	for i := 0; i < 31; i++ {
		over.Msgs = append(over.Msgs, workload.TraceMsg{Parent: -1, Src: 0, Dests: []int32{1}})
	}
	bad("oversized", RunRequest{Scenario: "replay", Params: workload.Params{Trace: over.Format()}}, "cap")
	// /cell shares the clamp: a grid cell replaying the same trace is
	// refused as well.
	_, err = svc.RunCell(context.Background(), CellRequest{
		Grid: campaign.Grid{Name: "g", Topologies: []string{"lattice:16"}, Scenarios: []string{"replay"},
			Params: workload.Params{Trace: over.Format()}},
		Cell: campaign.Cell{Grid: "g", Topology: "lattice:16", Scenario: "replay", Seed: 1},
	})
	if !errors.Is(err, workload.ErrInvalidWorkload) || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized cell: got %v, want ErrInvalidWorkload naming the cap", err)
	}

	// The same validation guards a trace smuggled under another scenario
	// name — params.Trace alone triggers it.
	bad("trace under wrong scenario", RunRequest{Scenario: "mixed", Params: workload.Params{Trace: "junk"}}, "header")

	// HTTP surface: the mapped status is 400.
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	body, _ := json.Marshal(RunRequest{Scenario: "replay", Params: workload.Params{Trace: "junk"}})
	httpResp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusBadRequest {
		b, _ := io.ReadAll(httpResp.Body)
		t.Fatalf("bad trace over HTTP: status %d, body %s", httpResp.StatusCode, b)
	}
}
