package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

// stormRequest is a seeded fault-storm sweep: mixed traffic with mid-run
// link failures, relabeling and table hot-swaps inside every trial.
func stormRequest(trials int) RunRequest {
	return RunRequest{
		Scenario: "fault-storm",
		Trials:   trials,
		Seed:     11,
		Params: workload.Params{
			RatePerProcPerUs: 0.04,
			Messages:         250,
			FaultSeed:        5,
			FaultMTBFUs:      6_000,
			FaultMTTRUs:      100,
			FaultHorizonUs:   600,
		},
	}
}

// TestGoldenFaultStormAcrossPools pins the PR's golden determinism claim: a
// session that survives mid-run fault swaps produces bit-identical results
// for serve pool sizes 1, 4 and 8, under varied GOMAXPROCS, and with a
// concurrent duplicate request racing on the same pool (whose workers then
// interleave fault and non-fault trials on shared reusable simulators).
func TestGoldenFaultStormAcrossPools(t *testing.T) {
	sys := testSystem(t, 32)
	req := stormRequest(6)

	golden, err := newService(t, sys, 1).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	golden.ElapsedMs = 0
	if golden.Count == 0 {
		t.Fatal("golden run measured nothing")
	}

	for _, pool := range []int{4, 8} {
		svc := newService(t, sys, pool)
		prev := runtime.GOMAXPROCS(2 + pool/4)
		var wg sync.WaitGroup
		results := make([]*RunResponse, 3)
		errs := make([]error, 3)
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := req
				if i == 2 {
					// A different, fault-free request racing on the same
					// pool: its trials interleave with the storm's on the
					// same reusable simulators.
					r = smallRequest(4)
				}
				results[i], errs[i] = svc.Run(context.Background(), r)
			}(i)
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("pool %d request %d: %v", pool, i, err)
			}
			results[i].ElapsedMs = 0
		}
		for _, i := range []int{0, 1} {
			results[i].PoolSize = golden.PoolSize
			if !reflect.DeepEqual(results[i], golden) {
				t.Fatalf("pool %d request %d drifts from pool-1 golden:\n%+v\n%+v", pool, i, results[i], golden)
			}
		}
	}

	// The fault-free race partner itself matches its own serial golden.
	cleanGolden, err := newService(t, sys, 1).Run(context.Background(), smallRequest(4))
	if err != nil {
		t.Fatal(err)
	}
	svc := newService(t, sys, 4)
	var both [2]*RunResponse
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); both[0], errs[0] = svc.Run(context.Background(), stormRequest(6)) }()
	go func() { defer wg.Done(); both[1], errs[1] = svc.Run(context.Background(), smallRequest(4)) }()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("racing requests: %v %v", errs[0], errs[1])
	}
	cleanGolden.ElapsedMs, both[1].ElapsedMs = 0, 0
	both[1].PoolSize = cleanGolden.PoolSize
	if !reflect.DeepEqual(both[1], cleanGolden) {
		t.Fatalf("clean request disturbed by concurrent fault storm:\n%+v\n%+v", both[1], cleanGolden)
	}
}

// TestFaultParamsValidation pins the wire-level error mapping.
func TestFaultParamsValidation(t *testing.T) {
	svc := newService(t, testSystem(t, 16), 2)
	req := smallRequest(1)
	req.Params.FaultProfile = "nope"
	if _, err := svc.Run(context.Background(), req); err == nil {
		t.Fatal("bad fault profile accepted")
	}
	req = smallRequest(1)
	req.Params.FaultScript = "50us down 0-1; malformed"
	if _, err := svc.Run(context.Background(), req); err == nil {
		t.Fatal("malformed fault script accepted")
	}
	// A valid script on a plain scenario works end to end.
	req = smallRequest(2)
	req.Params.FaultScript = "40us down 0-1; 120us up 0-1"
	resp, err := svc.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count == 0 {
		t.Fatal("scripted-fault request measured nothing")
	}
}

// TestRunInputSweepNo500 posts every registered scenario over six small
// zoo topologies, with no faults and under each fault profile, rotating
// the three root strategies, and requires a client error or a result for
// each: replay without a trace is the only 400, everything else answers
// 200, and nothing answers 500. A body naming a field /run does not take,
// such as the removed fault_drain, is a 400 naming that field, at /run and
// inside a /campaign manifest.
func TestRunInputSweepNo500(t *testing.T) {
	svc := newService(t, testSystem(t, 16), 2)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	// post returns the status and the head of the reply, which holds the
	// whole of any error body.
	post := func(path string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(io.LimitReader(resp.Body, 300))
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	roots := []string{"min-id", "max-degree", "center"}
	n := 0
	for _, sc := range workload.Scenarios() {
		for _, topo := range []string{"lattice:64", "gnm:48+24", "mesh:6x6", "torus:6x6", "hypercube:5", "fattree:4x2"} {
			for _, fault := range []string{"", "poisson", "maintenance", "regional"} {
				req := RunRequest{Scenario: sc.Name, Trials: 1, Seed: 1, Params: workload.Params{
					Topology: topo, Root: roots[n%len(roots)], Messages: 150, FaultProfile: fault,
				}}
				n++
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				want := http.StatusOK
				if sc.Name == "replay" {
					want = http.StatusBadRequest
				}
				if code, reply := post("/run", body); code != want {
					t.Errorf("%s on %s (root %s, faults %q): %d, want %d: %s",
						sc.Name, topo, req.Params.Root, fault, code, want, reply)
				}
			}
		}
	}

	for _, drain := range []string{"all", "crossing"} {
		body := `{"scenario":"maintenance","trials":3,"seed":1,"params":{"topology":"lattice:64","messages":800,` +
			`"multicast_fraction":0.3,"multicast_dests":8,"fault_drain":"` + drain + `"}}`
		if code, reply := post("/run", []byte(body)); code != http.StatusBadRequest || !strings.Contains(reply, "fault_drain") {
			t.Errorf("/run naming fault_drain %q: %d %s, want a 400 naming the field", drain, code, reply)
		}
		body = `{"manifest":{"name":"m","grids":[{"name":"g","topologies":["torus:4x4"],"scenarios":["mixed"],` +
			`"params":{"messages":50,"fault_drain":"` + drain + `"}}]}}`
		if code, reply := post("/campaign", []byte(body)); code != http.StatusBadRequest || !strings.Contains(reply, "fault_drain") {
			t.Errorf("manifest naming fault_drain %q: %d %s, want a 400 naming the field", drain, code, reply)
		}
	}
}
