package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/workload"
)

func topoRequest(topo string, trials int) RunRequest {
	return RunRequest{
		Scenario: "mixed",
		Trials:   trials,
		Seed:     42,
		Params: workload.Params{
			Topology:         topo,
			RatePerProcPerUs: 0.01,
			Messages:         60,
			MulticastDests:   4,
		},
	}
}

// TestRunTopologyOverride drives /run against every non-file zoo family.
func TestRunTopologyOverride(t *testing.T) {
	svc := newService(t, testSystem(t, 16), 2)
	for _, topo := range []string{"torus:4x4", "hypercube:4", "fattree:2x3", "mesh:4x4", "gnm:16+8", "lattice:16"} {
		resp, err := svc.Run(context.Background(), topoRequest(topo, 2))
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if resp.Topology != topo {
			t.Errorf("%s: response echoes %q", topo, resp.Topology)
		}
		if resp.Count == 0 || resp.MeanUs <= 0 {
			t.Errorf("%s: empty result %+v", topo, resp)
		}
	}
}

// TestRunTopologyDeterministic pins bit-identical responses across pool
// sizes and repeats for a topology-overriding request.
func TestRunTopologyDeterministic(t *testing.T) {
	var golden *RunResponse
	for _, pool := range []int{1, 4} {
		svc := newService(t, testSystem(t, 16), pool)
		for rep := 0; rep < 2; rep++ {
			resp, err := svc.Run(context.Background(), topoRequest("fattree:2x3", 3))
			if err != nil {
				t.Fatal(err)
			}
			resp.PoolSize, resp.ElapsedMs = 0, 0
			if golden == nil {
				golden = resp
				continue
			}
			if !reflect.DeepEqual(resp, golden) {
				t.Fatalf("pool %d rep %d: response differs from golden", pool, rep)
			}
		}
	}
}

func TestRunTopologyRejected(t *testing.T) {
	svc := newService(t, testSystem(t, 16), 1)
	for _, topo := range []string{
		"file:/etc/passwd", "ring:9", "torus:4", "hypercube:30",
		// Dimensions whose product wraps to 4 switches, a level count that
		// spun the switch-count prediction, and more gnm extra links than
		// a 4-port budget can place.
		"mesh:4611686018427387905x4", "torus:4611686018427387905x4",
		"fattree:1x4611686018427387905", "gnm:64+1000000000",
		// Few switches, but more processors than fit in memory.
		"torus:4x4/100000000", "fattree:4x3/1000000000",
		// Within both caps, but the predicted build peak is past the bound.
		"fattree:25x4", "hypercube:16",
	} {
		_, err := svc.Run(context.Background(), topoRequest(topo, 1))
		if !errors.Is(err, ErrBadTopology) {
			t.Errorf("%s: got %v, want ErrBadTopology", topo, err)
		}
		grid := campaign.Grid{Name: "g", Topologies: []string{topo}, Scenarios: []string{"mixed"}}
		_, err = svc.RunCell(context.Background(), CellRequest{
			Grid: grid,
			Cell: campaign.Cell{Grid: "g", Topology: topo, Scenario: "mixed", Seed: 1},
		})
		if !errors.Is(err, ErrBadTopology) {
			t.Errorf("RunCell %s: got %v, want ErrBadTopology", topo, err)
		}
		// The manifest validator rejects unparseable and file: specs first
		// (ErrBadCampaign); both errors answer 400.
		_, err = svc.RunCampaign(context.Background(), CampaignRequest{
			Manifest: &campaign.Manifest{Name: "bad", Grids: []campaign.Grid{grid}},
		})
		if !errors.Is(err, ErrBadTopology) && !errors.Is(err, ErrBadCampaign) {
			t.Errorf("RunCampaign %s: got %v, want ErrBadTopology or ErrBadCampaign", topo, err)
		}
	}
	if _, err := svc.Run(context.Background(), topoRequest("torus:4x4", 1)); err != nil {
		t.Fatalf("service stopped serving after the rejections: %v", err)
	}
}

// TestAdmitTopologyBuildBound pins both sides of the build bound: the
// largest fat-tree the scale smoke compiles and every benchmark spec are
// admitted, and the refusal of a spec within both caps names the predicted
// peak — 4·S² + S²/8 bytes of compile scratch, with no term for the
// labeling, which holds no switch×node relation — and the bound.
func TestAdmitTopologyBuildBound(t *testing.T) {
	for _, spec := range []string{"fattree:16x4", "fattree:8x4", "lattice:1024", "gnm:1024+256", "hypercube:10", "mesh:32x32", "torus:32x32"} {
		if _, err := admitTopology(spec); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
	_, err := admitTopology("fattree:25x4")
	if !errors.Is(err, ErrBadTopology) {
		t.Fatalf("fattree:25x4: got %v, want ErrBadTopology", err)
	}
	for _, want := range []string{"16113281250", "2147483648"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("fattree:25x4: error %q does not name %s", err, want)
		}
	}
	if _, err := admitTopology("hypercube:16"); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("hypercube:16: got %v, want ErrBadTopology", err)
	}
}

// TestRunTopologyCacheBounded: more distinct topologies than the cache cap
// must still serve correctly.
func TestRunTopologyCacheBounded(t *testing.T) {
	svc := newService(t, testSystem(t, 16), 2)
	topos := []string{
		"torus:3x3", "torus:3x4", "torus:3x5", "torus:4x4", "torus:4x5",
		"torus:3x6", "torus:4x6", "torus:5x5", "torus:5x6", "torus:3x7",
	}
	for _, topo := range topos {
		if _, err := svc.Run(context.Background(), topoRequest(topo, 1)); err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
	}
	if n := svc.systems.Len(); n > maxSystems {
		t.Errorf("system cache grew to %d (cap %d)", n, maxSystems)
	}
	// A cached spec still answers identically after evictions.
	if _, err := svc.Run(context.Background(), topoRequest("torus:3x3", 1)); err != nil {
		t.Fatal(err)
	}
}

// TestRunSystemKeyCanonical: requests that name one system in different
// words share one cached build. Seed-independent families ignore the seed,
// an empty root on a named topology is min-id, and on the default topology
// the request seed names no network. Six requests, two systems, and every
// response is the one a fresh service gives.
func TestRunSystemKeyCanonical(t *testing.T) {
	torus := func(seed uint64, root string) RunRequest {
		r := topoRequest("torus:4x4", 1)
		r.Seed, r.Params.Root = seed, root
		return r
	}
	misroute := func(seed uint64) RunRequest {
		r := routingRequest("misroute", 2, 1)
		r.Seed = seed
		return r
	}
	reqs := []RunRequest{torus(1, ""), torus(2, ""), torus(1, "min-id"), misroute(1), misroute(2), misroute(3)}
	svc := newService(t, testSystem(t, 16), 2)
	for i, req := range reqs {
		got, err := svc.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want, err := newService(t, testSystem(t, 16), 2).Run(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d on a fresh service: %v", i, err)
		}
		got.ElapsedMs, want.ElapsedMs = 0, 0
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("request %d: cached service answered\n%s\nfresh service answered\n%s", i, gotJSON, wantJSON)
		}
	}
	if n := svc.systems.Len(); n != 2 {
		t.Errorf("six requests built %d systems, want 2", n)
	}
}

// TestAlternateSystemTrialAllocFree: a pool worker that runs trials on the
// same alternate system twice reuses its runner, so the second trial
// allocates nothing.
func TestAlternateSystemTrialAllocFree(t *testing.T) {
	svc := newService(t, testSystem(t, 16), 1)
	rv, err := svc.resolveRun(topoRequest("torus:4x4", 1))
	if err != nil {
		t.Fatal(err)
	}
	runners := workload.NewRunnerCache(workerRunners)
	w := rv.sc.New(rv.params)
	trial := func() {
		r, err := svc.runner(runners, rv)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Trial(w, 7); err != nil {
			t.Fatal(err)
		}
	}
	trial()
	if n := testing.AllocsPerRun(20, trial); n != 0 {
		t.Fatalf("second trial on the same alternate system allocated %v allocs/op, want 0", n)
	}
}

func TestRunCampaignService(t *testing.T) {
	svc := newService(t, testSystem(t, 16), 2)
	resp, err := svc.RunCampaign(context.Background(), CampaignRequest{Name: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cells != 2 || resp.Experiments != 1 {
		t.Errorf("got %d cells, %d experiments", resp.Cells, resp.Experiments)
	}
	if !strings.Contains(resp.Report, "# Campaign smoke") || len(resp.SVGs) == 0 {
		t.Error("campaign response missing report or plots")
	}

	// Determinism across pool sizes.
	svc2 := newService(t, testSystem(t, 16), 4)
	resp2, err := svc2.RunCampaign(context.Background(), CampaignRequest{Name: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Report != resp.Report || !reflect.DeepEqual(resp2.SVGs, resp.SVGs) {
		t.Error("campaign artifacts differ across pool sizes")
	}
}

func TestRunCampaignRejects(t *testing.T) {
	svc := newService(t, testSystem(t, 16), 1)
	stub, _ := campaign.Builtin("smoke")
	huge := &campaign.Manifest{Name: "huge", Seed: 1, Grids: []campaign.Grid{{
		Name:       "g",
		Topologies: []string{"torus:3x3"},
		Scenarios:  []string{"mixed"},
		Seeds:      make([]uint64, maxCampaignCells+1),
	}}}
	for i := range huge.Grids[0].Seeds {
		huge.Grids[0].Seeds[i] = uint64(i + 1)
	}
	cases := []CampaignRequest{
		{},                              // neither name nor manifest
		{Name: "nonesuch"},              // unknown builtin
		{Name: "smoke", Manifest: stub}, // both
		{Manifest: huge},                // over the cell cap
		{Manifest: &campaign.Manifest{Name: "f", Seed: 1, Grids: []campaign.Grid{{
			Name: "g", Topologies: []string{"file:/etc/passwd"}, Scenarios: []string{"mixed"},
		}}}}, // file topology
	}
	for i, req := range cases {
		if _, err := svc.RunCampaign(context.Background(), req); !errors.Is(err, ErrBadCampaign) {
			t.Errorf("case %d: got %v, want ErrBadCampaign", i, err)
		}
	}
}

// TestCampaignCellCapIsArithmetic posts a 2.3 KB manifest whose one grid
// names 100 topologies × 100 scenarios × 100 seeds: a million cells, refused
// by the cell cap. The count is arithmetic on the grid axes, so the refusal
// allocates almost nothing; expanding the cells to count them allocated
// ~374 MiB for this body, and a body under 7 KB naming 300 per axis would
// have needed ~10 GiB.
func TestCampaignCellCapIsArithmetic(t *testing.T) {
	svc := newService(t, testSystem(t, 16), 1)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	axis := func(item func(i int) string) string {
		parts := make([]string, 100)
		for i := range parts {
			parts[i] = item(i)
		}
		return strings.Join(parts, ",")
	}
	body := `{"manifest":{"name":"wide","seed":1,"grids":[{"name":"g",` +
		`"topologies":[` + axis(func(int) string { return `"torus:3x3"` }) + `],` +
		`"scenarios":[` + axis(func(int) string { return `"mixed"` }) + `],` +
		`"seeds":[` + axis(func(i int) string { return strconv.Itoa(i + 1) }) + `]}]}}`
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	resp, err := srv.Client().Post(srv.URL+"/campaign", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 || !strings.Contains(string(msg), "manifest expands to 1000000 cells (cap 128)") {
		t.Fatalf("status %d, body %s; want 400 with the cell cap", resp.StatusCode, msg)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing a %d-byte manifest allocated %d bytes, want < 1 MiB", len(body), got)
	}
}

func TestCampaignHTTPEndpoint(t *testing.T) {
	svc := newService(t, testSystem(t, 16), 2)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/campaign", "application/json",
		strings.NewReader(`{"name":"smoke"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}

	bad, err := srv.Client().Post(srv.URL+"/campaign", "application/json",
		strings.NewReader(`{"name":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Errorf("unknown manifest: status %d, want 400", bad.StatusCode)
	}

	get, err := srv.Client().Get(srv.URL + "/campaign")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != 405 {
		t.Errorf("GET /campaign: status %d, want 405", get.StatusCode)
	}
}
