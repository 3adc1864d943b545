package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	spamnet "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

func routingRequest(routing string, budget, trials int) RunRequest {
	return RunRequest{
		Scenario: "mixed",
		Trials:   trials,
		Seed:     42,
		Params: workload.Params{
			Routing:          routing,
			MisrouteBudget:   budget,
			RatePerProcPerUs: 0.01,
			Messages:         60,
			MulticastDests:   4,
		},
	}
}

// TestRunMisrouteZeroBaselineDifferential is ARCHITECTURE invariant 12 at
// the service boundary: a misroute request with budget 0 returns a response
// bit-identical to the plain baseline request — every statistic and every
// counter — across pool sizes 1, 4 and 8. The adaptive machinery must be
// invisible until a budget arms it, no matter how the fleet shards trials.
func TestRunMisrouteZeroBaselineDifferential(t *testing.T) {
	sys := testSystem(t, 16)
	base := newService(t, sys, 2)
	want, err := base.Run(context.Background(), smallRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	want.PoolSize, want.ElapsedMs = 0, 0
	if want.Counters.MisrouteHops != 0 {
		t.Fatalf("baseline response counted policy hops: %+v", want.Counters)
	}
	for _, pool := range []int{1, 4, 8} {
		svc := newService(t, testSystem(t, 16), pool)
		resp, err := svc.Run(context.Background(), routingRequest("misroute", 0, 3))
		if err != nil {
			t.Fatalf("pool %d: %v", pool, err)
		}
		resp.PoolSize, resp.ElapsedMs = 0, 0
		if !reflect.DeepEqual(resp, want) {
			t.Fatalf("pool %d: misroute-0 diverged from baseline:\n got %+v\nwant %+v", pool, resp, want)
		}
	}
}

// TestNamedRoutingOverridesDaemonPolicy: a request that names a routing
// policy runs on it, even when it names baseline on a misroute daemon; a
// request that names no topology, routing or root runs on the daemon's
// default system.
func TestNamedRoutingOverridesDaemonPolicy(t *testing.T) {
	sys, err := spamnet.NewLattice(16, spamnet.WithSeed(7),
		spamnet.WithRoutingPolicy(spamnet.PolicyMisroute), spamnet.WithMisrouteBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	svc := newService(t, sys, 1)
	for _, c := range []struct {
		name   string
		params workload.Params
		pol    core.Policy
		budget int
	}{
		{"baseline named", workload.Params{Routing: "baseline"}, core.PolicyBaseline, 0},
		{"nothing named", workload.Params{}, core.PolicyMisroute, 2},
	} {
		rv, err := svc.resolveRun(RunRequest{Scenario: "mixed", Params: c.params})
		if err != nil {
			t.Fatal(err)
		}
		if rv.sys.Key.Policy != c.pol || rv.cfg.MisrouteBudget != c.budget {
			t.Errorf("%s: resolved policy %v budget %d, want %v budget %d",
				c.name, rv.sys.Key.Policy, rv.cfg.MisrouteBudget, c.pol, c.budget)
		}
	}
}

// TestNamedDefaultRootUsesDefaultSystem: naming the root strategy the
// default system was built with selects that system, not a rebuilt copy,
// and answers the same bytes as naming nothing.
func TestNamedDefaultRootUsesDefaultSystem(t *testing.T) {
	svc := newService(t, testSystem(t, 16), 1)
	answer := func(root string) []byte {
		t.Helper()
		req := smallRequest(2)
		req.Params.Root = root
		resp, err := svc.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		resp.ElapsedMs = 0
		blob, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	named, unnamed := answer("min-id"), answer("")
	if n := svc.systems.Len(); n != 0 {
		t.Errorf("naming the default root built %d systems, want 0", n)
	}
	if !bytes.Equal(named, unnamed) {
		t.Errorf("named default root answered\n%s\nnaming nothing answered\n%s", named, unnamed)
	}
}

// TestRunRoutingValidation pins the client-error contract: malformed routing
// params are rejected up front with ErrInvalidWorkload (HTTP 400), never run.
func TestRunRoutingValidation(t *testing.T) {
	svc := newService(t, testSystem(t, 16), 1)
	cases := []struct {
		name string
		req  RunRequest
		want string
	}{
		{"unknown policy", routingRequest("adaptive", 0, 1), "unknown routing policy"},
		{"budget on baseline", routingRequest("", 2, 1), "requires routing=misroute"},
		{"budget on duato", routingRequest("duato", 1, 1), "requires routing=misroute"},
		{"negative budget", routingRequest("misroute", -1, 1), "must be >= 0"},
		{"bad root", RunRequest{Scenario: "mixed", Trials: 1, Seed: 1,
			Params: workload.Params{Root: "median", Messages: 20, RatePerProcPerUs: 0.01}}, "root strategy"},
	}
	for _, c := range cases {
		_, err := svc.Run(context.Background(), c.req)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !errors.Is(err, workload.ErrInvalidWorkload) {
			t.Errorf("%s: error %v is not ErrInvalidWorkload", c.name, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestRunRoutingDeterministic pins bit-identical responses across pool sizes
// and repeats for the armed budgets (misroute-2 and duato), composed with a
// topology and root override — the full alternate-system construction path.
func TestRunRoutingDeterministic(t *testing.T) {
	reqs := map[string]RunRequest{
		"misroute-2": routingRequest("misroute", 2, 3),
		"duato":      routingRequest("duato", 0, 3),
	}
	duatoTopo := routingRequest("duato", 0, 3)
	duatoTopo.Params.Topology = "gnm:16+8"
	duatoTopo.Params.Root = "max-degree"
	reqs["duato+gnm+root"] = duatoTopo

	for name, req := range reqs {
		var golden *RunResponse
		for _, pool := range []int{1, 4} {
			svc := newService(t, testSystem(t, 16), pool)
			for rep := 0; rep < 2; rep++ {
				resp, err := svc.Run(context.Background(), req)
				if err != nil {
					t.Fatalf("%s (pool=%d): %v", name, pool, err)
				}
				resp.PoolSize, resp.ElapsedMs = 0, 0
				if golden == nil {
					golden = resp
					continue
				}
				if !reflect.DeepEqual(resp, golden) {
					t.Fatalf("%s (pool=%d rep=%d): response diverged:\n got %+v\nwant %+v", name, pool, rep, resp, golden)
				}
			}
		}
	}
}

// TestRunHugeBudgetMatchesDuato pins the budget clamp at the service
// boundary: a misroute budget past the int32 range runs as the unbounded
// budget "duato" names instead of wrapping to nothing, so the two requests
// reply identically — on a system where deroutes do happen.
func TestRunHugeBudgetMatchesDuato(t *testing.T) {
	svc := newService(t, testSystem(t, 16), 2)
	run := func(routing string, budget int) *RunResponse {
		t.Helper()
		req := RunRequest{
			Scenario: "hotspot",
			Trials:   2,
			Seed:     1998,
			Params: workload.Params{
				Topology:         "gnm:24+12",
				Routing:          routing,
				MisrouteBudget:   budget,
				RatePerProcPerUs: 0.04,
				Messages:         2000,
			},
		}
		resp, err := svc.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("%s/%d: %v", routing, budget, err)
		}
		resp.PoolSize, resp.ElapsedMs = 0, 0
		return resp
	}
	want := run("duato", 0)
	if want.Counters.MisrouteHops == 0 {
		t.Fatal("duato took no deroute: the comparison is vacuous")
	}
	if got := run("misroute", 1<<32); !reflect.DeepEqual(got, want) {
		t.Fatalf("misroute_budget 2^32 diverged from duato:\n got %+v\nwant %+v", got, want)
	}
}
