package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/updown"
)

// policyRouter builds a policy router from a topology spec string, the
// specRouter counterpart for the misroute family.
func policyRouter(t testing.TB, spec string, seed uint64, pol core.Policy) *core.Router {
	t.Helper()
	sp, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	net, err := sp.Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewRouterPolicy(lab, pol)
}

// TestMisrouteZeroBaselineDifferential is ARCHITECTURE invariant 12 at the
// runner level: a PolicyMisroute router with budget 0 reproduces the baseline
// trial bit-identically — every worm's submit and done time plus every engine
// counter — for every registry scenario, on two topology-zoo families. The
// adaptive machinery must be provably inert until a budget arms it.
func TestMisrouteZeroBaselineDifferential(t *testing.T) {
	for _, spec := range []string{"torus:4x4", "fattree:2x3"} {
		t.Run(spec, func(t *testing.T) {
			base, err := NewRunner(specRouter(t, spec, 3), smallCfg())
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range Scenarios() {
				if sc.Name == "replay" {
					continue // needs a captured trace parameter
				}
				w := sc.New(Params{Messages: 50, MulticastDests: 4, RatePerProcPerUs: 0.01})
				if err := base.Trial(w, 42); err != nil {
					t.Fatalf("%s: baseline trial: %v", sc.Name, err)
				}
				want := signatureOf(base)
				if want.counters.MisrouteHops != 0 {
					t.Fatalf("%s: baseline router counted policy hops: %+v", sc.Name, want.counters)
				}
				cfg := smallCfg()
				cfg.MisrouteBudget = 0
				rep, err := NewRunner(policyRouter(t, spec, 3, core.PolicyMisroute), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.Trial(w, 42); err != nil {
					t.Fatalf("%s: misroute-0 trial: %v", sc.Name, err)
				}
				if got := signatureOf(rep); !sameSignature(got, want) {
					t.Fatalf("%s: misroute-0 diverged from baseline: %d/%d worms, counters %+v vs %+v",
						sc.Name, len(got.submits), len(want.submits), got.counters, want.counters)
				}
			}
		})
	}
}

// sidestepNet builds the smallest network with a dynamically reachable
// extras cell — productive extras are provably unreachable under BFS
// up*/down* labelings (see core.Router.referenceExtras), so firing the
// policy counters takes an engineered topology, not traffic volume:
//
//	  0            tree edges: 0-1, 0-2, 1-3, 3-4
//	 / \           cross edges: 1-2 (same level), 2-3 (level 1->2)
//	1---2
//	| ⤩ |          cell (at=1, down-tree arrival, lca=4):
//	3---'            baseline row  {1->3}
//	|                extras row    {1->2}   (2->3->4 completes)
//	4
//
// A 128-flit occupier proc@1 -> proc@3 holds channel 1->3 while a worm
// proc@0 -> proc@4 arrives down-tree at 1 and finds its only baseline
// candidate busy — the unique moment an armed policy may sidestep via 1->2.
func sidestepNet(t *testing.T) (*topology.Network, *updown.Labeling) {
	t.Helper()
	net, err := topology.NewBuilder(5, 8).
		Link(0, 1).Link(0, 2).Link(1, 3).Link(3, 4).
		Link(1, 2).Link(2, 3).
		AttachProcessor(0).AttachProcessor(1).AttachProcessor(3).AttachProcessor(4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.NewWithRoot(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net, lab
}

// TestPolicyCountersMove is the positive control for the differentials: on
// the sidestep net an armed misroute worm actually takes its extras — exactly
// one deroute under misroute-2, under "duato" (the unbounded budget) and
// under budgets of 2^31 and 2^32, which clamp to that budget rather than wrap
// to nothing — budget 0 and the baseline take none, and the sidestepping
// worm still reaches every destination.
func TestPolicyCountersMove(t *testing.T) {
	cases := []struct {
		name    string
		p       Params
		deroute uint64
	}{
		{"misroute-2", Params{Routing: "misroute", MisrouteBudget: 2}, 1},
		{"misroute-0", Params{Routing: "misroute"}, 0},
		{"duato", Params{Routing: "duato"}, 1},
		{"misroute-2^31", Params{Routing: "misroute", MisrouteBudget: 1 << 31}, 1},
		{"misroute-2^32", Params{Routing: "misroute", MisrouteBudget: 1 << 32}, 1},
		{"baseline", Params{}, 0},
	}
	for _, c := range cases {
		pol, budget, err := RoutingPolicy(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, lab := sidestepNet(t)
		cfg := sim.DefaultConfig() // paper params: 128-flit worms, ample hold time
		cfg.MisrouteBudget = budget
		s, err := sim.New(core.NewRouterPolicy(lab, pol), cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Processors attach in order at switches 0,1,3,4 -> nodes 5,6,7,8.
		occ, err := s.Submit(0, 6, []topology.NodeID{7}) // holds 1->3
		if err != nil {
			t.Fatal(err)
		}
		worm, err := s.Submit(0, 5, []topology.NodeID{8}) // blocked at 1
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunUntilIdle(int64(1e12)); err != nil {
			t.Fatal(err)
		}
		if !occ.Completed() || !worm.Completed() {
			t.Fatalf("%s: worms not delivered (occ=%t worm=%t)", c.name, occ.Completed(), worm.Completed())
		}
		if got := s.Counters().MisrouteHops; got != c.deroute {
			t.Errorf("%s: %d deroutes, want %d", c.name, got, c.deroute)
		}
	}
}

// TestSidestepNetCell pins the static shape TestPolicyCountersMove relies
// on, so a labeling change breaks this test with a readable message instead
// of silently turning the positive control vacuous.
func TestSidestepNetCell(t *testing.T) {
	_, lab := sidestepNet(t)
	r := core.NewRouterPolicy(lab, core.PolicyMisroute)
	base := r.CandidateChannels(1, core.ArriveDownTree, 4)
	if len(base) != 1 {
		t.Fatalf("cell (1,down-tree,4): want a single baseline candidate, got %v", base)
	}
	der := r.DerouteChannels(1, core.ArriveDownTree, 4)
	if len(der) != 1 {
		t.Fatalf("cell (1,down-tree,4): want a single deroute channel, got %v", der)
	}
	if got, want := r.Net.Chan(der[0]).Dst, topology.NodeID(2); got != want {
		t.Fatalf("deroute endpoint %d, want the sidestep switch %d", got, want)
	}
}

// TestRoutingPolicyResolution pins the wire-params clamp: the budget exists
// only under the misroute family, so equivalent requests resolve to
// identical (policy, budget) pairs, and "duato" is misroute with the
// unbounded budget.
func TestRoutingPolicyResolution(t *testing.T) {
	cases := []struct {
		name       string
		p          Params
		wantPol    core.Policy
		wantBudget int
	}{
		{"empty", Params{}, core.PolicyBaseline, 0},
		{"baseline", Params{Routing: "baseline"}, core.PolicyBaseline, 0},
		{"misroute", Params{Routing: "misroute", MisrouteBudget: 5}, core.PolicyMisroute, 5},
		{"misroute negative", Params{Routing: "misroute", MisrouteBudget: -3}, core.PolicyMisroute, 0},
		{"duato ignores budget", Params{Routing: "duato", MisrouteBudget: 5}, core.PolicyMisroute, math.MaxInt32},
		{"baseline ignores budget", Params{MisrouteBudget: 7}, core.PolicyBaseline, 0},
	}
	for _, c := range cases {
		pol, budget, err := RoutingPolicy(c.p)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if pol != c.wantPol || budget != c.wantBudget {
			t.Errorf("%s: got (%v, %d), want (%v, %d)", c.name, pol, budget, c.wantPol, c.wantBudget)
		}
	}
	if _, _, err := RoutingPolicy(Params{Routing: "adaptive"}); err == nil {
		t.Error("unknown policy name accepted")
	}
}

// TestValidateRoutingParams pins the up-front guard: typoed names and
// budgets that would be silently ignored are client errors.
func TestValidateRoutingParams(t *testing.T) {
	cases := []struct {
		name    string
		p       Params
		wantErr string
	}{
		{"empty", Params{}, ""},
		{"baseline", Params{Routing: "baseline"}, ""},
		{"misroute with budget", Params{Routing: "misroute", MisrouteBudget: 3}, ""},
		{"duato", Params{Routing: "duato"}, ""},
		{"root only", Params{Root: "max-degree"}, ""},
		{"all roots", Params{Root: "center"}, ""},
		{"bad policy", Params{Routing: "adaptive"}, "unknown routing policy"},
		{"budget on baseline", Params{MisrouteBudget: 2}, "requires routing=misroute"},
		{"budget on duato", Params{Routing: "duato", MisrouteBudget: 1}, "requires routing=misroute"},
		{"negative budget", Params{Routing: "misroute", MisrouteBudget: -1}, "must be >= 0"},
		{"bad root", Params{Root: "median"}, "root strategy"},
	}
	for _, c := range cases {
		err := ValidateRoutingParams(c.p)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.wantErr)
		}
	}
}
