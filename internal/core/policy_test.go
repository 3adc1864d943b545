package core

import (
	"fmt"
	"testing"

	"repro/internal/topology"
	"repro/internal/updown"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", PolicyBaseline, true},
		{"baseline", PolicyBaseline, true},
		{"misroute", PolicyMisroute, true},
		// "duato" names a (policy, budget) pair, which only
		// workload.RoutingPolicy resolves.
		{"duato", PolicyBaseline, false},
		{"adaptive", PolicyBaseline, false},
		{"Misroute", PolicyBaseline, false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v, ok=%t", c.in, got, err, c.want, c.ok)
		}
	}
	for _, pol := range []Policy{PolicyBaseline, PolicyMisroute} {
		p, err := ParsePolicy(pol.String())
		if err != nil || p != pol {
			t.Errorf("round trip %v: %v, %v", pol, p, err)
		}
	}
}

// checkPolicyCells asserts, for every (switch, arrival, LCA) cell, that the
// compiled extras planes match the reference extras functions, that the
// baseline candidate planes are untouched by the policy dimension, and the
// structural extras invariants: no up channels, disjoint from the baseline
// row, every extras hop ascending the labeling's (level, id) order, every
// extras endpoint viable.
func checkPolicyCells(t *testing.T, label string, table, base *Router) {
	t.Helper()
	ref := NewReferenceRouterPolicy(table.Lab, table.Policy())
	s := table.Net.NumSwitches
	arrivals := []ArrivalClass{ArriveInjection, ArriveUp, ArriveDownCross, ArriveDownTree}
	for at := 0; at < s; at++ {
		for _, a := range arrivals {
			for lca := 0; lca < s; lca++ {
				atN, lcaN := topology.NodeID(at), topology.NodeID(lca)
				cell := fmt.Sprintf("%s (%d,%v,%d)", label, at, a, lca)

				got := table.CandidateChannels(atN, a, lcaN)
				want := base.CandidateChannels(atN, a, lcaN)
				if !chansEqual(got, want) {
					t.Fatalf("%s: baseline plane drifted under policy: %v vs %v", cell, got, want)
				}

				der := table.DerouteChannels(atN, a, lcaN)
				if wantD := ref.ReferenceDerouteOutputs(atN, a, lcaN); !candsMatch(der, wantD) {
					t.Fatalf("%s: deroute %v, reference %v", cell, der, wantD)
				}

				inBase := map[topology.ChannelID]bool{}
				for _, c := range want {
					inBase[c] = true
				}
				for _, c := range der {
					if inBase[c] {
						t.Fatalf("%s: deroute channel %d is already a baseline candidate", cell, c)
					}
					ch := table.Net.Chan(c)
					if table.Lab.ClassOf[c] == updown.Up {
						t.Fatalf("%s: deroute channel %d climbs (up class)", cell, c)
					}
					end := ch.Dst
					la, le := table.Lab.Level[atN], table.Lab.Level[end]
					if la > le || (la == le && atN >= end) {
						t.Fatalf("%s: extras hop %d does not ascend (level, id): (%d,%d) -> (%d,%d)", cell, c, la, atN, le, end)
					}
					if end != lcaN && len(ref.ReferenceCandidateOutputs(end, ArrivalOf(table.Lab.ClassOf[c]), lcaN)) == 0 {
						t.Fatalf("%s: deroute channel %d strands the worm at %d", cell, c, end)
					}
				}
			}
		}
	}
}

func chansEqual(a, b []topology.ChannelID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func candsMatch(got []topology.ChannelID, want []Candidate) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i].Channel {
			return false
		}
	}
	return true
}

// TestAdaptiveDecisionZeroAlloc guards the hot path: once the policy tables
// are compiled, reading a cell's baseline and extras rows into a reused
// buffer — the whole per-header adaptive routing decision — performs zero
// allocations.
// The engine calls these on every blocked header retry, so a single
// allocation here would dominate congested trials.
func TestAdaptiveDecisionZeroAlloc(t *testing.T) {
	sp, err := topology.ParseSpec("gnm:24+12")
	if err != nil {
		t.Fatal(err)
	}
	net, err := sp.Build(1998)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouterPolicy(lab, PolicyMisroute)
	// Find a cell with a non-empty extras row so the guard exercises the
	// interesting path, not the empty-row early return.
	var atN, lcaN topology.NodeID
	found := false
	for at := 0; at < net.NumSwitches && !found; at++ {
		for lca := 0; lca < net.NumSwitches && !found; lca++ {
			if len(r.DerouteChannels(topology.NodeID(at), ArriveDownTree, topology.NodeID(lca))) > 0 {
				atN, lcaN = topology.NodeID(at), topology.NodeID(lca)
				found = true
			}
		}
	}
	if !found {
		t.Fatal("gnm:24+12 seed 1998 has no populated extras cell — pick another seed")
	}
	var sink int
	buf := make([]topology.ChannelID, 0, 16)
	if n := testing.AllocsPerRun(1000, func() {
		buf = r.AppendCandidateChannels(buf[:0], atN, ArriveDownTree, lcaN)
		sink += len(buf)
		buf = r.AppendExtrasChannels(buf[:0], atN, ArriveDownTree, lcaN)
		sink += len(buf)
	}); n != 0 {
		t.Fatalf("adaptive routing decision allocates %.1f/op, want 0", n)
	}
	if sink == 0 {
		t.Fatal("rows unexpectedly empty")
	}
}

// checkUnboundedWalks follows, from every cell where a header can sit with
// a down-tree arrival (a tree ancestor of its LCA), the header of a worm
// whose misroute budget never runs out — the "duato" wire name: it takes
// the cell's first extras channel whenever one is offered and its first
// baseline candidate otherwise. Every walk must reach the LCA in fewer than
// S hops, each hop ascending the labeling's (level, id) order: the ascent,
// not the budget, bounds such a worm's path. It returns the extras hops the
// walks took.
func checkUnboundedWalks(t *testing.T, label string, r *Router) int {
	t.Helper()
	s := r.Net.NumSwitches
	extras := 0
	for at := 0; at < s; at++ {
		for lca := 0; lca < s; lca++ {
			cur, lcaN := topology.NodeID(at), topology.NodeID(lca)
			if cur == lcaN || !r.Lab.IsAncestor(cur, lcaN) {
				continue
			}
			arrival := ArriveDownTree
			for hops := 0; cur != lcaN; hops++ {
				if hops >= s {
					t.Fatalf("%s: walk from %d toward %d exceeds %d hops", label, at, lca, s)
				}
				row := r.DerouteChannels(cur, arrival, lcaN)
				if len(row) > 0 {
					extras++
				} else {
					row = r.CandidateChannels(cur, arrival, lcaN)
				}
				if len(row) == 0 {
					t.Fatalf("%s: walk from %d toward %d stranded at %d", label, at, lca, cur)
				}
				next := r.Net.Chan(row[0]).Dst
				lc, ln := r.Lab.Level[cur], r.Lab.Level[next]
				if lc > ln || (lc == ln && cur >= next) {
					t.Fatalf("%s: walk from %d toward %d: hop %d -> %d does not ascend (level, id)", label, at, lca, cur, next)
				}
				arrival = ArrivalOf(r.Lab.ClassOf[row[0]])
				cur = next
			}
		}
	}
	return extras
}

// TestZooPolicyTableEquivalence pins the compiled policy planes on every zoo
// family × root strategy, through the fault-masked Relabel/Recompile round
// trip — the policy twin of TestZooThreeWayTableEquivalence. Subtests are
// named by the wire names of the misroute family: "misroute" checks the
// planes against the reference extras function cell by cell, and "duato"
// (misroute with an unbounded budget) checks that every extras-greedy walk
// terminates.
func TestZooPolicyTableEquivalence(t *testing.T) {
	strategies := []updown.RootStrategy{updown.RootMinID, updown.RootMaxDegree, updown.RootCenter}
	unboundedExtras := 0
	for _, spec := range zooSpecs {
		sp, err := topology.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		net, err := sp.Build(1998)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, strat := range strategies {
			for _, routing := range []string{"misroute", "duato"} {
				label := fmt.Sprintf("%s/%v/%s", spec, strat, routing)
				t.Run(label, func(t *testing.T) {
					lab, err := updown.New(net, strat)
					if err != nil {
						t.Fatal(err)
					}
					table := NewRouterPolicy(lab, PolicyMisroute)
					base := NewRouter(lab)
					check := func(label string) {
						if routing == "duato" {
							unboundedExtras += checkUnboundedWalks(t, label, table)
						} else {
							checkPolicyCells(t, label, table, base)
						}
					}
					check(label)

					mask, ok := maskableLink(lab)
					if !ok {
						t.Skipf("%s: no maskable link (tree network)", label)
					}
					if err := lab.Relabel(mask); err != nil {
						t.Fatal(err)
					}
					table.Recompile(lab)
					base.Recompile(lab)
					check(label + "/masked")

					if err := lab.Relabel(nil); err != nil {
						t.Fatal(err)
					}
					table.Recompile(lab)
					base.Recompile(lab)
					check(label + "/restored")
				})
			}
		}
	}
	if unboundedExtras == 0 {
		t.Error("no unbounded walk took an extras hop — the duato subtests are vacuous")
	}
}
