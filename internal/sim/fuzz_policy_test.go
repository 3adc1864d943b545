package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/updown"
)

// FuzzAdaptiveSelection fuzzes misroute routing end to end: on arbitrary
// random topologies (lattice or unconstrained G(n,m)) under an arbitrary
// misroute budget — small, or the unbounded math.MaxInt32 the "duato" wire
// name selects — and fuzz-chosen congestion, the policy router's extras
// planes must satisfy every structural safety invariant cell by cell, and a
// full congested trial must drain to idle (no deadlock, no stall) with the
// deroute counter bounded:
//
//   - extras exist only for down-tree arrivals; every extras channel is an
//     in-range, non-failed down-cross channel leaving `at` whose endpoint is
//     an extended ancestor of the LCA (it can complete the descent);
//   - a small budget caps a trial at budget × worms deroutes (none at
//     budget 0); under the unbounded budget no worm spends as many as the
//     switch count, because every extras hop ascends the labeling's
//     (level, id) order; no worm's budget goes negative, and the counter
//     equals the budget the worms spent.
//
// Run with `go test -fuzz=FuzzAdaptiveSelection ./internal/sim` to explore;
// the seed corpus runs as part of `go test`.
func FuzzAdaptiveSelection(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(0), false, uint8(0), uint8(2), uint64(0b1011))
	f.Add(uint64(42), uint8(22), uint8(1), true, uint8(1), uint8(0), uint64(0xffff))
	f.Add(uint64(7), uint8(3), uint8(2), false, uint8(0), uint8(3), uint64(1))
	f.Add(uint64(1998), uint8(16), uint8(0), true, uint8(1), uint8(1), uint64(0xdeadbeef))

	f.Fuzz(func(t *testing.T, seed uint64, sizeSel, rootSel uint8, irregular bool, unboundedSel, budgetSel uint8, trafficBits uint64) {
		n := 2 + int(sizeSel%24)
		var net *topology.Network
		var err error
		if irregular {
			net, err = topology.RandomIrregular(topology.GNMConfig{
				Switches:   n,
				ExtraLinks: n / 2,
				Seed:       seed,
			})
		} else {
			net, err = topology.RandomLattice(topology.DefaultLattice(n, seed))
		}
		if err != nil {
			t.Fatal(err)
		}
		lab, err := updown.New(net, updown.RootStrategy(rootSel%3))
		if err != nil {
			t.Fatal(err)
		}
		r := core.NewRouterPolicy(lab, core.PolicyMisroute)

		// Static sweep: every extras cell obeys the safety invariants.
		arrivals := []core.ArrivalClass{core.ArriveInjection, core.ArriveUp, core.ArriveDownCross, core.ArriveDownTree}
		numChans := len(net.Channels)
		for at := 0; at < net.NumSwitches; at++ {
			for _, arrival := range arrivals {
				for lca := 0; lca < net.NumSwitches; lca++ {
					atN, lcaN := topology.NodeID(at), topology.NodeID(lca)
					der := r.DerouteChannels(atN, arrival, lcaN)
					if arrival != core.ArriveDownTree && len(der) != 0 {
						t.Fatalf("(%d,%v,%d): extras offered to a non-down-tree arrival", at, arrival, lca)
					}
					for _, c := range der {
						if int(c) < 0 || int(c) >= numChans {
							t.Fatalf("(%d,%v,%d): extras channel %d out of range [0,%d)", at, arrival, lca, c, numChans)
						}
						if lab.IsDown(c) {
							t.Fatalf("(%d,%v,%d): extras channel %d is failed", at, arrival, lca, c)
						}
						if lab.ClassOf[c] != updown.DownCross {
							t.Fatalf("(%d,%v,%d): extras channel %d has class %v, want down-cross", at, arrival, lca, c, lab.ClassOf[c])
						}
						ch := net.Chan(c)
						if ch.Src != atN {
							t.Fatalf("(%d,%v,%d): extras channel %d leaves %d, not %d", at, arrival, lca, c, ch.Src, at)
						}
						if !lab.IsExtendedAncestor(ch.Dst, lcaN) {
							t.Fatalf("(%d,%v,%d): extras endpoint %d cannot complete the descent", at, arrival, lca, ch.Dst)
						}
					}
				}
			}
		}

		// Dynamic sweep: a congested multicast burst drains to idle with
		// the deroute counter budget-bounded.
		budget := int(budgetSel % 4)
		unbounded := unboundedSel%2 == 1
		if unbounded {
			budget = math.MaxInt32
		}
		cfg := DefaultConfig()
		cfg.Params.MessageFlits = 16
		cfg.MisrouteBudget = budget
		s, err := New(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var worms []*Worm
		for i := 0; i < net.NumProcs && i < 16; i++ {
			if trafficBits&(1<<uint(i)) == 0 {
				continue
			}
			src := topology.NodeID(net.NumSwitches + i)
			var dests []topology.NodeID
			seen := map[topology.NodeID]bool{src: true}
			for j := 1; j <= 4; j++ {
				d := topology.NodeID(net.NumSwitches + (i+j*int(1+trafficBits%7))%net.NumProcs)
				if !seen[d] {
					seen[d] = true
					dests = append(dests, d)
				}
			}
			if len(dests) == 0 {
				continue
			}
			w, err := s.Submit(int64(i), src, dests)
			if err != nil {
				t.Fatal(err)
			}
			worms = append(worms, w)
		}
		if len(worms) == 0 {
			return
		}
		if err := s.RunUntilIdle(int64(1e12)); err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		c := s.Counters()
		if cap := uint64(budget) * uint64(len(worms)); c.MisrouteHops > cap {
			t.Fatalf("misroute hops %d exceed budget cap %d (%d worms, budget %d)", c.MisrouteHops, cap, len(worms), budget)
		}
		var spentAll uint64
		for _, w := range worms {
			if !w.Completed() {
				t.Fatalf("budget=%d: worm %d not delivered", budget, w.ID)
			}
			if w.MisrouteLeft < 0 {
				t.Fatalf("worm %d overdrew its misroute budget: %d", w.ID, w.MisrouteLeft)
			}
			spent := budget - int(w.MisrouteLeft)
			if unbounded && spent >= net.NumSwitches {
				t.Fatalf("worm %d took %d deroutes on %d switches: extras hops do not ascend", w.ID, spent, net.NumSwitches)
			}
			spentAll += uint64(spent)
		}
		if spentAll != c.MisrouteHops {
			t.Fatalf("worms spent %d budget units, counter reads %d deroutes", spentAll, c.MisrouteHops)
		}
	})
}
