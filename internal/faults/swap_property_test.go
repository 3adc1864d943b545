package faults

// The hot-swap correctness property: after any sequence of applied
// mutations, the injector's in-place relabeled labeling and recompiled
// tables are bit-identical to a *fresh* NewRouter build over the mutated
// topology — the same cross-check pattern the reference router pins for the
// base tables, extended over live reconfiguration.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/updown"
)

// buildNet builds topology t of the property sweep: lattices and G(n,m)
// irregulars alternate.
func buildNet(t *testing.T, i int) *topology.Network {
	t.Helper()
	seed := uint64(5000 + i*131)
	if i%2 == 0 {
		net, err := topology.RandomLattice(topology.DefaultLattice(12+(i%5)*4, seed))
		if err != nil {
			t.Fatalf("lattice %d: %v", i, err)
		}
		return net
	}
	net, err := topology.RandomIrregular(topology.GNMConfig{
		Switches:   12 + (i%5)*4,
		ExtraLinks: 6 + i%9,
		Seed:       seed,
	})
	if err != nil {
		t.Fatalf("gnm %d: %v", i, err)
	}
	return net
}

// labelingsEqual compares every externally visible field of two labelings.
func labelingsEqual(t *testing.T, ctx string, a, b *updown.Labeling) {
	t.Helper()
	if a.Root != b.Root {
		t.Fatalf("%s: root %d != %d", ctx, a.Root, b.Root)
	}
	for v := range a.Level {
		if a.Level[v] != b.Level[v] || a.Parent[v] != b.Parent[v] || a.ParentChan[v] != b.ParentChan[v] {
			t.Fatalf("%s: node %d: level/parent mismatch", ctx, v)
		}
		ka, kb := a.Children(topology.NodeID(v)), b.Children(topology.NodeID(v))
		if len(ka) != len(kb) {
			t.Fatalf("%s: node %d: child count %d != %d", ctx, v, len(ka), len(kb))
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("%s: node %d: child chan %d mismatch", ctx, v, i)
			}
		}
	}
	for v := 0; v < a.Net.NumSwitches; v++ {
		sw := topology.NodeID(v)
		preA, endA := a.Interval(sw)
		preB, endB := b.Interval(sw)
		loA, hiA := a.ProcRange(sw)
		loB, hiB := b.ProcRange(sw)
		if preA != preB || endA != endB || loA != loB || hiA != hiB {
			t.Fatalf("%s: switch %d: interval [%d,%d) ranks [%d,%d) != [%d,%d) ranks [%d,%d)",
				ctx, v, preA, endA, loA, hiA, preB, endB, loB, hiB)
		}
	}
	for i := 0; i < a.Net.NumProcs; i++ {
		p := topology.NodeID(a.Net.NumSwitches + i)
		if a.Rank(p) != b.Rank(p) || a.ProcAt(i) != b.ProcAt(i) {
			t.Fatalf("%s: processor %d: rank %d != %d, or rank %d holds %d != %d",
				ctx, p, a.Rank(p), b.Rank(p), i, a.ProcAt(i), b.ProcAt(i))
		}
	}
	for c := range a.ClassOf {
		if a.ClassOf[c] != b.ClassOf[c] {
			t.Fatalf("%s: channel %d: class %v != %v", ctx, c, a.ClassOf[c], b.ClassOf[c])
		}
	}
	s := a.Net.NumSwitches
	da, db, queue := make([]int32, s), make([]int32, s), make([]int32, s)
	for u := 0; u < s; u++ {
		a.SwitchDistances(topology.NodeID(u), da, queue)
		b.SwitchDistances(topology.NodeID(u), db, queue)
		for v := range da {
			if da[v] != db[v] {
				t.Fatalf("%s: dist[%d][%d]: %d != %d", ctx, u, v, da[v], db[v])
			}
		}
	}
	if !a.DownChannels().Equal(b.DownChannels()) {
		t.Fatalf("%s: down masks differ", ctx)
	}
}

// TestHotSwapMatchesFreshRouter is the PR's headline property: ≥40 random
// lattice/G(n,m) topologies × several multi-link fault/repair batches, and
// after every batch the hot-swapped state equals a from-scratch build —
// labeling, compiled tables (bit-identical content) and, cross-checked cell
// by cell, the reference routing function over the masked labeling.
func TestHotSwapMatchesFreshRouter(t *testing.T) {
	const topologies = 44
	for i := 0; i < topologies; i++ {
		i := i
		t.Run(fmt.Sprintf("topo%02d", i), func(t *testing.T) {
			t.Parallel()
			net := buildNet(t, i)
			baseLab, err := updown.New(net, updown.RootStrategy(i%3))
			if err != nil {
				t.Fatal(err)
			}
			s, err := sim.New(core.NewRouter(baseLab), sim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			inj, err := NewInjector(s)
			if err != nil {
				t.Fatal(err)
			}
			// Sanity: the injector's private base build equals the shared one.
			if !inj.Router().Tables().EqualContent(core.NewRouter(baseLab).Tables()) {
				t.Fatal("private base tables differ from shared build")
			}

			r := rng.New(uint64(900 + i))
			link := func() (int32, int32) {
				u, v := net.Link(r.Intn(net.Links()))
				return int32(u), int32(v)
			}
			for batch := 0; batch < 4; batch++ {
				// A batch of random downs plus, from batch 1 on, random
				// repair attempts — multi-link mutations in one step.
				n := 1 + r.Intn(3)
				for k := 0; k < n; k++ {
					u, v := link()
					if _, err := inj.Apply(Event{Kind: LinkDown, U: u, V: v}); err != nil {
						t.Fatal(err)
					}
				}
				if batch > 0 {
					u, v := link()
					if _, err := inj.Apply(Event{Kind: LinkUp, U: u, V: v}); err != nil {
						t.Fatal(err)
					}
				}
				ctx := fmt.Sprintf("topo %d batch %d (links down %d)", i, batch, inj.DownLinks())

				fresh, err := updown.NewWithDown(net, baseLab.Root, inj.DownChannels())
				if err != nil {
					t.Fatalf("%s: fresh relabel: %v", ctx, err)
				}
				if err := fresh.Verify(); err != nil {
					t.Fatalf("%s: fresh verify: %v", ctx, err)
				}
				labelingsEqual(t, ctx, inj.Labeling(), fresh)

				freshRouter := core.NewRouter(fresh)
				if !inj.Router().Tables().EqualContent(freshRouter.Tables()) {
					t.Fatalf("%s: hot-swapped tables != fresh NewRouter tables", ctx)
				}

				// Reference cross-check over every (arrival, at, lca) cell.
				ref := core.NewReferenceRouter(fresh)
				arrivals := []core.ArrivalClass{core.ArriveUp, core.ArriveDownCross, core.ArriveDownTree}
				for at := 0; at < net.NumSwitches; at++ {
					for lca := 0; lca < net.NumSwitches; lca++ {
						for _, arr := range arrivals {
							got := inj.Router().CandidateChannels(topology.NodeID(at), arr, topology.NodeID(lca))
							want := ref.ReferenceCandidateOutputs(topology.NodeID(at), arr, topology.NodeID(lca))
							if len(got) != len(want) {
								t.Fatalf("%s: cell (%v,%d,%d): %d candidates, reference %d",
									ctx, arr, at, lca, len(got), len(want))
							}
							for k := range got {
								if got[k] != want[k].Channel {
									t.Fatalf("%s: cell (%v,%d,%d) slot %d: %d != %d",
										ctx, arr, at, lca, k, got[k], want[k].Channel)
								}
							}
						}
					}
				}
			}

			// Full restore: repairing every failed link must reproduce the
			// base tables bit-identically.
			for k := 0; k < net.Links(); k++ {
				u, v := net.Link(k)
				if _, err := inj.Apply(Event{Kind: LinkUp, U: int32(u), V: int32(v)}); err != nil {
					t.Fatal(err)
				}
			}
			if inj.DownLinks() != 0 {
				t.Fatalf("restore left %d links down", inj.DownLinks())
			}
			if !inj.Router().Tables().EqualContent(core.NewRouter(baseLab).Tables()) {
				t.Fatal("restored tables differ from base build")
			}
			labelingsEqual(t, "restored", inj.Labeling(), baseLab)
		})
	}
}
