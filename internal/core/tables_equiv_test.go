package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/updown"
)

// equivTopologies yields the random topology sweep the table/reference
// equivalence properties run over: a mix of lattice and unconstrained G(n,m)
// irregular networks across sizes and root strategies, ≥50 in total.
func equivTopologies(t *testing.T) []*updown.Labeling {
	t.Helper()
	var labs []*updown.Labeling
	strategies := []updown.RootStrategy{updown.RootMinID, updown.RootMaxDegree, updown.RootCenter}
	add := func(net *topology.Network, err error, seed uint64) {
		t.Helper()
		if err != nil {
			t.Fatalf("topology: %v", err)
		}
		lab, err := updown.New(net, strategies[seed%3])
		if err != nil {
			t.Fatalf("labeling: %v", err)
		}
		labs = append(labs, lab)
	}
	for seed := uint64(0); seed < 30; seed++ {
		n := 6 + int(seed%5)*6 // 6..30 switches
		net, err := topology.RandomLattice(topology.DefaultLattice(n, seed*7919+13))
		add(net, err, seed)
	}
	for seed := uint64(0); seed < 30; seed++ {
		n := 5 + int(seed%6)*5 // 5..30 switches
		net, err := topology.RandomIrregular(topology.GNMConfig{
			Switches:   n,
			ExtraLinks: n / 2,
			Seed:       seed*104729 + 7,
		})
		add(net, err, seed)
	}
	return labs
}

// TestTablesMatchReference cross-checks the compiled candidate tables
// against the reference routing function on every (switch, arrival class,
// LCA) cell of ≥50 random topologies: same channels, same selection order.
func TestTablesMatchReference(t *testing.T) {
	labs := equivTopologies(t)
	if len(labs) < 50 {
		t.Fatalf("only %d topologies, want >= 50", len(labs))
	}
	arrivals := []ArrivalClass{ArriveInjection, ArriveUp, ArriveDownCross, ArriveDownTree}
	for li, lab := range labs {
		table := NewRouter(lab)
		ref := NewReferenceRouter(lab)
		if !table.TableDriven() || ref.TableDriven() {
			t.Fatalf("router mode flags wrong: table=%v ref=%v", table.TableDriven(), ref.TableDriven())
		}
		s := lab.Net.NumSwitches
		for at := 0; at < s; at++ {
			for _, arrival := range arrivals {
				for lca := 0; lca < s; lca++ {
					atN, lcaN := topology.NodeID(at), topology.NodeID(lca)
					want := ref.ReferenceCandidateOutputs(atN, arrival, lcaN)
					got := table.CandidateOutputs(atN, arrival, lcaN)
					if len(got) != len(want) {
						t.Fatalf("topology %d: (%d,%v,%d): %d candidates, want %d",
							li, at, arrival, lca, len(got), len(want))
					}
					row := table.CandidateChannels(atN, arrival, lcaN)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("topology %d: (%d,%v,%d)[%d]: table %+v, reference %+v",
								li, at, arrival, lca, i, got[i], want[i])
						}
						if row[i] != want[i].Channel {
							t.Fatalf("topology %d: (%d,%v,%d)[%d]: channel row %d, reference %d",
								li, at, arrival, lca, i, row[i], want[i].Channel)
						}
					}
				}
			}
		}
	}
}

// randomDestSet picks 1..min(8, procs) distinct processors.
func randomDestSet(r *rng.Source, net *topology.Network) []topology.NodeID {
	k := 1 + r.Intn(8)
	if k > net.NumProcs {
		k = net.NumProcs
	}
	perm := r.Perm(net.NumProcs)
	dests := make([]topology.NodeID, k)
	for i := 0; i < k; i++ {
		dests[i] = topology.NodeID(net.NumSwitches + perm[i])
	}
	return dests
}

// TestDistributionOutputsMatchReference cross-checks the distribution fast
// path, one range count over the tree-ordered destination set per child,
// against the reference per-destination ancestor walk at every switch for
// random destination sets, on the same ≥50 topologies.
func TestDistributionOutputsMatchReference(t *testing.T) {
	labs := equivTopologies(t)
	r := rng.New(42)
	for li, lab := range labs {
		table := NewRouter(lab)
		ref := NewReferenceRouter(lab)
		for trial := 0; trial < 5; trial++ {
			dests := randomDestSet(r, lab.Net)
			ds, err := table.DestSet(dests)
			if err != nil {
				t.Fatal(err)
			}
			for at := 0; at < lab.Net.NumSwitches; at++ {
				atN := topology.NodeID(at)
				want := ref.ReferenceDistributionOutputs(atN, ds)
				got := table.DistributionOutputs(atN, ds)
				if len(got) != len(want) {
					t.Fatalf("topology %d switch %d: %v, want %v", li, at, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("topology %d switch %d: %v, want %v", li, at, got, want)
					}
				}
				buf := make([]topology.ChannelID, 0, len(want))
				if app := table.AppendDistributionOutputs(buf, atN, ds); len(app) != len(want) {
					t.Fatalf("topology %d switch %d: append variant %v, want %v", li, at, app, want)
				}
			}
		}
	}
}

// TestTreeReachMatchesRecursiveReference checks the iterative bitset-driven
// TreeReach against a recursive walk over the reference distribution
// function.
func TestTreeReachMatchesRecursiveReference(t *testing.T) {
	labs := equivTopologies(t)
	r := rng.New(7)
	for li, lab := range labs {
		table := NewRouter(lab)
		ref := NewReferenceRouter(lab)
		for trial := 0; trial < 5; trial++ {
			dests := randomDestSet(r, lab.Net)
			got, err := table.TreeReach(dests)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := ref.DestSet(dests)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			var walk func(sw topology.NodeID)
			walk = func(sw topology.NodeID) {
				for _, c := range ref.ReferenceDistributionOutputs(sw, ds) {
					want++
					dst := ref.Net.Chan(c).Dst
					if ref.Net.IsSwitch(dst) {
						walk(dst)
					}
				}
			}
			walk(ref.LCASwitch(dests))
			if got != want {
				t.Fatalf("topology %d: TreeReach = %d, recursive reference = %d", li, got, want)
			}
		}
	}
}

// TestTableLookupsAllocationFree pins the hot-path lookups, each filling a
// reused buffer, at zero allocations.
func TestTableLookupsAllocationFree(t *testing.T) {
	net, err := topology.RandomLattice(topology.DefaultLattice(64, 11))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(lab)
	var dests []topology.NodeID
	for p := net.NumSwitches; p < net.N(); p += 3 {
		dests = append(dests, topology.NodeID(p))
	}
	ds, err := r.DestSet(dests)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]topology.ChannelID, 0, 16)
	var sink int
	if n := testing.AllocsPerRun(100, func() {
		for at := 0; at < net.NumSwitches; at++ {
			buf = r.AppendCandidateChannels(buf[:0], topology.NodeID(at), ArriveUp, 0)
			sink += len(buf)
			buf = r.AppendDistributionOutputs(buf[:0], topology.NodeID(at), ds)
			sink += len(buf)
		}
	}); n != 0 {
		t.Fatalf("table lookups allocated %v allocs/run, want 0", n)
	}
	_ = sink
}

// TestTableDedupSharesRows sanity-checks the arena sharing: the deduplicated
// arena must be substantially smaller than materializing every row.
func TestTableDedupSharesRows(t *testing.T) {
	net, err := topology.RandomLattice(topology.DefaultLattice(64, 3))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewRouter(lab).TableMemStats()
	if ms.Cells != 3*64*64 {
		t.Fatalf("index cells = %d, want %d", ms.Cells, 3*64*64)
	}
	if ms.ArenaChannels >= ms.NaiveChannels/2 {
		t.Fatalf("dedup arena %d ≥ half of naive %d: sharing not effective", ms.ArenaChannels, ms.NaiveChannels)
	}
}

// TestBuiltTablesHoldOnlyTheIndex guards what a built router keeps: after
// NewRouterPolicy returns, the compiler (its S×S distance scratch, dedup
// maps and memo) is garbage and the pools are trimmed to their lengths, so
// the live heap the router adds is within 10% of MemStats().TableBytes.
// Keeping the compile scratch puts hypercube:10 at ~1.7×.
func TestBuiltTablesHoldOnlyTheIndex(t *testing.T) {
	sp, err := topology.ParseSpec("hypercube:10")
	if err != nil {
		t.Fatal(err)
	}
	net, err := sp.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := NewRouterPolicy(lab, PolicyMisroute)
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	tb := r.TableMemStats().TableBytes
	if float64(kept) > 1.1*float64(tb) {
		t.Fatalf("router keeps %.2f MiB for %.2f MiB of tables (%.2fx), want ≤ 1.1x",
			float64(kept)/(1<<20), float64(tb)/(1<<20), float64(kept)/float64(tb))
	}
	runtime.KeepAlive(r)
}

// TestTableFootprint bounds the compiled tables of four zoo systems (seed
// 1, min-id root). Port rows shared across switches, shared class tables and
// pages packed to each switch's class-index width hold 0.200, 0.077, 0.185
// and 0.541 MiB. Each bound sits below what rows of global channel IDs under
// 16-bit class pages took (1.130, 0.256, 1.679 and 5.433 MiB), so a return
// to per-switch rows or unpacked pages fails here.
func TestTableFootprint(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		pol    Policy
		maxMiB float64
	}{
		{"lattice:1024", PolicyBaseline, 0.5},
		{"mesh:32x32", PolicyMisroute, 0.2},
		{"fattree:8x4", PolicyMisroute, 0.6},
		{"hypercube:10", PolicyMisroute, 1.2},
	} {
		sp, err := topology.ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		net, err := sp.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := updown.New(net, updown.RootMinID)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(NewRouterPolicy(lab, tc.pol).TableMemStats().TableBytes) / (1 << 20)
		t.Logf("%s %v: %.3f MiB of tables", tc.spec, tc.pol, got)
		if got > tc.maxMiB {
			t.Errorf("%s %v: %.3f MiB of tables, want ≤ %g MiB", tc.spec, tc.pol, got, tc.maxMiB)
		}
	}
}

// TestClassIndexBound pins the uint16 class-index bound: a switch may number
// 65536 LCA classes, and the compiler panics, naming the bound, rather than
// truncate the 65537th.
func TestClassIndexBound(t *testing.T) {
	c := &compiler{
		t:         &Tables{width: numClasses},
		classSeen: make(map[[numClasses + 1]tableRow]uint16),
	}
	for i := 0; i < maxClasses; i++ {
		if got := c.internClass([numClasses + 1]tableRow{{off: uint32(i), n: 1}}); got != uint16(i) {
			t.Fatalf("class %d numbered %d", i, got)
		}
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "65536") {
			t.Fatalf("class %d: recovered %q, want a panic naming the 65536 bound", maxClasses+1, msg)
		}
	}()
	c.internClass([numClasses + 1]tableRow{{off: maxClasses, n: 1}})
}
