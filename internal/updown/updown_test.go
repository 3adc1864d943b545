package updown

import (
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/topology"
)

func fig1Labeling(t *testing.T) *Labeling {
	t.Helper()
	net, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewWithRoot(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestFigure1Levels(t *testing.T) {
	l := fig1Labeling(t)
	// Root switch 0 (paper vertex 1). BFS: level0={0}, level1={1,2},
	// level2={3}, level3={4,5}; processors one deeper than their switch.
	wantLevels := map[topology.NodeID]int32{
		0: 0, 1: 1, 2: 1, 3: 2, 4: 3, 5: 3,
		6: 2,             // proc on switch 1
		7: 4, 8: 4, 9: 4, // procs on switch 4
		10: 4, // proc on switch 5
	}
	for v, want := range wantLevels {
		if l.Level[v] != want {
			t.Errorf("level[%d]=%d want %d", v, l.Level[v], want)
		}
	}
}

func TestFigure1Classification(t *testing.T) {
	l := fig1Labeling(t)
	net := l.Net
	// Tree edges from root 0: 0-1, 0-2, 2-3, 3-4, 3-5 (BFS, ascending
	// neighbor order). Cross edges: 1-2.
	classOf := func(src, dst topology.NodeID) Class {
		c := net.ChannelBetween(src, dst)
		if c == topology.None {
			t.Fatalf("no channel %d->%d", src, dst)
		}
		return l.ClassOf[c]
	}
	// Tree channels.
	for _, e := range [][2]topology.NodeID{{0, 1}, {0, 2}, {2, 3}, {3, 4}, {3, 5}} {
		if got := classOf(e[0], e[1]); got != DownTree {
			t.Errorf("channel %d->%d class %v want down-tree", e[0], e[1], got)
		}
		if got := classOf(e[1], e[0]); got != Up {
			t.Errorf("channel %d->%d class %v want up", e[1], e[0], got)
		}
	}
	// Cross edge 1-2: same level, so larger ID -> smaller is up.
	if got := classOf(2, 1); got != Up {
		t.Errorf("cross 2->1 class %v want up", got)
	}
	if got := classOf(1, 2); got != DownCross {
		t.Errorf("cross 1->2 class %v want down-cross", got)
	}
	// Processor channels.
	if got := classOf(6, 1); got != Up {
		t.Errorf("proc 6->switch 1 class %v want up", got)
	}
	if got := classOf(1, 6); got != DownTree {
		t.Errorf("switch 1->proc 6 class %v want down-tree", got)
	}
}

func TestFigure1Verify(t *testing.T) {
	if err := fig1Labeling(t).Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAncestors(t *testing.T) {
	l := fig1Labeling(t)
	// Tree: 0 -> {1,2}, 2 -> 3, 3 -> {4,5}. Proc 7 on switch 4.
	cases := []struct {
		u, v topology.NodeID
		want bool
	}{
		{0, 7, true}, // root is ancestor of everything
		{2, 7, true}, // on path 0-2-3-4-7
		{3, 7, true},
		{4, 7, true},
		{7, 7, true},  // reflexive
		{1, 7, false}, // switch 1 not on the path
		{5, 7, false},
		{7, 4, false}, // not symmetric
	}
	for _, c := range cases {
		if got := l.IsAncestor(c.u, c.v); got != c.want {
			t.Errorf("IsAncestor(%d,%d)=%v want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestExtendedAncestors(t *testing.T) {
	l := fig1Labeling(t)
	// Down-cross channel 1->2 exists, so 1 is an extended ancestor of
	// everything in subtree(2) = {2,3,4,5,7,8,9,10}.
	for _, v := range []topology.NodeID{2, 3, 4, 5, 7, 8, 9, 10} {
		if !l.IsExtendedAncestor(1, v) {
			t.Errorf("1 should be extended ancestor of %d", v)
		}
	}
	// But 1 is NOT a tree ancestor of those.
	if l.IsAncestor(1, 3) {
		t.Error("1 must not be a tree ancestor of 3")
	}
	// 2 is not an extended ancestor of 6 (proc of switch 1): no down path.
	if l.IsExtendedAncestor(2, 6) {
		t.Error("2 must not be extended ancestor of 6")
	}
	// Ancestor implies extended ancestor.
	if !l.IsExtendedAncestor(0, 10) {
		t.Error("root must be extended ancestor of 10")
	}
}

func TestLCA(t *testing.T) {
	l := fig1Labeling(t)
	cases := []struct {
		a, b, want topology.NodeID
	}{
		{7, 8, 4},  // two procs on switch 4
		{7, 10, 3}, // proc on 4 and proc on 5 meet at 3
		{6, 7, 0},  // proc on 1 and proc on 4 meet at root
		{7, 7, 7},  // self
		{4, 7, 4},  // switch and its own proc
	}
	for _, c := range cases {
		if got := l.LCA(c.a, c.b); got != c.want {
			t.Errorf("LCA(%d,%d)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCAOfSetAndSwitch(t *testing.T) {
	l := fig1Labeling(t)
	// Paper's example: multicast from node 5 (our proc 6) to nodes
	// 8,9,10,11 (our procs 7,8,9,10). LCA is paper node 4 = our switch 3.
	if got := l.LCAOfSet([]topology.NodeID{7, 8, 9, 10}); got != 3 {
		t.Errorf("LCAOfSet=%d want 3", got)
	}
	// Single destination: LCA is the processor, LCASwitch its switch.
	if got := l.LCAOfSet([]topology.NodeID{7}); got != 7 {
		t.Errorf("single LCAOfSet=%d want 7", got)
	}
	if got := l.LCASwitch([]topology.NodeID{7}); got != 4 {
		t.Errorf("LCASwitch=%d want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("LCAOfSet(empty) did not panic")
		}
	}()
	l.LCAOfSet(nil)
}

func TestChildChans(t *testing.T) {
	l := fig1Labeling(t)
	// Switch 3 (paper node 4) has tree children 4 and 5 (paper 6 and 7).
	kids := map[topology.NodeID]bool{}
	for _, c := range l.Children(3) {
		kids[l.Net.Chan(c).Dst] = true
	}
	if !kids[4] || !kids[5] || len(kids) != 2 {
		t.Fatalf("children of 3: %v", kids)
	}
	// Switch 4 (paper 6) has three processor children.
	if len(l.Children(4)) != 3 {
		t.Fatalf("switch 4 has %d child channels", len(l.Children(4)))
	}
	// Every node's children come in ascending channel ID, each one's
	// parent channel; processors have none.
	for v := 0; v < l.Net.N(); v++ {
		kids := l.Children(topology.NodeID(v))
		if l.Net.IsProcessor(topology.NodeID(v)) && len(kids) != 0 {
			t.Fatalf("processor %d has child channels %v", v, kids)
		}
		for i, c := range kids {
			if i > 0 && kids[i-1] >= c {
				t.Fatalf("children of %d not in ascending channel ID: %v", v, kids)
			}
			if l.ParentChan[l.Net.Chan(c).Dst] != c {
				t.Fatalf("child channel %d of %d is not its endpoint's parent channel", c, v)
			}
		}
	}
	// ParentChan inverse consistency.
	for v := 0; v < l.Net.N(); v++ {
		if topology.NodeID(v) == l.Root {
			continue
		}
		pc := l.ParentChan[v]
		if pc == topology.None {
			t.Fatalf("node %d has no parent channel", v)
		}
		ch := l.Net.Chan(pc)
		if ch.Dst != topology.NodeID(v) || ch.Src != l.Parent[v] {
			t.Fatalf("parent chan of %d wrong: %+v", v, ch)
		}
	}
}

func TestRootStrategies(t *testing.T) {
	net, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []RootStrategy{RootMinID, RootMaxDegree, RootCenter} {
		l, err := New(net, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !net.IsSwitch(l.Root) {
			t.Fatalf("%v: root %d not a switch", s, l.Root)
		}
		if err := l.Verify(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
	if l, _ := New(net, RootMinID); l.Root != 0 {
		t.Fatal("min-id root not 0")
	}
	// Max degree in fig1 is switch 3 (paper 4): links to 2,4,5 = 3... and
	// switch 2 has links to 0,1,3 = 3. Tie -> smallest ID = 2.
	if l, _ := New(net, RootMaxDegree); l.Root != 2 {
		t.Fatalf("max-degree root = %d", l.Root)
	}
	if s := RootMinID.String(); s != "min-id" {
		t.Fatalf("strategy string %q", s)
	}
}

func TestBadRoot(t *testing.T) {
	net, _ := topology.Figure1()
	if _, err := NewWithRoot(net, topology.NodeID(net.NumSwitches)); err == nil {
		t.Fatal("processor root accepted")
	}
	if _, err := NewWithRoot(net, -1); err == nil {
		t.Fatal("negative root accepted")
	}
}

func TestClassString(t *testing.T) {
	if Up.String() != "up" || DownTree.String() != "down-tree" || DownCross.String() != "down-cross" {
		t.Fatal("class strings wrong")
	}
}

// TestVerifyCatchesCorruption corrupts one preorder interval or the tree
// order of a correct labeling and expects Verify to refuse it. Figure 1's
// tree numbers 0:[0,6) 1:[1,2) 2:[2,6) 3:[3,6) 4:[4,5) 5:[5,6), and switch
// 4, in preorder slot 4, owns three processors.
func TestVerifyCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(l *Labeling)
	}{
		{"leaf interval overlaps its sibling", func(l *Labeling) { l.end[4] = 6 }},
		{"two intervals share a start", func(l *Labeling) { l.pre[5] = 4 }},
		{"interval ends before its children's", func(l *Labeling) { l.end[3] = 5 }},
		{"root interval short of every switch", func(l *Labeling) { l.end[0] = 5 }},
		{"two processors' ranks swapped", func(l *Labeling) { l.rank[0], l.rank[1] = l.rank[1], l.rank[0] }},
		{"a switch's processor range starts one late", func(l *Labeling) { l.start[4]++ }},
	} {
		l := fig1Labeling(t)
		if err := l.Verify(); err != nil {
			t.Fatalf("%s: before corruption: %v", tc.name, err)
		}
		tc.corrupt(l)
		if err := l.Verify(); err == nil {
			t.Errorf("%s: Verify accepted the corrupted labeling", tc.name)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
}

// TestNewFootprint guards what one labeling build allocates and what the
// network it labels retains. A built labeling holds flat arrays only:
// per-node, per-channel and per-switch arrays, the tree order and the child
// CSR, with no switch×switch or switch×node relation. The S×N descendant
// rows it held before the tree order put torus:16x16/64, lattice:1024 and
// fattree:8x4 at 1.451, 0.409 and 1.995 MiB (0.460, 0.087 and 0.305
// without them), and storing ancestor, extended-ancestor,
// extended-descendant and cross-reach rows over all switch pairs put
// lattice:1024 at ~1.06 MiB and fattree:8x4 at ~4.28 MiB, so every case
// fails with either. torus:16x16/64 — 256 switches, 16,384 processors —
// guards the processor dimension. A built network is one flat CSR over
// paired channels; with per-node out and in lists and a held switch graph
// the same three networks retained 1.943, 0.359 and 1.386 MiB, past every
// network bound.
func TestNewFootprint(t *testing.T) {
	for _, tc := range []struct {
		spec             string
		limitMiB, netMiB float64
	}{
		{"torus:16x16/64", 0.75, 0.8},
		{"lattice:1024", 0.2, 0.15},
		{"fattree:8x4", 0.5, 0.6},
	} {
		sp, err := topology.ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		net, err := sp.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		held := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
		t.Logf("%s network retains %.3f MiB", tc.spec, held)
		if held >= tc.netMiB {
			t.Errorf("%s network retains %.3f MiB, want < %g MiB", tc.spec, held, tc.netMiB)
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		l, err := New(net, RootMinID)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("New(%s) allocated %.3f MiB", tc.spec, got)
		if got >= tc.limitMiB {
			t.Errorf("New(%s) allocated %.3f MiB, want < %g MiB", tc.spec, got, tc.limitMiB)
		}
		runtime.KeepAlive(l)
	}
}

// TestRelabelAllocationFree pins the hot-reconfiguration contract: after
// its first call on a labeling, Relabel rebuilds the tree order and the
// child CSR into their arrays, so failing a link and restoring it allocates
// nothing, and both labelings verify.
func TestRelabelAllocationFree(t *testing.T) {
	sp, err := topology.ParseSpec("torus:6x6/2")
	if err != nil {
		t.Fatal(err)
	}
	net, err := sp.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(net, RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	mask := bitset.New(len(net.Channels))
	c := net.Out(0)[0]
	mask.Set(int(c))
	mask.Set(int(c.Reverse()))
	var relabelErr error
	if n := testing.AllocsPerRun(20, func() {
		if err := l.Relabel(mask); err != nil {
			relabelErr = err
		}
		if err := l.Relabel(nil); err != nil {
			relabelErr = err
		}
	}); n != 0 {
		t.Fatalf("Relabel allocated %v times per fail/restore pair, want 0", n)
	}
	if relabelErr != nil {
		t.Fatal(relabelErr)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("restored: %v", err)
	}
	if err := l.Relabel(mask); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("masked: %v", err)
	}
}
