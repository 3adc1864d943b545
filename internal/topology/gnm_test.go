package topology

import (
	"slices"
	"testing"
)

func TestRandomIrregularConnectedAndSized(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		cfg := GNMConfig{Switches: 40, ExtraLinks: 25, MaxSwitchLinks: 6, MaxPorts: 8, Seed: seed}
		n, err := RandomIrregular(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reachesAll(n) {
			t.Fatalf("seed %d: disconnected", seed)
		}
		if n.NumProcs != 40 {
			t.Fatalf("seed %d: %d procs", seed, n.NumProcs)
		}
		wantLinks := 40 - 1 + 25
		if got := n.Links(); got != wantLinks {
			t.Fatalf("seed %d: %d links want %d", seed, got, wantLinks)
		}
	}
}

func TestRandomIrregularDegreeCapMostlyRespected(t *testing.T) {
	// Extra links strictly respect the cap; tree edges may exceed it only
	// when forced. With a generous cap nothing should exceed it.
	n, err := RandomIrregular(GNMConfig{Switches: 64, ExtraLinks: 40, MaxSwitchLinks: 7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	over := 0
	for sw := 0; sw < 64; sw++ {
		if len(n.SwitchOut(NodeID(sw))) > 7 {
			over++
		}
	}
	if over > 3 {
		t.Fatalf("%d switches exceed the degree cap", over)
	}
}

func TestRandomIrregularExtrasSaturate(t *testing.T) {
	// Requesting more extra links than fit just adds what it can.
	n, err := RandomIrregular(GNMConfig{Switches: 4, ExtraLinks: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n.Links() > 6 { // complete graph on 4 vertices
		t.Fatalf("%d links in K4-bounded graph", n.Links())
	}
}

func TestRandomIrregularValidation(t *testing.T) {
	if _, err := RandomIrregular(GNMConfig{Switches: 0}); err == nil {
		t.Fatal("0 switches accepted")
	}
}

func TestRandomIrregularMultiProc(t *testing.T) {
	n, err := RandomIrregular(GNMConfig{Switches: 10, ExtraLinks: 5, ProcsPerSwitch: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumProcs != 30 {
		t.Fatalf("%d procs", n.NumProcs)
	}
	for sw := 0; sw < 10; sw++ {
		if len(n.ProcessorsOf(NodeID(sw))) != 3 {
			t.Fatalf("switch %d has %d procs", sw, len(n.ProcessorsOf(NodeID(sw))))
		}
	}
}

func TestRandomIrregularDeterministic(t *testing.T) {
	cfg := GNMConfig{Switches: 30, ExtraLinks: 15, Seed: 11}
	a, err := RandomIrregular(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomIrregular(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Channels, b.Channels) {
		t.Fatal("nondeterministic links")
	}
}
