package topology_test

import (
	"testing"

	"repro/internal/topology"
)

// FuzzParseSpec is the spec grammar's input contract: ParseSpec never
// panics, every spec it accepts round-trips through String, and a spec
// predicted to be small builds without a panic into exactly the predicted
// numbers of switches and nodes. "Small" keeps the fuzzer from building anything
// large: 1 to 256 switches, at most 4 processors per switch, and no more gnm
// extra links than a 4-port budget can place (2 per switch).
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		// Dimension products that wrap around to 4 switches, a level count
		// that spun the prediction loop, and an unplaceable extra-link count.
		"mesh:4611686018427387905x4", "torus:4611686018427387905x4",
		"fattree:1x4611686018427387905", "gnm:64+1000000000",
		// The benchmark's serve-zoo catalog.
		"lattice:1024", "gnm:1024+256", "mesh:32x32", "torus:32x32", "hypercube:10", "fattree:8x4",
		"lattice:256", "gnm:128+48", "mesh:16x16", "torus:8x8", "hypercube:6", "fattree:4x4",
		// The grammar's forms, as documented on Spec.
		"lattice:128", "gnm:64+32", "mesh:8x8", "torus:8x8/2", "hypercube:6", "fattree:4x3", "file:net.adj",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := topology.ParseSpec(s)
		if err != nil {
			return
		}
		if back, err := topology.ParseSpec(sp.String()); err != nil || back != sp {
			t.Fatalf("ParseSpec(%q) = %+v, but its String %q parses to %+v, %v", s, sp, sp.String(), back, err)
		}
		n := sp.Switches()
		if n < 1 || n > 256 || sp.Procs > 4 || (sp.Family == "gnm" && sp.Extra > 2*n) {
			return
		}
		net, err := sp.Build(1)
		if err != nil {
			return
		}
		if net.NumSwitches != n {
			t.Fatalf("%q: built %d switches, Switches() predicts %d", s, net.NumSwitches, n)
		}
		if net.N() != sp.Nodes() {
			t.Fatalf("%q: built %d nodes, Nodes() predicts %d", s, net.N(), sp.Nodes())
		}
	})
}
