package viz

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/topology"
)

// TestNetworkDOTGolden pins NetworkDOT byte for byte on a network with
// coordinates and on one without. The goldens are `topogen -format dot`
// output from before the DOT writer moved into this package.
func TestNetworkDOTGolden(t *testing.T) {
	for spec, file := range map[string]string{
		"lattice:16":  "network_lattice16.dot",
		"fattree:2x3": "network_fattree2x3.dot",
	} {
		sp, err := topology.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		net, err := sp.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		got := NetworkDOT(net)
		golden := filepath.Join("testdata", file)
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("reading golden (run with -update to regenerate): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s: NetworkDOT drifted from %s:\n%s", spec, golden, got)
		}
	}
}
