package campaign

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// TestBuiltinRoutingManifest validates the adaptive-routing comparator
// manifest without running it: the three policy grids resolve to the
// intended (policy, budget) pairs through the same workload clamp the
// runners use, the routing experiment driver is registered, and the cell
// count pins the sweep's shape so a silent grid edit shows up here.
func TestBuiltinRoutingManifest(t *testing.T) {
	m, ok := Builtin("routing")
	if !ok {
		t.Fatal("no routing manifest")
	}
	if err := m.Validate(false); err != nil {
		t.Fatal(err)
	}
	if got := m.NumCells(); got != 36 {
		t.Errorf("routing manifest: %d cells, want 36 (3 policies x 6 topologies x 2 scenarios)", got)
	}
	want := map[string]struct {
		pol    core.Policy
		budget int
	}{
		"baseline":   {core.PolicyBaseline, 0},
		"misroute-2": {core.PolicyMisroute, 2},
		"duato":      {core.PolicyMisroute, math.MaxInt32},
	}
	if len(m.Grids) != len(want) {
		t.Fatalf("routing manifest has %d grids, want %d", len(m.Grids), len(want))
	}
	for _, g := range m.Grids {
		w, ok := want[g.Name]
		if !ok {
			t.Errorf("unexpected grid %q", g.Name)
			continue
		}
		pol, budget, err := workload.RoutingPolicy(g.Params)
		if err != nil {
			t.Errorf("grid %q: %v", g.Name, err)
			continue
		}
		if pol != w.pol || budget != w.budget {
			t.Errorf("grid %q resolves to (%v, %d), want (%v, %d)", g.Name, pol, budget, w.pol, w.budget)
		}
	}
	for _, e := range m.Experiments {
		if experiment.DriverDescription(e.Driver) == "" {
			t.Errorf("experiment driver %q not registered", e.Driver)
		}
	}
	found := false
	for _, name := range BuiltinNames() {
		if name == "routing" {
			found = true
		}
	}
	if !found {
		t.Error("routing missing from BuiltinNames")
	}

	// A manifest smuggling a budget under the wrong policy must not
	// validate: the same guard the service applies per request.
	bad, _ := Builtin("routing")
	bad.Grids[2].Params.MisrouteBudget = 1 // duato grid
	err := bad.Validate(false)
	if err == nil || !strings.Contains(err.Error(), "requires routing=misroute") {
		t.Errorf("budget-on-duato manifest validated: %v", err)
	}
}

// routingSmokeManifest is the seconds-scale slice of the routing comparator:
// all three policy grids on one small irregular topology.
func routingSmokeManifest() *Manifest {
	grid := func(name string, p workload.Params) Grid {
		p.Messages = 120
		return Grid{
			Name:       name,
			Topologies: []string{"gnm:16+8"},
			Scenarios:  []string{"hotspot"},
			Trials:     1,
			Params:     p,
		}
	}
	return &Manifest{
		Name: "routing-smoke",
		Seed: 1998,
		Grids: []Grid{
			grid("baseline", workload.Params{}),
			grid("misroute-2", workload.Params{Routing: "misroute", MisrouteBudget: 2}),
			grid("duato", workload.Params{Routing: "duato"}),
		},
	}
}

// TestRoutingSmokeDeterministic runs the three-policy smoke slice at 1 and 4
// workers and demands byte-identical reports, SVGs and cell results — the
// same property CI enforces for the full builtin by diffing two REPORT.md
// runs, kept seconds-scale here.
func TestRoutingSmokeDeterministic(t *testing.T) {
	a, err := Run(context.Background(), routingSmokeManifest(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), routingSmokeManifest(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Report != b.Report {
		t.Error("routing smoke reports differ across worker counts")
	}
	if !reflect.DeepEqual(a.SVGs, b.SVGs) {
		t.Error("routing smoke SVGs differ across worker counts")
	}
	if !reflect.DeepEqual(a.Cells, b.Cells) {
		t.Error("routing smoke cell results differ across worker counts")
	}
	if len(a.Cells) != 3 {
		t.Fatalf("routing smoke: %d cells, want 3", len(a.Cells))
	}
}
