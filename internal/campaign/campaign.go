package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/topology"
	"repro/internal/workload"
)

// Manifest is the declarative description of a reproduction campaign: a set
// of named experiment drivers (the paper's figures and tables) plus grids of
// (topology family × workload scenario × fault profile × seed) cells. A
// (manifest, seed) pair replays bit-identically; see Run.
type Manifest struct {
	// Name identifies the campaign (used in report headers and checkpoint
	// file names).
	Name string `json:"name"`
	// Title overrides the report title (default: derived from Name).
	Title string `json:"title,omitempty"`
	// Seed is the campaign base seed; experiment and grid entries without
	// their own seed derive from it.
	Seed uint64 `json:"seed"`
	// Experiments lists figure/table drivers to regenerate.
	Experiments []Experiment `json:"experiments,omitempty"`
	// Grids lists scenario grids to sweep.
	Grids []Grid `json:"grids,omitempty"`
}

// Experiment names one figure/table driver of the paper reproduction (see
// experiment.Drivers) with its sampling effort.
type Experiment struct {
	// Driver is a name from the experiment driver registry (fig2, fig3,
	// compare, ...).
	Driver string `json:"driver"`
	// Trials is samples per data point (0 = driver default).
	Trials int `json:"trials,omitempty"`
	// Messages is the per-point message budget (0 = driver default).
	Messages int `json:"messages,omitempty"`
	// Seed overrides the manifest seed for this experiment (0 = inherit).
	Seed uint64 `json:"seed,omitempty"`
}

// Grid is a cross-product sweep: every topology × scenario × fault profile
// × seed combination becomes one cell, measured with the workload engine's
// warmup + batch-means harness.
type Grid struct {
	// Name identifies the grid in the report.
	Name string `json:"name"`
	// Topologies are topology spec strings (see topology.ParseSpec), e.g.
	// "lattice:64", "torus:8x8", "fattree:4x3".
	Topologies []string `json:"topologies"`
	// Scenarios are workload registry names (see workload.Scenarios).
	Scenarios []string `json:"scenarios"`
	// FaultProfiles compose each scenario with a fault timeline: "" (none),
	// "poisson", "maintenance" or "regional". Default: [""].
	FaultProfiles []string `json:"fault_profiles,omitempty"`
	// Seeds lists workload seeds (default: [manifest seed]). Random
	// topology families also consume the cell seed.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Trials is the replication count per cell (default 3).
	Trials int `json:"trials,omitempty"`
	// WarmupMessages are excluded per trial (0 = a tenth of the budget).
	WarmupMessages int `json:"warmup_messages,omitempty"`
	// Params are the shared scenario knobs of every cell in the grid.
	Params workload.Params `json:"params,omitempty"`
}

// Cell identifies one grid cell.
type Cell struct {
	Grid     string `json:"grid"`
	Topology string `json:"topology"`
	Scenario string `json:"scenario"`
	// Fault is the fault profile ("" = none).
	Fault string `json:"fault,omitempty"`
	Seed  uint64 `json:"seed"`
}

func (c Cell) String() string {
	f := c.Fault
	if f == "" {
		f = "none"
	}
	return fmt.Sprintf("%s/%s/%s/faults=%s/seed=%d", c.Grid, c.Topology, c.Scenario, f, c.Seed)
}

// Parse decodes a manifest from JSON, rejecting unknown fields so typos
// surface as errors instead of silently-ignored knobs.
func Parse(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("campaign: parsing manifest: %w", err)
	}
	return &m, nil
}

// Validate checks the manifest against the driver registry, the scenario
// registry, the topology spec grammar and the fault-parameter validator.
// When allowFiles is false, file: topology specs are rejected (the serving
// layer must not read server-side paths on request).
func (m *Manifest) Validate(allowFiles bool) error {
	if m.Name == "" {
		return fmt.Errorf("campaign: manifest has no name")
	}
	if len(m.Experiments) == 0 && len(m.Grids) == 0 {
		return fmt.Errorf("campaign: manifest %s has no experiments and no grids", m.Name)
	}
	seen := map[string]bool{}
	for i, e := range m.Experiments {
		if e.Driver == "" {
			return fmt.Errorf("campaign: experiment %d has no driver", i)
		}
		if _, err := driverProbe(e.Driver); err != nil {
			return err
		}
	}
	for gi, g := range m.Grids {
		if g.Name == "" {
			return fmt.Errorf("campaign: grid %d has no name", gi)
		}
		if seen[g.Name] {
			return fmt.Errorf("campaign: duplicate grid name %q", g.Name)
		}
		seen[g.Name] = true
		if len(g.Topologies) == 0 || len(g.Scenarios) == 0 {
			return fmt.Errorf("campaign: grid %s needs topologies and scenarios", g.Name)
		}
		for _, ts := range g.Topologies {
			sp, err := topology.ParseSpec(ts)
			if err != nil {
				return fmt.Errorf("campaign: grid %s: %w", g.Name, err)
			}
			if sp.Family == "file" && !allowFiles {
				return fmt.Errorf("campaign: grid %s: file topology %q not allowed here", g.Name, ts)
			}
		}
		for _, sc := range g.Scenarios {
			if _, ok := workload.Lookup(sc); !ok {
				return fmt.Errorf("campaign: grid %s: unknown scenario %q", g.Name, sc)
			}
		}
		// Validate every fault-profile cell the grid expands to — including
		// the default taken from Params.FaultProfile when the axis is
		// empty, so no fault configuration escapes validation.
		for _, f := range gridProfiles(&g) {
			p := g.Params
			p.FaultProfile = f
			if err := workload.ValidateFaultParams(p); err != nil {
				return fmt.Errorf("campaign: grid %s: %w", g.Name, err)
			}
		}
		// The routing-policy and root axes ride Params too; a typoed policy
		// or a budget on a non-misroute grid must fail validation, not run a
		// silently different experiment.
		if err := workload.ValidateRoutingParams(g.Params); err != nil {
			return fmt.Errorf("campaign: grid %s: %w", g.Name, err)
		}
	}
	return nil
}

// cells expands the manifest's grids into the deterministic cell order:
// grid-major, then topology, scenario, fault profile, seed.
func (m *Manifest) cells() []Cell {
	var out []Cell
	for _, g := range m.Grids {
		profiles := gridProfiles(&g)
		seeds := g.Seeds
		if len(seeds) == 0 {
			seeds = []uint64{m.Seed}
		}
		for _, topo := range g.Topologies {
			for _, sc := range g.Scenarios {
				for _, f := range profiles {
					for _, seed := range seeds {
						out = append(out, Cell{Grid: g.Name, Topology: topo, Scenario: sc, Fault: f, Seed: seed})
					}
				}
			}
		}
	}
	return out
}

// gridProfiles resolves a grid's fault-profile axis: the explicit list, or
// the single profile carried in Params (usually "" = no faults). The cell
// coordinate is therefore always the profile that actually runs.
func gridProfiles(g *Grid) []string {
	if len(g.FaultProfiles) > 0 {
		return g.FaultProfiles
	}
	return []string{g.Params.FaultProfile}
}

// NumCells reports how many grid cells the manifest expands to, by
// arithmetic on the grid axes rather than by expanding them, so serving
// layers can refuse an oversized manifest before allocating anything. The
// count saturates at math.MaxInt.
func (m *Manifest) NumCells() int {
	total := 0
	for i := range m.Grids {
		g := &m.Grids[i]
		n := 1
		for _, k := range [...]int{len(g.Topologies), len(g.Scenarios), max(1, len(g.FaultProfiles)), max(1, len(g.Seeds))} {
			if k != 0 && n > math.MaxInt/k {
				return math.MaxInt
			}
			n *= k
		}
		if total > math.MaxInt-n {
			return math.MaxInt
		}
		total += n
	}
	return total
}

// grid returns the named grid.
func (m *Manifest) grid(name string) *Grid {
	for i := range m.Grids {
		if m.Grids[i].Name == name {
			return &m.Grids[i]
		}
	}
	return nil
}

// Builtin returns a named built-in manifest: "paper" regenerates every
// figure/table driver of the reproduction plus a topology-zoo grid, "smoke"
// is the seconds-scale manifest CI uses to assert end-to-end determinism.
func Builtin(name string) (*Manifest, bool) {
	switch name {
	case "paper":
		m := &Manifest{
			Name:  "paper",
			Title: "SPAM reproduction campaign (Libeskind-Hadas, Mazzoni, Rajagopalan; IPPS/SPDP 1998)",
			Seed:  1998,
		}
		for _, d := range driverNames() {
			m.Experiments = append(m.Experiments, Experiment{Driver: d, Trials: 10, Messages: 1200})
		}
		m.Grids = []Grid{{
			Name: "topology-zoo",
			Topologies: []string{
				"lattice:64", "gnm:64+24", "mesh:8x8", "torus:8x8",
				"hypercube:6", "fattree:4x3",
			},
			Scenarios:     []string{"mixed", "hotspot", "closed-loop"},
			FaultProfiles: []string{"", "poisson"},
			Trials:        2,
			Params:        workload.Params{Messages: 800},
		}}
		return m, true
	case "collectives":
		// Collective-communication sweep: the application-level workloads
		// (ring/tree all-reduce, all-to-all, stage pipeline) across the
		// same topology zoo the paper grid uses — the figures the paper
		// never had. 6 topologies × 4 scenarios = 24 cells.
		return &Manifest{
			Name:  "collectives",
			Title: "Collective-communication workloads across the topology zoo",
			Seed:  1998,
			Grids: []Grid{{
				Name: "collectives-zoo",
				Topologies: []string{
					"lattice:64", "gnm:64+24", "mesh:8x8", "torus:8x8",
					"hypercube:6", "fattree:4x3",
				},
				Scenarios: []string{"allreduce-ring", "allreduce-tree", "alltoall", "pipeline"},
				Trials:    2,
				Params:    workload.Params{Messages: 600},
			}},
		}, true
	case "routing":
		// Adaptive-routing comparator: the same zoo × workload cells under
		// baseline up*/down*, bounded misroute (budget 2) and duato —
		// misroute with an unbounded budget, Duato-style fully adaptive over
		// the baseline escape class. One grid per policy (Params are
		// per-grid), certificate-sweep topology sizes so the whole campaign
		// is seconds-scale and CI can diff two runs byte-for-byte. The
		// routing experiment driver regenerates the Fig 3-style
		// latency-vs-rate sweep per policy plus the root-strategy
		// comparison.
		zoo := []string{
			"lattice:32", "gnm:24+12", "mesh:5x4", "torus:5x5",
			"hypercube:4", "fattree:2x3",
		}
		scenarios := []string{"mixed", "hotspot"}
		grid := func(name string, p workload.Params) Grid {
			p.Messages = 400
			return Grid{Name: name, Topologies: zoo, Scenarios: scenarios, Trials: 2, Params: p}
		}
		return &Manifest{
			Name:  "routing",
			Title: "Adaptive-routing comparator: baseline vs bounded misroute vs Duato escape",
			Seed:  1998,
			Experiments: []Experiment{
				{Driver: "routing", Trials: 3, Messages: 400},
			},
			Grids: []Grid{
				grid("baseline", workload.Params{}),
				grid("misroute-2", workload.Params{Routing: "misroute", MisrouteBudget: 2}),
				grid("duato", workload.Params{Routing: "duato"}),
			},
		}, true
	case "smoke":
		return &Manifest{
			Name: "smoke",
			Seed: 7,
			Experiments: []Experiment{
				{Driver: "hotspot", Trials: 2},
			},
			Grids: []Grid{{
				Name:       "zoo-smoke",
				Topologies: []string{"fattree:2x3", "torus:4x4"},
				Scenarios:  []string{"mixed"},
				Trials:     1,
				Params:     workload.Params{Messages: 200},
			}},
		}, true
	case "scale":
		// The past-the-old-cap manifest: fat-trees at 16384 and 62500
		// switches, sizes the compressed routing tables made admissible
		// (the pre-PR7 cap was 4096). One trial per cell — the point is the
		// per-cell TableMB/TableCompression columns in the report plus proof
		// that a 64k-switch network labels, compiles and routes end to end.
		// Expect hours of wall clock on one core, and ~20 GB of RAM at the
		// 62500-switch cell: the table compiler's transient scratch is
		// 4·S² + S²/8 bytes (15.6 GB of switch distances, 0.5 GB of
		// extended descendants), and the compiled tables took ~3.3 GiB
		// when last measured (the dense table layout would need ~362 GiB);
		// the labeling's arrays are flat in the node and channel counts.
		// Serve's build bound (16.1 GB predicted against 2 GiB) refuses
		// this cell; run it with spamsim.
		return &Manifest{
			Name:  "scale",
			Title: "Large-network scaling campaign (past the 4096-switch cap)",
			Seed:  1998,
			Grids: []Grid{{
				Name:       "fattree-scale",
				Topologies: []string{"fattree:8x4", "fattree:16x4", "fattree:25x4"},
				Scenarios:  []string{"mixed"},
				Trials:     1,
				Params:     workload.Params{Messages: 400},
			}},
		}, true
	}
	return nil, false
}

// BuiltinNames lists the built-in manifests.
func BuiltinNames() []string { return []string{"paper", "collectives", "routing", "smoke", "scale"} }

// sanitize converts a name into a filesystem- and markdown-safe slug.
func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			sb.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			sb.WriteRune(r - 'A' + 'a')
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}
