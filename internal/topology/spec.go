package topology

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// Spec is a declarative topology-family selector — the unit the campaign
// manifests, the serve wire format and the CLI -topo flags share. The
// compact string form is
//
//	lattice:<switches>        paper's random lattice animal (seeded)
//	gnm:<switches>+<extra>    random spanning tree + extra links (seeded)
//	mesh:<w>x<h>              2-D mesh
//	torus:<w>x<h>             2-D torus (wraparound mesh)
//	hypercube:<dim>           dim-dimensional hypercube
//	fattree:<k>x<levels>      k-ary levels-tree fat-tree
//	file:<path>               adjacency file (see LoadAdjacency)
//
// with an optional "/<procs>" suffix setting processors per switch
// (per leaf switch for fat-trees), e.g. "torus:8x8/2". Random families
// consume the seed passed to Build; regular families ignore it.
type Spec struct {
	// Family is one of lattice, gnm, mesh, torus, hypercube, fattree, file.
	Family string `json:"family"`
	// A and B are the family dimensions: switches (lattice, gnm), w×h
	// (mesh, torus), dim (hypercube), k×levels (fattree).
	A int `json:"a,omitempty"`
	B int `json:"b,omitempty"`
	// Extra is the gnm extra-link count.
	Extra int `json:"extra,omitempty"`
	// Procs is processors per switch (0 = family default).
	Procs int `json:"procs,omitempty"`
	// Path names the adjacency file of the file family.
	Path string `json:"path,omitempty"`
}

// ParseSpec parses the compact string form documented on Spec.
func ParseSpec(s string) (Spec, error) {
	fam, rest, ok := strings.Cut(strings.TrimSpace(s), ":")
	if !ok {
		return Spec{}, fmt.Errorf("topology: spec %q: want family:args", s)
	}
	sp := Spec{Family: strings.ToLower(strings.TrimSpace(fam))}
	if sp.Family == "file" {
		sp.Path = rest
		if sp.Path == "" {
			return Spec{}, fmt.Errorf("topology: spec %q: empty path", s)
		}
		return sp, nil
	}
	if body, procs, ok := strings.Cut(rest, "/"); ok {
		n, err := strconv.Atoi(procs)
		if err != nil || n < 1 {
			return Spec{}, fmt.Errorf("topology: spec %q: bad procs suffix %q", s, procs)
		}
		sp.Procs = n
		rest = body
	}
	atoi := func(v string) (int, error) {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || n < 1 {
			return 0, fmt.Errorf("topology: spec %q: bad number %q", s, v)
		}
		return n, nil
	}
	var err error
	switch sp.Family {
	case "lattice":
		sp.A, err = atoi(rest)
	case "gnm":
		a, b, ok := strings.Cut(rest, "+")
		if !ok {
			return Spec{}, fmt.Errorf("topology: spec %q: want gnm:<switches>+<extra>", s)
		}
		if sp.A, err = atoi(a); err == nil {
			sp.Extra, err = atoi(b)
		}
	case "mesh", "torus", "fattree":
		a, b, ok := strings.Cut(rest, "x")
		if !ok {
			return Spec{}, fmt.Errorf("topology: spec %q: want %s:<a>x<b>", s, sp.Family)
		}
		if sp.A, err = atoi(a); err == nil {
			sp.B, err = atoi(b)
		}
	case "hypercube":
		sp.A, err = atoi(rest)
	default:
		return Spec{}, fmt.Errorf("topology: unknown family %q (lattice|gnm|mesh|torus|hypercube|fattree|file)", sp.Family)
	}
	if err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// String renders the compact form; ParseSpec(sp.String()) round-trips.
func (sp Spec) String() string {
	var body string
	switch sp.Family {
	case "file":
		return "file:" + sp.Path
	case "lattice", "hypercube":
		body = strconv.Itoa(sp.A)
	case "gnm":
		body = fmt.Sprintf("%d+%d", sp.A, sp.Extra)
	default: // mesh, torus, fattree
		body = fmt.Sprintf("%dx%d", sp.A, sp.B)
	}
	if sp.Procs > 0 {
		body += "/" + strconv.Itoa(sp.Procs)
	}
	return sp.Family + ":" + body
}

// Switches predicts the switch count the spec builds: -1 for file specs,
// whose size is only known after loading, and for dimensions whose product
// overflows an int. Serving layers use it to bound admission before paying
// for construction.
func (sp Spec) Switches() int {
	switch sp.Family {
	case "lattice", "gnm":
		return sp.A
	case "mesh", "torus":
		return mulPositive(sp.A, sp.B)
	case "hypercube":
		if sp.A < 1 || sp.A > 30 {
			return -1
		}
		return 1 << sp.A
	case "fattree":
		// levels·k^(levels-1). k = 1 leaves levels; any other k overflows
		// or fails to -1 within 63 rounds, so no level count spins here.
		n := sp.B
		for i := 1; i < sp.B && n > 0 && sp.A != 1; i++ {
			n = mulPositive(n, sp.A)
		}
		return n
	}
	return -1
}

// Nodes predicts the node count — switches plus processors — the spec
// builds: -1 for file specs and whenever the count overflows an int. Every
// lattice, gnm, mesh, torus and hypercube switch gets max(Procs, 1)
// processors; each of a fat-tree's k^(levels-1) leaf switches gets Procs (k
// by default). Admission bounds it with MaxAdmittedNodes.
func (sp Spec) Nodes() int {
	s := sp.Switches()
	if s < 1 {
		return -1
	}
	procs := mulPositive(s, max(sp.Procs, 1))
	if sp.Family == "fattree" {
		perLeaf := sp.Procs
		if perLeaf <= 0 {
			perLeaf = sp.A
		}
		procs = mulPositive(s/sp.B, perLeaf)
	}
	if procs < 0 || s > math.MaxInt-procs {
		return -1
	}
	return s + procs
}

// mulPositive returns a·b for positive a and b, or -1 when a factor is below
// 1 or the product overflows an int.
func mulPositive(a, b int) int {
	if a < 1 || b < 1 || a > math.MaxInt/b {
		return -1
	}
	return a * b
}

// Build constructs the network. Random families (lattice, gnm) consume the
// seed; regular families and files are seed-independent.
func (sp Spec) Build(seed uint64) (*Network, error) {
	procs := sp.Procs
	if procs <= 0 && sp.Family != "fattree" && sp.Family != "file" {
		procs = 1
	}
	switch sp.Family {
	case "lattice":
		cfg := DefaultLattice(sp.A, seed)
		cfg.ProcsPerSwitch = procs
		return RandomLattice(cfg)
	case "gnm":
		return RandomIrregular(GNMConfig{
			Switches:   sp.A,
			ExtraLinks: sp.Extra,
			// Mirror the paper's port budget: at most 4 inter-switch links.
			MaxSwitchLinks: 4,
			ProcsPerSwitch: procs,
			Seed:           seed,
		})
	case "mesh":
		return Mesh(sp.A, sp.B, procs)
	case "torus":
		return Torus(sp.A, sp.B, procs)
	case "hypercube":
		return Hypercube(sp.A, procs)
	case "fattree":
		return FatTree(sp.A, sp.B, sp.Procs)
	case "file":
		f, err := os.Open(sp.Path)
		if err != nil {
			return nil, fmt.Errorf("topology: %w", err)
		}
		defer f.Close()
		return LoadAdjacency(f)
	}
	return nil, fmt.Errorf("topology: unknown family %q", sp.Family)
}
