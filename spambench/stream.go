package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/serve"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The request streams are pure functions of (workload, seed, position): the
// same seed replays the same requests in the same order, and the service
// sees nothing but these requests.

// request is one generated POST /run.
type request struct {
	Pos int
	Run serve.RunRequest
	// Body is the POST body; its bytes identify the request.
	Body []byte
	// Combo names the (topology, routing, root) a zoo request selects and
	// SysKey the exact (spec, seed, routing, root) system, the key serve's
	// alternate-system cache uses. Both are "" on the default system.
	Combo  string
	SysKey string
}

// stream generates a workload's requests by position. A pass is the
// workload's full point set once over; every pass has the same composition,
// so runs of different seeds do the same kind of work.
type stream struct {
	seed    uint64
	passLen int
	// cycle is how many positions pass before the distinct requests recur:
	// the passes of every traffic-seed variant.
	cycle int
	gen   func(seed uint64, pos int) request
}

func (s *stream) at(pos int) request {
	r := s.gen(s.seed, pos)
	r.Pos = pos
	body, err := json.Marshal(r.Run)
	if err != nil {
		panic(fmt.Sprintf("encoding a generated request: %v", err))
	}
	r.Body = body
	return r
}

func newStream(workloadName string, seed uint64) (*stream, error) {
	switch workloadName {
	case "serve-paper":
		n := len(paperRates) * len(paperDests)
		return &stream{seed: seed, passLen: n, cycle: n * paperVariants, gen: paperRequest}, nil
	case "serve-zoo":
		n := 3 * len(zooCatalog)
		return &stream{seed: seed, passLen: n, cycle: n * zooVariants, gen: zooRequest}, nil
	}
	return nil, fmt.Errorf("no request stream for workload %q", workloadName)
}

// splitmix is one SplitMix64 step; mix folds values into a 64-bit hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mix(vals ...uint64) uint64 {
	h := uint64(0x5350414d)
	for _, v := range vals {
		h = splitmix(h ^ v)
	}
	return h
}

// Stream tags keep the hash inputs of different draws apart.
const (
	tagPaperSeed = iota + 1
	tagZooSeed
	tagFill
	tagWarmup
)

// serve-paper: the Fig. 3 points (rate × multicast destinations, 10 %
// multicast, 128-node lattice). Pass p sweeps every point once, rate-major,
// as a sweep client would; request seeds alternate between two variants, so
// each distinct request recurs every second pass. The order is fixed and
// only the seeds follow the workload seed: measured throughput moved by
// 10–15 % between seeds when the order was shuffled per seed.
var (
	paperRates = []float64{0.005, 0.02, 0.04}
	paperDests = []int{8, 16, 32, 64}
)

const (
	paperMessages = 200
	paperTrials   = 2
	paperVariants = 2
)

func paperRequest(seed uint64, pos int) request {
	n := len(paperRates) * len(paperDests)
	pass, pt := pos/n, pos%n
	variant := uint64(pass % paperVariants)
	return request{Run: serve.RunRequest{
		Scenario:       "mixed",
		Trials:         paperTrials,
		WarmupMessages: paperMessages / 10,
		Seed:           mix(seed, tagPaperSeed, variant, uint64(pt)),
		Params: workload.Params{
			RatePerProcPerUs:  paperRates[pt/len(paperDests)],
			Messages:          paperMessages,
			MulticastFraction: 0.1,
			MulticastDests:    paperDests[pt%len(paperDests)],
		},
	}}
}

// combo is one (topology, routing policy, root strategy) a zoo request
// names, with the trial count its requests run.
type combo struct {
	Topo    string
	Routing string
	Budget  int
	Root    string
	Trials  int
}

// zooCatalog covers the six zoo families at a large (~1k–2k switches) and a
// small (64–256 switches) size, and every (routing, root) pair. The center
// root, whose search is the costliest, sits on small systems so that the
// large builds cost alike and the p90 falls inside their cluster. Small
// systems run two trials, large ones one, so builds stay the larger share.
var zooCatalog = []combo{
	{"lattice:1024", "baseline", 0, "min-id", 1},
	{"gnm:1024+256", "misroute", 2, "max-degree", 1},
	{"mesh:32x32", "duato", 0, "min-id", 1},
	{"torus:32x32", "baseline", 0, "max-degree", 1},
	{"hypercube:10", "misroute", 2, "min-id", 1},
	{"fattree:8x4", "duato", 0, "max-degree", 1},
	{"lattice:256", "misroute", 2, "center", 2},
	{"gnm:128+48", "duato", 0, "center", 2},
	{"mesh:16x16", "baseline", 0, "center", 2},
	{"torus:8x8", "duato", 0, "min-id", 2},
	{"hypercube:6", "baseline", 0, "center", 2},
	{"fattree:4x4", "misroute", 2, "max-degree", 2},
}

const (
	// zooMessages keeps trials short enough that builds stay the larger
	// share of the ladder: at 200 messages the two were within a few
	// points of each other.
	zooMessages = 150
	zooVariants = 3
	// zooFillKeys is how many fresh systems the footprint fill requests
	// after the timed window: enough to replace the whole cache, so the
	// live heap is measured on a cache of known contents.
	zooFillKeys = 8
)

// zooRepeatLags are how many new systems separate a system's first request
// from its two repeats. Both are below serve's alternate-system cache size
// (8), so a repeat finds the system cached; they are also long enough
// (18+ positions, over a second) that even the slowest build has finished.
var zooRepeatLags = [2]int{6, 7}

// zooOrder visits the catalog alternating large and small systems, so
// consecutive builds do not pile up the large ones. It is fixed, like the
// serve-paper sweep order; only seeds follow the workload seed.
var zooOrder = []int{0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11}

// zooRequest lays the stream out in triples: position 3i names new system
// i, positions 3i+1 and 3i+2 repeat systems i−6 and i−7 (system i itself
// before there are that many). New system i is catalog entry
// zooOrder[i%12] under traffic-seed variant (i/12) mod 3, so every
// combination is requested under three traffic seeds and each pass (36
// positions) builds every catalog entry once; two requests in three are
// cache hits.
func zooRequest(seed uint64, pos int) request {
	i := pos / 3
	if r := pos % 3; r > 0 && i >= zooRepeatLags[r-1] {
		i -= zooRepeatLags[r-1]
	}
	n := len(zooCatalog)
	keyPass := i / n
	ci := zooOrder[i%n]
	v := keyPass % zooVariants
	return zooKeyRequest(zooCatalog[ci], mix(seed, tagZooSeed, uint64(ci), uint64(v)), ci+v, zooMessages)
}

// zooKeyRequest builds the request for one system key. The shape index, not
// the seed, picks the scenario, so every seed gives each pass the same mix
// of work.
func zooKeyRequest(c combo, keySeed uint64, shape, messages int) request {
	scenario := "mixed"
	if shape%2 == 1 {
		scenario = "hotspot"
	}
	return request{
		Run: serve.RunRequest{
			Scenario:       scenario,
			Trials:         c.Trials,
			WarmupMessages: messages / 10,
			Seed:           keySeed,
			Params: workload.Params{
				Topology:       c.Topo,
				Messages:       messages,
				Routing:        c.Routing,
				MisrouteBudget: c.Budget,
				Root:           c.Root,
			},
		},
		Combo:  c.Topo + "|" + c.Routing + "|" + c.Root,
		SysKey: sysKey(c, keySeed),
	}
}

// sysKey renders serve's alternate-system cache key: canonical spec, seed,
// routing policy and root strategy (the misroute budget lives in the
// simulator configuration, not in the key).
func sysKey(c combo, seed uint64) string {
	spec := c.Topo
	if sp, err := topology.ParseSpec(c.Topo); err == nil {
		spec = sp.String()
	}
	return fmt.Sprintf("%s|%d|%s|%s", spec, seed, c.Routing, c.Root)
}

// fillRequests are the serve-zoo footprint requests: short trials on each
// of the first zooFillKeys catalog systems under a seed no stream request
// uses, so each is a fresh build and together they replace the whole cache.
func fillRequests(seed uint64) []request {
	out := make([]request, zooFillKeys)
	for i := range out {
		out[i] = zooKeyRequest(zooCatalog[i], mix(seed, tagFill, uint64(i)), 0, zooMessages/2)
		out[i].Pos = -1 - i
		body, err := json.Marshal(out[i].Run)
		if err != nil {
			panic(fmt.Sprintf("encoding a generated request: %v", err))
		}
		out[i].Body = body
	}
	return out
}

// warmupRequest is the untimed default-system request each pool worker
// serves once during set-up.
func warmupRequest(seed uint64, worker int) request {
	r := request{Pos: -1, Run: serve.RunRequest{
		Scenario:       "mixed",
		Trials:         1,
		WarmupMessages: 20,
		Seed:           mix(seed, tagWarmup, uint64(worker)),
		Params:         workload.Params{Messages: 200},
	}}
	body, err := json.Marshal(r.Run)
	if err != nil {
		panic(fmt.Sprintf("encoding a generated request: %v", err))
	}
	r.Body = body
	return r
}

// Effort of the benchmark's copy of the builtin paper manifest. The copy
// keeps every driver and the whole grid; only samples per point and messages
// per point shrink, so one campaign takes seconds instead of ~40 s.
const (
	campaignTrials       = 1
	campaignMessages     = 100
	campaignGridTrials   = 1
	campaignGridMessages = 150
)

// paperManifest returns the builtin paper manifest at the benchmark's effort.
func paperManifest() (*campaign.Manifest, error) {
	m, ok := campaign.Builtin("paper")
	if !ok {
		return nil, fmt.Errorf("builtin campaign manifest %q is missing", "paper")
	}
	for i := range m.Experiments {
		m.Experiments[i].Trials = campaignTrials
		m.Experiments[i].Messages = campaignMessages
	}
	for i := range m.Grids {
		m.Grids[i].Trials = campaignGridTrials
		m.Grids[i].Params.Messages = campaignGridMessages
	}
	return m, nil
}

// manifestCells expands a manifest's grids in campaign.Run's cell order
// (grid, topology, scenario, fault profile, seed).
func manifestCells(m *campaign.Manifest) []campaign.Cell {
	var out []campaign.Cell
	for _, g := range m.Grids {
		profiles := g.FaultProfiles
		if len(profiles) == 0 {
			profiles = []string{g.Params.FaultProfile}
		}
		seeds := g.Seeds
		if len(seeds) == 0 {
			seeds = []uint64{m.Seed}
		}
		for _, topo := range g.Topologies {
			for _, sc := range g.Scenarios {
				for _, f := range profiles {
					for _, s := range seeds {
						out = append(out, campaign.Cell{Grid: g.Name, Topology: topo, Scenario: sc, Fault: f, Seed: s})
					}
				}
			}
		}
	}
	return out
}
