package workload

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/updown"
)

// SystemKey names one system: a topology spec, a seed, a routing policy and
// a root strategy. Equal keys build identical systems, and so do keys that
// differ only in a seed their family ignores (see canonical), so a key is a
// cache key. Build keys with KeyFor; the empty Spec names no family and is
// reachable only through a base system (see NewSystem).
type SystemKey struct {
	Spec   string
	Seed   uint64
	Policy core.Policy
	Root   updown.RootStrategy
}

// KeyFor returns the key of sp under seed, pol and root, with the spec in
// its String form.
func KeyFor(sp topology.Spec, seed uint64, pol core.Policy, root updown.RootStrategy) SystemKey {
	return SystemKey{Spec: sp.String(), Seed: seed, Policy: pol, Root: root}
}

// canonical returns the key of the system k builds: k with the seed zeroed
// for the families Spec.Build documents as seed-independent.
func (k SystemKey) canonical() SystemKey {
	switch family, _, _ := strings.Cut(k.Spec, ":"); family {
	case "mesh", "torus", "hypercube", "fattree", "file":
		k.Seed = 0
	}
	return k
}

// System is an immutable network with its up*/down* labeling and compiled
// router, shared by every runner that simulates it.
type System struct {
	Key    SystemKey
	Net    *topology.Network
	Lab    *updown.Labeling
	Router *core.Router
}

// NewSystem builds the system k names. A non-nil base on the same network
// (equal Spec and Seed) lends its network, and its labeling too when the
// root strategy matches, so systems that differ in policy alone share all
// but their routers; base itself is returned when its key is k.
func NewSystem(k SystemKey, base *System) (*System, error) {
	if base != nil && base.Key == k {
		return base, nil
	}
	var net *topology.Network
	var lab *updown.Labeling
	if base != nil && base.Key.Spec == k.Spec && base.Key.Seed == k.Seed {
		net = base.Net
		if base.Key.Root == k.Root {
			lab = base.Lab
		}
	}
	if net == nil {
		sp, err := topology.ParseSpec(k.Spec)
		if err != nil {
			return nil, err
		}
		if net, err = sp.Build(k.Seed); err != nil {
			return nil, err
		}
	}
	if lab == nil {
		var err error
		if lab, err = updown.New(net, k.Root); err != nil {
			return nil, err
		}
	}
	return &System{Key: k, Net: net, Lab: lab, Router: core.NewRouterPolicy(lab, k.Policy)}, nil
}

// SystemCache holds built systems by key. Safe for concurrent use.
type SystemCache struct {
	// limit bounds the keys the cache remembers, forgotten first in, first
	// out (0 = unbounded). Keys that differ only in a seed their family
	// ignores share one system, which stays cached while a remembered key
	// names it, so after any limit distinct keys the cache holds exactly
	// their systems. The pinned system is never evicted and is the base
	// every miss builds from.
	limit  int
	pinned *System

	mu      sync.Mutex
	keys    map[SystemKey]*System // remembered keys
	systems map[SystemKey]*System // their systems, by canonical key
	order   []SystemKey           // remembered keys, oldest first
}

// NewSystemCache returns a cache remembering at most limit keys
// (0 = unbounded) besides pinned, which may be nil.
func NewSystemCache(limit int, pinned *System) *SystemCache {
	return &SystemCache{limit: limit, pinned: pinned, keys: map[SystemKey]*System{}, systems: map[SystemKey]*System{}}
}

// Get returns the system for k, building it on a miss.
func (c *SystemCache) Get(k SystemKey) (*System, error) {
	if c.pinned != nil && c.pinned.Key == k {
		return c.pinned, nil
	}
	c.mu.Lock()
	s := c.lookup(k)
	c.mu.Unlock()
	if s != nil {
		return s, nil
	}
	// Build outside the lock so lookups of cached systems never wait behind
	// a slow build; construction is deterministic, so a concurrent duplicate
	// is identical and the later one is dropped.
	s, err := NewSystem(k.canonical(), c.pinned)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cached := c.lookup(k); cached != nil {
		return cached, nil
	}
	c.remember(k, s)
	return s, nil
}

// lookup returns the system k names, or nil; a key new to the cache whose
// system is cached under another seed is remembered. Callers hold mu.
func (c *SystemCache) lookup(k SystemKey) *System {
	if s, ok := c.keys[k]; ok {
		return s
	}
	s := c.systems[k.canonical()]
	if s != nil {
		c.remember(k, s)
	}
	return s
}

// remember records that k names s, forgetting the oldest key at the limit
// and dropping its system once no remembered key names it. Callers hold mu.
func (c *SystemCache) remember(k SystemKey, s *System) {
	if c.limit > 0 && len(c.order) >= c.limit {
		old := c.order[0].canonical()
		delete(c.keys, c.order[0])
		c.order = c.order[1:]
		if !slices.ContainsFunc(c.order, func(o SystemKey) bool { return o.canonical() == old }) {
			delete(c.systems, old)
		}
	}
	c.keys[k] = s
	c.systems[s.Key] = s
	c.order = append(c.order, k)
}

// Len reports how many systems the cache holds besides the pinned one.
func (c *SystemCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.systems)
}

// RunnerCache holds one goroutine's reusable runners, keyed by system and
// simulator configuration: the whole sim.Config is the key, so runners
// built for configurations that differ in any field are never shared. Not
// safe for concurrent use.
type RunnerCache struct {
	// keep bounds the runners held (0 = unbounded); a miss at the bound
	// drops them all, so keep 1 holds just the most recently used runner.
	keep    int
	runners map[runnerSlot]*Runner
}

type runnerSlot struct {
	sys *System
	cfg sim.Config
}

// NewRunnerCache returns a cache holding at most keep runners (0 = all).
func NewRunnerCache(keep int) *RunnerCache {
	return &RunnerCache{keep: keep, runners: map[runnerSlot]*Runner{}}
}

// Get returns the runner for (sys, cfg), building it on a miss. Trial and
// Measure reset it; a caller driving its simulator directly resets first.
func (c *RunnerCache) Get(sys *System, cfg sim.Config) (*Runner, error) {
	slot := runnerSlot{sys: sys, cfg: cfg}
	if r, ok := c.runners[slot]; ok {
		return r, nil
	}
	r, err := NewRunner(sys.Router, cfg)
	if err != nil {
		return nil, err
	}
	if c.keep > 0 && len(c.runners) >= c.keep {
		clear(c.runners)
	}
	c.runners[slot] = r
	return r, nil
}
