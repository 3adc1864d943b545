// Package spamnet is the public facade of the SPAM reproduction: tree-based
// deadlock-free multicast wormhole routing for irregular (and regular)
// switch networks, after Libeskind-Hadas, Mazzoni and Rajagopalan,
// "Tree-Based Multicasting in Wormhole-Routed Irregular Topologies"
// (IPPS/SPDP 1998).
//
// A System bundles a network topology with its up*/down* labeling and the
// SPAM routing tables. Sessions are independent flit-level simulations over
// one System; each Session is single-threaded and deterministic, and many
// Sessions can run concurrently.
//
// Quickstart:
//
//	sys, _ := spamnet.NewLattice(128, spamnet.WithSeed(42))
//	sess, _ := sys.NewSession()
//	msg, _ := sess.Multicast(0, sys.Processors()[5], sys.Processors()[:4])
//	_ = sess.Run()
//	fmt.Println(msg.Latency()) // nanoseconds, includes the 10 µs startup
//
// Beyond the paper's random lattices, NewFromSpec builds any topology-zoo
// family from a spec string ("mesh:8x8", "torus:8x8", "hypercube:6",
// "fattree:4x3", "file:net.adj"), with a "/<procs>" suffix for more than one
// processor per switch ("lattice:128/4"). Session.InstallFaults attaches a
// deterministic fault timeline to a running simulation.
package spamnet

import (
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/updown"
)

// NodeID identifies a switch or processor in a System's network.
type NodeID = topology.NodeID

// LatencyParams are the timing constants of the simulated hardware.
type LatencyParams = core.LatencyParams

// Message is a multicast (or unicast) worm in flight or delivered.
type Message = sim.Worm

// RootStrategy selects the up*/down* spanning-tree root.
type RootStrategy = updown.RootStrategy

// Root strategies re-exported for option construction.
const (
	RootMinID     = updown.RootMinID
	RootMaxDegree = updown.RootMaxDegree
	RootCenter    = updown.RootCenter
)

// PaperParams returns the latency constants of the paper's Section 4:
// 10 µs startup, 40 ns router setup, 10 ns channel propagation, 128 flits.
func PaperParams() LatencyParams { return core.PaperParams() }

// RoutingPolicy selects the routing-policy family (see core.Policy).
type RoutingPolicy = core.Policy

// Routing policies re-exported for option construction.
const (
	PolicyBaseline = core.PolicyBaseline
	PolicyMisroute = core.PolicyMisroute
)

type options struct {
	root       RootStrategy
	policy     RoutingPolicy
	simCfg     sim.Config
	seed       uint64
	maxSimTime int64
}

// defaultMaxSimTimeNs is one hour of simulated time — the Session.Run
// horizon unless WithMaxSimTime overrides it.
const defaultMaxSimTimeNs = int64(3_600_000_000_000)

// Option customizes System construction.
type Option func(*options)

// WithRootStrategy selects how the spanning-tree root is chosen.
func WithRootStrategy(s RootStrategy) Option { return func(o *options) { o.root = s } }

// WithRoutingPolicy selects the routing-policy family: PolicyBaseline (the
// paper's fixed selection, the default) or PolicyMisroute (budgeted
// deroutes under congestion over a deadlock-free baseline escape class —
// pair with WithMisrouteBudget; math.MaxInt32 is the unbounded budget the
// "duato" wire name selects). Misroute routers stay bit-identical to
// baseline when their adaptive freedom is never exercised; budget 0 always
// is.
func WithRoutingPolicy(p RoutingPolicy) Option { return func(o *options) { o.policy = p } }

// WithMisrouteBudget sets the per-worm deroute budget for PolicyMisroute
// systems (ignored under other policies; default 0, which is bit-identical
// to baseline).
func WithMisrouteBudget(n int) Option { return func(o *options) { o.simCfg.MisrouteBudget = n } }

// WithLatencyParams overrides the hardware timing constants.
func WithLatencyParams(p LatencyParams) Option { return func(o *options) { o.simCfg.Params = p } }

// WithInputBufferFlits sets the per-channel input buffer capacity (paper
// default: a single flit).
func WithInputBufferFlits(n int) Option { return func(o *options) { o.simCfg.InputBufFlits = n } }

// WithSeed sets the topology generation seed.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithTrace routes a hop-by-hop routing trace of every session to logf.
func WithTrace(logf func(format string, args ...any)) Option {
	return func(o *options) {
		o.simCfg.Logf = nil
		if logf != nil {
			o.simCfg.Logf = &logf
		}
	}
}

// WithMaxSimTime caps the simulated time Session.Run may reach before
// reporting an error (default: one hour of simulated time). Long-horizon
// workloads raise it; latency-bound CI tests lower it to fail fast.
func WithMaxSimTime(d time.Duration) Option {
	return func(o *options) { o.maxSimTime = d.Nanoseconds() }
}

func buildOptions(opts []Option) options {
	o := options{simCfg: sim.DefaultConfig(), maxSimTime: defaultMaxSimTimeNs}
	for _, fn := range opts {
		fn(&o)
	}
	if o.maxSimTime <= 0 {
		o.maxSimTime = defaultMaxSimTimeNs
	}
	return o
}

// System is an immutable network + SPAM routing structure. Safe for
// concurrent use; create Sessions for simulation.
type System struct {
	net        *topology.Network
	lab        *updown.Labeling
	router     *core.Router
	simCfg     sim.Config
	root       RootStrategy
	policy     RoutingPolicy
	maxSimTime int64
}

// NewLattice builds the paper's experimental platform: `switches` 8-port
// switches placed on an integer lattice (connected, adjacent points linked)
// with one processor per switch. NewFromSpec("lattice:<n>/<procs>") attaches
// more.
func NewLattice(switches int, opts ...Option) (*System, error) {
	o := buildOptions(opts)
	net, err := topology.RandomLattice(topology.DefaultLattice(switches, o.seed))
	if err != nil {
		return nil, err
	}
	return newSystem(net, o)
}

// NewFigure1 builds the example network of the paper's Figure 1.
func NewFigure1(opts ...Option) (*System, error) {
	o := buildOptions(opts)
	net, err := topology.Figure1()
	if err != nil {
		return nil, err
	}
	return newSystem(net, o)
}

// NewFromSpec builds a System from a topology spec string — the same
// grammar the campaign manifests, the serve wire format and the CLI -topo
// flags share: "lattice:128", "gnm:64+32", "mesh:8x8", "torus:8x8",
// "hypercube:6", "fattree:4x3", "file:net.adj", each with an optional
// "/<procs>" suffix. Random families consume WithSeed.
func NewFromSpec(spec string, opts ...Option) (*System, error) {
	o := buildOptions(opts)
	sp, err := topology.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	net, err := sp.Build(o.seed)
	if err != nil {
		return nil, err
	}
	return newSystem(net, o)
}

func newSystem(net *topology.Network, o options) (*System, error) {
	lab, err := updown.New(net, o.root)
	if err != nil {
		return nil, err
	}
	return &System{
		net:        net,
		lab:        lab,
		router:     core.NewRouterPolicy(lab, o.policy),
		simCfg:     o.simCfg,
		root:       o.root,
		policy:     o.policy,
		maxSimTime: o.maxSimTime,
	}, nil
}

// Reconfigure returns a new System with the given switch-switch links
// removed and the up*/down* labeling recomputed from scratch — the
// Autonet-style reaction to link failures (existing Sessions keep running
// on the old System; new traffic uses the new one). Removing a link that
// would disconnect the network is an error.
func (s *System) Reconfigure(failedLinks [][2]int) (*System, error) {
	net := s.net
	var err error
	for _, l := range failedLinks {
		net, err = net.WithoutLink(l[0], l[1])
		if err != nil {
			return nil, fmt.Errorf("spamnet: %w", err)
		}
	}
	lab, err := updown.New(net, s.root)
	if err != nil {
		return nil, err
	}
	return &System{
		net:        net,
		lab:        lab,
		router:     core.NewRouterPolicy(lab, s.policy),
		simCfg:     s.simCfg,
		root:       s.root,
		policy:     s.policy,
		maxSimTime: s.maxSimTime,
	}, nil
}

// Switches returns the switch node IDs.
func (s *System) Switches() []NodeID {
	out := make([]NodeID, s.net.NumSwitches)
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// Processors returns the processor node IDs.
func (s *System) Processors() []NodeID {
	out := make([]NodeID, s.net.NumProcs)
	for i := range out {
		out[i] = NodeID(s.net.NumSwitches + i)
	}
	return out
}

// Root returns the spanning-tree root switch.
func (s *System) Root() NodeID { return s.lab.Root }

// SimConfig returns a copy of the simulator configuration Sessions run on —
// the serving layer uses it to build pools of resettable simulators that
// behave identically to Sessions.
func (s *System) SimConfig() sim.Config { return s.simCfg }

// MaxSimTimeNs returns the simulated-time horizon Session.Run enforces (see
// WithMaxSimTime).
func (s *System) MaxSimTimeNs() int64 {
	if s.maxSimTime <= 0 {
		return defaultMaxSimTimeNs
	}
	return s.maxSimTime
}

// Fingerprint returns a stable hash of everything that shapes this system's
// simulation results: the exact network structure (canonical adjacency
// text), the spanning-tree root, the latency parameters, the input buffer
// depth and the simulated-time horizon. Two processes whose Systems share a
// fingerprint produce bit-identical trial results for the same seeds — the
// serve fleet uses it as the admission guard for scatter/gather workers, so
// a worker launched with mismatched flags can never silently contribute
// divergent shards.
func (s *System) Fingerprint() uint64 {
	h := fnv.New64a()
	io.WriteString(h, topology.FormatAdjacency(s.net))
	cfg := s.simCfg
	cfg.Logf = nil // function values have no stable representation (and no effect on results)
	fmt.Fprintf(h, "|root=%d|pol=%d|cfg=%+v|horizon=%d", s.lab.Root, uint8(s.policy), cfg, s.MaxSimTimeNs())
	return h.Sum64()
}

// Topology exposes the underlying network (read-only by convention).
func (s *System) Topology() *topology.Network { return s.net }

// Labeling exposes the up*/down* structure (read-only by convention).
func (s *System) Labeling() *updown.Labeling { return s.lab }

// Router exposes the SPAM routing tables (read-only by convention).
func (s *System) Router() *core.Router { return s.router }

// Policy returns the routing-policy family this system was built with.
func (s *System) Policy() RoutingPolicy { return s.policy }

// RootStrategy returns the strategy that chose this system's spanning-tree
// root (see WithRootStrategy).
func (s *System) RootStrategy() RootStrategy { return s.root }

// TableMemStats is the byte-level accounting of the system's compiled
// routing tables (see core.MemStats): distinct rows/pages/columns after
// structural sharing, arena size, and the compression ratio against the
// dense O(3·S²) index.
type TableMemStats = core.MemStats

// TableMemStats reports the compiled routing-table memory accounting.
func (s *System) TableMemStats() TableMemStats { return s.router.TableMemStats() }

// ZeroLoadLatency returns the closed-form contention-free latency in
// nanoseconds of a multicast from src to dests.
func (s *System) ZeroLoadLatency(src NodeID, dests []NodeID) (int64, error) {
	return s.router.ZeroLoadLatency(s.simCfg.Params, src, dests)
}

// FaultScript is a time-ordered topology-mutation timeline (see the faults
// package DSL: "50us down 3-7; 90us up 3-7; 120us switch-down 4").
type FaultScript = faults.Script

// FaultSpec declaratively describes a fault timeline: an explicit DSL
// script or a seeded generator profile (Poisson failure/repair, rolling
// maintenance, regional outage).
type FaultSpec = faults.Spec

// FaultPolicy selects the source retry behaviour of fault injection (every
// applied mutation drains every message in flight).
type FaultPolicy = faults.Policy

// FaultInjector is the live fault-injection engine attached to a Session.
type FaultInjector = faults.Injector

// Session is one flit-level simulation over a System. Not safe for
// concurrent use; run one Session per goroutine. Sessions are reusable:
// Reset rewinds to time zero while retaining every internal arena, so sweep
// loops can run thousands of trials on one Session without rebuilding it.
type Session struct {
	sim        *sim.Simulator
	maxSimTime int64
	injector   *faults.Injector
}

// NewSession creates a fresh simulation at time zero.
func (s *System) NewSession() (*Session, error) {
	sm, err := sim.New(s.router, s.simCfg)
	if err != nil {
		return nil, err
	}
	return &Session{sim: sm, maxSimTime: s.MaxSimTimeNs()}, nil
}

// Multicast submits a message from processor src to the destination
// processors at simulated time `at` (ns). Unicast is len(dests) == 1.
func (s *Session) Multicast(at int64, src NodeID, dests []NodeID) (*Message, error) {
	return s.sim.Submit(at, src, dests)
}

// At schedules fn at simulated time t — the hook point for custom traffic.
func (s *Session) At(t int64, fn func()) { s.sim.At(t, fn) }

// Now returns the current simulated time in nanoseconds.
func (s *Session) Now() int64 { return s.sim.Now() }

// Run simulates until every submitted message is delivered (or, under fault
// injection, drained). It fails on deadlock (which Theorem 1 rules out — a
// failure here is a bug), if the simulation exceeds the System's maximum
// simulated time (one hour unless WithMaxSimTime overrides it), or on an
// internal fault-engine failure.
func (s *Session) Run() error {
	if err := s.sim.RunUntilIdle(s.maxSimTime); err != nil {
		return err
	}
	if s.injector != nil {
		return s.injector.Err()
	}
	return nil
}

// Reset rewinds the Session to time zero for a fresh trial, retaining every
// internal arena (event queues, buffers, free lists, message slots) so
// steady-state trial loops are allocation-free. A reset Session behaves
// bit-identically to a newly created one.
//
// Reset invalidates every *Message the Session has returned: their storage
// is recycled into the next epoch. Read latencies out before resetting.
func (s *Session) Reset() {
	s.sim.Reset()
}

// InstallFaults attaches a fault timeline to this Session: the described
// topology mutations fire at their simulated times while traffic runs,
// draining every message in flight, re-deriving the up*/down* labeling on
// the mutated topology and hot-swapping the routing tables in place (the
// Session routes on a private router from the first InstallFaults on; the
// System stays immutable and shared). Call after Reset for each new trial;
// the returned injector exposes disruption metrics and is valid for the
// Session's lifetime.
func (s *Session) InstallFaults(spec FaultSpec, pol FaultPolicy) (*FaultInjector, error) {
	if s.injector == nil {
		inj, err := faults.NewInjector(s.sim)
		if err != nil {
			return nil, err
		}
		s.injector = inj
	}
	if err := s.injector.InstallSpec(spec, pol); err != nil {
		return nil, err
	}
	return s.injector, nil
}

// RunUntil simulates events up to simulated time t.
func (s *Session) RunUntil(t int64) error { return s.sim.Run(t) }

// Counters returns aggregate simulator statistics.
func (s *Session) Counters() sim.Counters { return s.sim.Counters() }

// Simulator exposes the underlying engine for advanced use (baselines,
// partitioned multicast, custom workloads).
func (s *Session) Simulator() *sim.Simulator { return s.sim }

// Validate re-checks all structural invariants of the System's labeling.
func (s *System) Validate() error {
	if err := s.lab.Verify(); err != nil {
		return fmt.Errorf("spamnet: %w", err)
	}
	return nil
}
