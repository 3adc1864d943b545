package core

import (
	"fmt"
	"sort"

	"repro/internal/topology"
	"repro/internal/updown"
)

// ArrivalClass describes how a header arrived at a router, which determines
// the set of legal outgoing channels (the worm's routing phase is fully
// captured by the class of the arrival channel).
type ArrivalClass uint8

const (
	// ArriveInjection marks a header leaving its source processor (the
	// first channel of every route is an up channel, so injection behaves
	// like an up arrival).
	ArriveInjection ArrivalClass = iota
	// ArriveUp marks arrival on an up channel.
	ArriveUp
	// ArriveDownCross marks arrival on a down-cross channel.
	ArriveDownCross
	// ArriveDownTree marks arrival on a down-tree channel.
	ArriveDownTree
)

func (a ArrivalClass) String() string {
	switch a {
	case ArriveInjection:
		return "injection"
	case ArriveUp:
		return "up"
	case ArriveDownCross:
		return "down-cross"
	case ArriveDownTree:
		return "down-tree"
	}
	return fmt.Sprintf("ArrivalClass(%d)", uint8(a))
}

// ArrivalOf maps a channel's up*/down* class to the corresponding arrival
// class.
func ArrivalOf(c updown.Class) ArrivalClass {
	switch c {
	case updown.Up:
		return ArriveUp
	case updown.DownCross:
		return ArriveDownCross
	default:
		return ArriveDownTree
	}
}

// Router evaluates the SPAM routing and selection functions for one labeled
// network. It is immutable after construction — and then safe for concurrent
// use — unless it is explicitly reconfigured through Recompile, which only
// the single-threaded fault-injection path does on private routers.
//
// By default the routing function is table-driven: NewRouter compiles every
// (switch, arrival class, LCA) decision into the shared candidate tables the
// paper's hardware router would hold (see Tables), so the per-header cost is
// an array lookup. NewReferenceRouter keeps the original compute-per-event
// path, the specification tests cross-check the tables against.
type Router struct {
	Net *topology.Network
	Lab *updown.Labeling
	tab *Tables // nil in reference mode
	pol Policy
}

// Recompile points the router at a (new) labeling of the same network and
// rebuilds the compiled tables in place, reusing their arenas — the
// hot-swap half of live reconfiguration. The swap is atomic with respect to
// a simulator's event loop: callers invoke it between events, and no
// routing query retains slices across events (segment output sets copy the
// chosen channels). In reference mode only the labeling pointer swaps.
//
// After Recompile the router answers every query exactly as a fresh
// NewRouter over the same labeling would (the fault property tests pin
// this bit-identically). NOT safe to call concurrently with queries;
// fault-injecting sessions therefore own private routers.
func (r *Router) Recompile(lab *updown.Labeling) {
	if lab.Net != r.Net {
		panic("core: Recompile with a labeling of a different network")
	}
	r.Lab = lab
	if r.tab != nil {
		r.tab.Recompile(lab)
	}
}

// NewRouter builds a baseline SPAM router over a labeling with compiled
// routing tables.
func NewRouter(lab *updown.Labeling) *Router {
	return NewRouterPolicy(lab, PolicyBaseline)
}

// NewRouterPolicy builds a SPAM router with compiled routing tables for the
// given routing policy. Non-baseline policies additionally compile the
// extras rows (AppendExtrasChannels); the baseline candidate rows are
// identical across policies. The tables write rows as out-ports, so rows and
// class tables are shared across switches, and index each switch's LCA
// classes with at most 16 bits: a network of at most 65536 switches
// (topology.MaxAdmittedSwitches) always fits, and a larger one whose switch
// needs more than 65536 classes panics the compile rather than truncate.
func NewRouterPolicy(lab *updown.Labeling, pol Policy) *Router {
	return &Router{Net: lab.Net, Lab: lab, tab: compileTables(lab, pol), pol: pol}
}

// NewReferenceRouter builds a SPAM router that recomputes every routing
// decision from the labeling instead of using compiled tables. Slower and
// allocating, but with no precomputed state beyond the labeling — the
// implementation the tables are verified against.
func NewReferenceRouter(lab *updown.Labeling) *Router {
	return NewReferenceRouterPolicy(lab, PolicyBaseline)
}

// NewReferenceRouterPolicy builds a reference (compute-per-event) router for
// the given routing policy.
func NewReferenceRouterPolicy(lab *updown.Labeling, pol Policy) *Router {
	return &Router{Net: lab.Net, Lab: lab, pol: pol}
}

// Policy reports the router's routing-policy family.
func (r *Router) Policy() Policy { return r.pol }

// TableDriven reports whether this router answers routing queries from
// compiled tables (NewRouter) rather than by recomputation
// (NewReferenceRouter).
func (r *Router) TableDriven() bool { return r.tab != nil }

// Tables exposes the compiled decision structure (nil in reference mode).
func (r *Router) Tables() *Tables { return r.tab }

// TableMemStats reports the compiled tables' memory accounting; the zero
// value in reference mode (no tables are held).
func (r *Router) TableMemStats() MemStats {
	if r.tab == nil {
		return MemStats{}
	}
	return r.tab.MemStats()
}

// Candidate is one legal output channel for a header in phase 1, with the
// selection key the paper describes (distance from the channel endpoint to
// the LCA).
type Candidate struct {
	Channel topology.ChannelID
	// DistToLCA is the switch-graph hop distance from the channel's
	// endpoint to the LCA switch.
	DistToLCA int32
}

// CandidateOutputs returns the legal output channels at switch `at` for a
// header that arrived with the given arrival class and is being routed to
// lcaSwitch (phase 1). Candidates are ordered by the paper's selection
// priority: ascending distance from the channel endpoint to the LCA, with
// channel ID as the deterministic tiebreak. The list is never empty while
// at != lcaSwitch (reachability is guaranteed by the up*/down* structure);
// at == lcaSwitch is the caller's signal to switch to distribution.
//
// The returned slice is freshly allocated; the allocation-free hot-path
// variant is AppendCandidateChannels.
func (r *Router) CandidateOutputs(at topology.NodeID, arrival ArrivalClass, lcaSwitch topology.NodeID) []Candidate {
	if r.tab == nil {
		return r.ReferenceCandidateOutputs(at, arrival, lcaSwitch)
	}
	if !r.Net.IsSwitch(at) {
		panic(fmt.Sprintf("core: CandidateOutputs at non-switch %d", at))
	}
	row := r.AppendCandidateChannels(nil, at, arrival, lcaSwitch)
	dist := r.distancesTo(lcaSwitch)
	out := make([]Candidate, len(row))
	for i, c := range row {
		out[i] = Candidate{Channel: c, DistToLCA: dist[r.Net.Chan(c).Dst]}
	}
	return out
}

// distancesTo returns every switch's live switch-graph hop distance to lca,
// from one BFS rooted there (distance is symmetric). It allocates, so only
// the allocating query paths use it.
func (r *Router) distancesTo(lca topology.NodeID) []int32 {
	s := r.Net.NumSwitches
	dist := make([]int32, s)
	r.Lab.SwitchDistances(lca, dist, make([]int32, s))
	return dist
}

// CandidateChannels returns the channels of the candidate list in selection
// order, without the distance keys (the order already encodes them), in a
// freshly allocated slice; the allocation-free hot-path variant is
// AppendCandidateChannels.
func (r *Router) CandidateChannels(at topology.NodeID, arrival ArrivalClass, lcaSwitch topology.NodeID) []topology.ChannelID {
	return r.AppendCandidateChannels(nil, at, arrival, lcaSwitch)
}

// AppendCandidateChannels appends the channels of the candidate list for
// (at, arrival, lca) to dst in selection order and returns the extended
// slice. With tables it translates the row's out-ports through Net.Out(at)
// and, given capacity in dst, performs no allocation; in reference mode the
// list is freshly computed (and allocates — reference mode is the debug
// path).
func (r *Router) AppendCandidateChannels(dst []topology.ChannelID, at topology.NodeID, arrival ArrivalClass, lcaSwitch topology.NodeID) []topology.ChannelID {
	if r.tab == nil {
		return appendChannels(dst, r.ReferenceCandidateOutputs(at, arrival, lcaSwitch))
	}
	if !r.Net.IsSwitch(at) {
		panic(fmt.Sprintf("core: CandidateChannels at non-switch %d", at))
	}
	return r.tab.appendRow(dst, r.Net.Out(at), classIndex(arrival), int(at), int(lcaSwitch))
}

// ReferenceCandidateOutputs is the original compute-per-event routing
// function: it filters the switch's output channels through the up*/down*
// legality rules and sorts by the selection priority on every call. It is the
// specification the compiled tables are tested against.
func (r *Router) ReferenceCandidateOutputs(at topology.NodeID, arrival ArrivalClass, lcaSwitch topology.NodeID) []Candidate {
	if !r.Net.IsSwitch(at) {
		panic(fmt.Sprintf("core: CandidateOutputs at non-switch %d", at))
	}
	dist := r.distancesTo(lcaSwitch)
	var out []Candidate
	for _, c := range r.Net.Out(at) {
		ch := r.Net.Chan(c)
		if r.Net.IsProcessor(ch.Dst) {
			// Consumption channels are used only in distribution.
			continue
		}
		if r.Lab.IsDown(c) {
			// Failed channels carry no traffic.
			continue
		}
		switch r.Lab.ClassOf[c] {
		case updown.Up:
			// Rule 1: legal only when the header is still in the up
			// sub-network (arrived on an up channel or injection).
			if arrival != ArriveUp && arrival != ArriveInjection {
				continue
			}
		case updown.DownCross:
			// Rule 2: legal from up or down-cross arrivals when the
			// endpoint is an extended ancestor of the destination.
			if arrival == ArriveDownTree {
				continue
			}
			if !r.Lab.IsExtendedAncestor(ch.Dst, lcaSwitch) {
				continue
			}
		case updown.DownTree:
			// Rule 3: legal in all cases when the endpoint is an
			// ancestor of the destination.
			if !r.Lab.IsAncestor(ch.Dst, lcaSwitch) {
				continue
			}
		}
		out = append(out, Candidate{Channel: c, DistToLCA: dist[ch.Dst]})
	}
	sortCandidates(out)
	return out
}

// DerouteChannels returns the deroute-extras row for (at, arrival, lca):
// the live down-cross channels a down-tree arrival may cross out of its
// subtree on — baseline-illegal under the paper's Rule 2 arrival clause,
// but with an extended-ancestor endpoint, so the worm still completes the
// route down-monotonically (see referenceExtras for why this is the unique
// deadlock-safe relaxation; cells with other arrival classes are empty).
// Candidates are ordered by (DistToLCA, ChannelID) like the baseline rows.
// Up channels never appear: policy hops must not climb, which is what keeps
// every policy family's dependency relation — and its escape subrelation —
// acyclic.
//
// The row is empty for PolicyBaseline routers. The returned slice is freshly
// allocated; the allocation-free hot-path variant is AppendExtrasChannels.
func (r *Router) DerouteChannels(at topology.NodeID, arrival ArrivalClass, lcaSwitch topology.NodeID) []topology.ChannelID {
	return r.AppendExtrasChannels(nil, at, arrival, lcaSwitch)
}

// AppendExtrasChannels appends the extras row for (at, arrival, lca) — the
// row DerouteChannels returns — to dst and returns the extended slice. Only
// down-tree arrivals of policy routers have extras; every other query
// appends nothing. With tables the call performs
// no allocation given capacity in dst; in reference mode the row is freshly
// computed.
func (r *Router) AppendExtrasChannels(dst []topology.ChannelID, at topology.NodeID, arrival ArrivalClass, lcaSwitch topology.NodeID) []topology.ChannelID {
	if r.pol == PolicyBaseline {
		return dst
	}
	if r.tab == nil {
		return appendChannels(dst, r.referenceExtras(at, arrival, lcaSwitch))
	}
	if !r.Net.IsSwitch(at) {
		panic(fmt.Sprintf("core: extras at non-switch %d", at))
	}
	if arrival != ArriveDownTree {
		return dst
	}
	return r.tab.appendRow(dst, r.Net.Out(at), numClasses, int(at), int(lcaSwitch))
}

// appendChannels appends the channels of a candidate list to dst.
func appendChannels(dst []topology.ChannelID, cands []Candidate) []topology.ChannelID {
	for _, cand := range cands {
		dst = append(dst, cand.Channel)
	}
	return dst
}

// ReferenceDerouteOutputs is the compute-per-event specification of the
// deroute-extras row the policy tables are verified against.
func (r *Router) ReferenceDerouteOutputs(at topology.NodeID, arrival ArrivalClass, lcaSwitch topology.NodeID) []Candidate {
	return r.referenceExtras(at, arrival, lcaSwitch)
}

// referenceExtras computes the extras of one cell: the channels that are
// not up*/down*-legal for (arrival, lca) but whose use provably preserves
// the deadlock certificate. Within the paper's framework exactly one
// legality clause is relaxable:
//
//   - Rule 1 (ups from up/injection arrivals) is already maximal — every up
//     channel is a baseline candidate, so the up phase is fully adaptive.
//   - Climbing from a down arrival would let a worm hold a down channel
//     while stretching back into the up sub-network, adding down→up edges
//     to the channel dependency relation — the classic unrestricted-
//     misrouting deadlock. Up channels are therefore never extras.
//   - Rule 3 (down-tree channels) is maximal too: a down-tree channel whose
//     endpoint is not an ancestor of the LCA can never complete the descent.
//   - Rule 2 restricts down-cross channels to up/down-cross arrivals. That
//     arrival clause is the relaxable one: a worm already descending a
//     subtree (down-tree arrival) may cross sideways out of it on a
//     down-cross channel whose endpoint is an extended ancestor of the LCA
//     and complete the route down-monotonically from there.
//
// Because every extra is a down channel and down channels strictly ascend
// the labeling's (level, id) order, the relation enlarged by extras remains
// acyclic — including Duato-style indirect dependencies, which are paths in
// it (deadlock.VerifyPolicy and the zoo battery certify both graphs). The
// same lexicographic ascent bounds every worm's path length, so misroute
// routing terminates under any budget, unbounded ("duato") included, without
// a distance-productivity filter.
//
// A productivity filter (endpoint strictly closer to the LCA) was in fact
// tried for the extras row and proved *vacuous at every reachable cell*: a worm holding a down-tree arrival sits at a tree ancestor of its
// LCA, whose tree descent is already a shortest path under BFS levels, and
// the BFS discovery order guarantees any strictly-shorter cross sidestep
// would have captured the LCA's parent pointer into its own subtree —
// contradicting the ancestor relation. The extras row is therefore every
// viable down-cross channel, ordered by (DistToLCA, id).
func (r *Router) referenceExtras(at topology.NodeID, arrival ArrivalClass, lcaSwitch topology.NodeID) []Candidate {
	if !r.Net.IsSwitch(at) {
		panic(fmt.Sprintf("core: extras at non-switch %d", at))
	}
	if arrival != ArriveDownTree {
		return nil
	}
	dist := r.distancesTo(lcaSwitch)
	var out []Candidate
	for _, c := range r.Net.Out(at) {
		ch := r.Net.Chan(c)
		if r.Net.IsProcessor(ch.Dst) || r.Lab.IsDown(c) {
			continue
		}
		if r.Lab.ClassOf[c] != updown.DownCross {
			continue
		}
		end := ch.Dst
		if !r.Lab.IsExtendedAncestor(end, lcaSwitch) {
			continue // cannot complete the descent: not viable
		}
		out = append(out, Candidate{Channel: c, DistToLCA: dist[end]})
	}
	sortCandidates(out)
	return out
}

// DistributionOutputs returns the set of down-tree output channels required
// at switch `at` during the distribution phase for the given destination set
// (keyed by the router's labeling, see DestSet): every child tree channel
// whose subtree contains a destination, including consumption channels to
// locally attached destination processors. The result is sorted by channel
// ID; the request for this set must be enqueued atomically by the router
// model.
//
// The returned slice is freshly allocated; the allocation-free hot-path
// variant is AppendDistributionOutputs.
func (r *Router) DistributionOutputs(at topology.NodeID, dests *updown.TreeSet) []topology.ChannelID {
	if r.tab == nil {
		return r.ReferenceDistributionOutputs(at, dests)
	}
	return r.AppendDistributionOutputs(nil, at, dests)
}

// AppendDistributionOutputs appends the distribution output set of switch
// `at` to dst and returns the extended slice. The destinations below a
// switch are one range of the labeling's tree order, so a switch child's
// subtree test is one range count over the set (bitset.CountRange reads
// only the subtree's words) and a processor child's one bit test. Counting
// instead of merely testing lets the scan stop as soon as every destination
// below `at` has been attributed to a child, which on wide switches skips
// the tail of the child list entirely. Child channels are scanned in their
// fixed ascending-ID order, so the call performs no sort and (given
// capacity in dst) no allocation. In reference mode it delegates to the
// original per-destination ancestor walk.
func (r *Router) AppendDistributionOutputs(dst []topology.ChannelID, at topology.NodeID, dests *updown.TreeSet) []topology.ChannelID {
	if r.tab == nil {
		return append(dst, r.ReferenceDistributionOutputs(at, dests)...)
	}
	if !r.Net.IsSwitch(at) {
		panic(fmt.Sprintf("core: DistributionOutputs at non-switch %d", at))
	}
	lab := r.Lab
	// Destinations still unattributed among at's descendants: child subtrees
	// partition them (at itself is a switch, never a destination).
	remaining := dests.CountRange(lab.ProcRange(at))
	for _, c := range lab.Children(at) {
		if remaining == 0 {
			break
		}
		child := r.Net.Chan(c).Dst
		if r.Net.IsProcessor(child) {
			if dests.Has(lab.Rank(child)) {
				dst = append(dst, c)
				remaining--
			}
			continue
		}
		if n := dests.CountRange(lab.ProcRange(child)); n > 0 {
			dst = append(dst, c)
			remaining -= n
		}
	}
	return dst
}

// ReferenceDistributionOutputs is the original compute-per-event
// distribution function: a per-destination ancestor walk per child subtree
// followed by a sort. It decodes the set's members to processors through
// the labeling's inverse numbering (ProcAt), so it checks the tree order
// rather than sharing the fast path's range arithmetic. It is the
// specification AppendDistributionOutputs is tested against.
func (r *Router) ReferenceDistributionOutputs(at topology.NodeID, dests *updown.TreeSet) []topology.ChannelID {
	if !r.Net.IsSwitch(at) {
		panic(fmt.Sprintf("core: DistributionOutputs at non-switch %d", at))
	}
	var out []topology.ChannelID
	for _, c := range r.Lab.Children(at) {
		if r.subtreeContains(r.Net.Chan(c).Dst, dests) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// subtreeContains reports whether any destination lies in the tree subtree
// rooted at node `root` (i.e. root is an ancestor of some destination; a
// processor is its own only descendant).
func (r *Router) subtreeContains(root topology.NodeID, dests *updown.TreeSet) bool {
	for rk := dests.Next(0); rk >= 0; rk = dests.Next(rk + 1) {
		if r.Lab.IsAncestor(root, r.Lab.ProcAt(rk)) {
			return true
		}
	}
	return false
}

// LCASwitch returns the switch at which distribution begins for the given
// destination processors.
func (r *Router) LCASwitch(dests []topology.NodeID) topology.NodeID {
	return r.Lab.LCASwitch(dests)
}

// DestSet builds the set form of a destination list, keyed by the tree
// order of the router's labeling, validating that all destinations are
// distinct processors.
func (r *Router) DestSet(dests []topology.NodeID) (*updown.TreeSet, error) {
	s := r.Lab.NewTreeSet()
	if err := r.DestSetInto(s, dests); err != nil {
		return nil, err
	}
	return s, nil
}

// DestSetInto is the allocation-free form of DestSet: it clears dst (which
// must hold Net.NumProcs ranks) and fills it with the destination list
// under the router's labeling, validating that all destinations are
// distinct processors. Resettable simulators use it to rebuild a recycled
// worm's destination set in place.
func (r *Router) DestSetInto(dst *updown.TreeSet, dests []topology.NodeID) error {
	if len(dests) == 0 {
		return fmt.Errorf("core: empty destination set")
	}
	dst.Reset()
	for _, d := range dests {
		if !r.Net.IsProcessor(d) {
			return fmt.Errorf("core: destination %d is not a processor", d)
		}
		rk := r.Lab.Rank(d)
		if dst.Has(rk) {
			return fmt.Errorf("core: duplicate destination %d", d)
		}
		dst.Add(rk)
	}
	return nil
}

// TreeReach counts the channels of the distribution subtree for a
// destination set rooted at the LCA: the exact number of down-tree channels
// a SPAM worm will traverse in phase 2. Used by analytics and tests.
//
// The walk is iterative and tests each switch child with one range count
// over the tree-ordered destination set, so it performs no per-switch
// DistributionOutputs allocation (only the destination set and one
// traversal stack).
func (r *Router) TreeReach(dests []topology.NodeID) (int, error) {
	ds, err := r.DestSet(dests)
	if err != nil {
		return 0, err
	}
	lab := r.Lab
	lca := r.LCASwitch(dests)
	count := 0
	stack := make([]topology.NodeID, 0, r.Net.NumSwitches)
	stack = append(stack, lca)
	for len(stack) > 0 {
		sw := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range lab.Children(sw) {
			child := r.Net.Chan(c).Dst
			if r.Net.IsProcessor(child) {
				if ds.Has(lab.Rank(child)) {
					count++
				}
				continue
			}
			if ds.CountRange(lab.ProcRange(child)) > 0 {
				count++
				stack = append(stack, child)
			}
		}
	}
	return count, nil
}
