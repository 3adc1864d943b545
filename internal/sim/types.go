package sim

import (
	"math"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/updown"
)

// FlitKind distinguishes the flit types moving through the network.
type FlitKind uint8

const (
	// Header is the first flit of a worm; it carries the destination set
	// and triggers routing decisions.
	Header FlitKind = iota
	// Data is a payload flit.
	Data
	// Tail is the last flit; its replication releases channel
	// reservations.
	Tail
	// Bubble is an empty filler flit inserted during asynchronous
	// replication; it carries no payload and is discarded at processors.
	Bubble
)

func (k FlitKind) String() string {
	switch k {
	case Header:
		return "header"
	case Data:
		return "data"
	case Tail:
		return "tail"
	case Bubble:
		return "bubble"
	}
	return "invalid"
}

// flit is one flow-control unit in transit.
type flit struct {
	w    *Worm
	kind FlitKind
	seq  int32 // payload index (0 = header); undefined for bubbles
	dist bool  // header emitted by a distribution-phase segment
}

// Worm is one message (unicast or multicast) from submission to delivery.
type Worm struct {
	ID    int64
	Src   topology.NodeID
	Dests []topology.NodeID
	// DestSet is the set form of Dests minus PrunedDests, keyed by the
	// tree order of the labeling the simulator routes with: the
	// destinations below a switch are one rank range of it. A swap
	// renumbers the processors, so SwapRouter and RecomputeQueuedLCAs
	// refill the set of every unlaunched worm (a swap follows a drain of
	// every launched one).
	DestSet *updown.TreeSet
	// LCA is the switch where the distribution phase begins.
	LCA topology.NodeID
	// Flits is the total worm length including header and tail.
	Flits int

	// SubmitNs is when the message was handed to the source processor.
	SubmitNs int64
	// InjectStartNs is when the source processor began the startup phase.
	InjectStartNs int64
	// DoneNs is when the tail arrived at the last destination.
	DoneNs int64
	// ArrivalNs records the tail arrival time per destination, aligned
	// with Dests.
	ArrivalNs []int64

	// OnDelivered, if non-nil, fires when the tail reaches each
	// destination. Used by software multicast baselines to chain phases.
	OnDelivered func(w *Worm, dest topology.NodeID, t int64)
	// OnComplete fires when every destination is accounted for — either
	// delivered or (with Prune set) pruned.
	OnComplete func(w *Worm, t int64)

	// Prune selects the branch-pruning discipline of Malumbres, Duato
	// and Torrellas instead of SPAM's OCRQ waiting: at a distribution
	// split, branches whose channels are busy are cut from the worm and
	// their destinations recorded in PrunedDests for the sender to retry
	// (the related-work scheme the paper contrasts with, "effective only
	// for short messages"). At least one branch always survives.
	Prune bool
	// PrunedDests lists destinations dropped by pruning (Prune only).
	PrunedDests []topology.NodeID

	// MisrouteLeft is the worm's remaining misroute budget: how many more
	// deroute (non-minimal) channels its header may take under a
	// PolicyMisroute router. Set from Config.MisrouteBudget at submission,
	// decremented by the engine per deroute hop; always 0 under other
	// policies, so budget-0 misroute routing is bit-identical to baseline.
	MisrouteLeft int32

	// AbortNs is when the worm was aborted by a topology mutation (see
	// AbortWorms); zero while alive.
	AbortNs int64
	// Retry counts how many times this message has been resubmitted by a
	// fault-injection retry policy (0 for an original submission). The
	// engine leaves it untouched; the faults package maintains it.
	Retry int

	remaining int
	completed bool
	// launched marks worms whose source segment exists: their flits are
	// (or were) in the network, so a drain event aborts them rather than
	// letting them reroute.
	launched bool
	aborted  bool
}

// Latency returns the paper's latency metric: total elapsed time from
// message startup at the source until the last flit arrived at the last
// destination (includes source queueing and startup).
func (w *Worm) Latency() int64 { return w.DoneNs - w.SubmitNs }

// QueueWaitNs returns how long the message waited behind earlier messages
// at its source processor before its startup began.
func (w *Worm) QueueWaitNs() int64 { return w.InjectStartNs - w.SubmitNs }

// NetworkNs returns the in-network portion of the latency: everything after
// source queueing and the startup phase (header routing, blocking, pipeline
// drain). Only meaningful once completed.
func (w *Worm) NetworkNs(startupNs int64) int64 {
	return w.DoneNs - w.InjectStartNs - startupNs
}

// Completed reports whether every destination has received the tail.
func (w *Worm) Completed() bool { return w.completed }

// Aborted reports whether a topology mutation drained this worm from the
// network before it could complete.
func (w *Worm) Aborted() bool { return w.aborted }

// Launched reports whether the worm's source segment has been created, i.e.
// its flits have entered (or begun entering) the network.
func (w *Worm) Launched() bool { return w.launched }

// segment is a worm's presence at one router: it consumes one input channel
// (or the source processor's injection logic) and owns a set of output
// channels once acquired.
type segment struct {
	worm   *Worm
	router topology.NodeID
	// in is the input channel the worm holds at this router; None for the
	// source segment.
	in topology.ChannelID
	// outs are the requested (then owned) output channels.
	outs []topology.ChannelID
	// dist marks distribution-phase segments (restricted to down-tree
	// channels; headers they forward carry the dist flag).
	dist     bool
	acquired bool
	done     bool
	// nextFlit is the next flit index a source segment emits.
	nextFlit int32
	source   bool
	// copied[i] records whether outs[i] has received the current head
	// flit of the input buffer (per-branch asynchronous replication).
	copied []bool
}

// chanState is the simulator state of one unidirectional channel: the output
// buffer at the source router, the wire, the credit count for the input
// buffer at the destination router, the reservation and the OCRQ.
type chanState struct {
	outBuf   flit
	outOcc   bool // output buffer holds a flit (possibly in flight)
	inFlight bool // the wire is busy transmitting outBuf
	credits  int  // free input-buffer slots at the destination
	reserved *segment
	ocrq     []*segment
	// inBuf is the input buffer FIFO at the destination router.
	inBuf []flit

	// Traffic accounting (see ChannelLoads).
	payloadCount     uint64
	bubbleCount      uint64
	reservationCount uint64
	queuePeak        int
}

// procState is the injection side of one processor.
type procState struct {
	queue []*Worm
	busy  bool
}

// Counters exposes aggregate simulator statistics. The JSON form rides the
// /run and fleet shard wires (serve surfaces per-request aggregates), so
// the tags are part of the wire contract; every field is a deterministic
// function of the trial and sums exactly across trials.
type Counters struct {
	Events            uint64 `json:"events"`
	WormsSubmitted    uint64 `json:"worms_submitted"`
	WormsCompleted    uint64 `json:"worms_completed"`
	PayloadFlitHops   uint64 `json:"payload_flit_hops"`
	BubbleFlitHops    uint64 `json:"bubble_flit_hops"`
	HeaderAcquireWait uint64 `json:"header_acquire_wait"` // acquisition attempts that had to wait
	// WormsAborted counts worms drained by topology mutations (fault
	// injection); FlitsDropped counts their flits removed from buffers and
	// wires.
	WormsAborted uint64 `json:"worms_aborted"`
	FlitsDropped uint64 `json:"flits_dropped"`
	// MisrouteHops counts header hops taken on deroute (non-minimal)
	// channels under PolicyMisroute, whatever the budget. It stays 0 under
	// the baseline policy (part of the misroute-0 ≡ baseline differential).
	MisrouteHops uint64 `json:"misroute_hops"`
}

// Add folds o into c field by field — exact uint64 addition, so per-trial
// snapshots aggregate deterministically in any order.
func (c *Counters) Add(o Counters) {
	c.Events += o.Events
	c.WormsSubmitted += o.WormsSubmitted
	c.WormsCompleted += o.WormsCompleted
	c.PayloadFlitHops += o.PayloadFlitHops
	c.BubbleFlitHops += o.BubbleFlitHops
	c.HeaderAcquireWait += o.HeaderAcquireWait
	c.WormsAborted += o.WormsAborted
	c.FlitsDropped += o.FlitsDropped
	c.MisrouteHops += o.MisrouteHops
}

// Config parameterizes a Simulator.
type Config struct {
	// Params holds the paper's latency constants.
	Params core.LatencyParams
	// InputBufFlits is the input buffer capacity per channel in flits.
	// The paper's headline configuration is 1.
	InputBufFlits int
	// StoreAndForward selects the input-buffer-based replication (IBR)
	// architecture of Sivaram, Panda and Stunkel that the paper improves
	// upon: every router absorbs the *entire* packet into its input
	// buffer before making the routing decision and forwarding. It
	// requires InputBufFlits >= the worm length (normalize raises it
	// automatically), which is exactly the limitation SPAM removes —
	// packet length bounded by buffer size. Latency becomes proportional
	// to hops × message length instead of hops + message length.
	StoreAndForward bool
	// AddrsPerHeaderFlit models the cost of encoding the destination set
	// in the worm's header: a multicast to d destinations carries
	// ⌈d / AddrsPerHeaderFlit⌉ − 1 extra address flits behind the routing
	// header, lengthening the worm. 0 (the default) selects the paper's
	// abstraction of a single header flit regardless of d.
	AddrsPerHeaderFlit int
	// MisrouteBudget is the per-worm misroute budget under a PolicyMisroute
	// router: how many deroute (non-minimal) channels one header may take.
	// Ignored (treated as 0) under other policies; negative values clamp
	// to 0 and values above math.MaxInt32 to math.MaxInt32, a budget no
	// worm can spend. With budget 0 a misroute router is bit-identical to
	// baseline.
	MisrouteBudget int
	// Logf, if non-nil, receives a human-readable trace of routing
	// milestones (used by the quickstart example). Keep nil for speed. It
	// is a pointer so that Config stays comparable: runner caches key on
	// the whole Config.
	Logf *func(format string, args ...any)
}

// DefaultConfig returns the paper's configuration: Section 4 latency
// constants and single-flit input buffers.
func DefaultConfig() Config {
	return Config{
		Params:        core.PaperParams(),
		InputBufFlits: 1,
	}
}

func (c *Config) normalize() {
	if c.InputBufFlits <= 0 {
		c.InputBufFlits = 1
	}
	if c.StoreAndForward && c.InputBufFlits < c.Params.MessageFlits {
		// IBR's defining requirement: the whole packet fits the buffer.
		c.InputBufFlits = c.Params.MessageFlits
	}
	c.MisrouteBudget = min(max(c.MisrouteBudget, 0), math.MaxInt32)
}
