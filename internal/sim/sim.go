package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/topology"
)

// Simulator is a deterministic, single-threaded flit-level wormhole
// simulator over one labeled network.
//
// The inner loop is allocation-free in steady state: routing decisions are
// appended from the router's compiled tables into reused scratch and
// per-segment buffers, segments are recycled through a free list, scheduled
// closures live in a slot-recycled call table, and every queue (event heap,
// OCRQs, input buffers, injection queues) reuses its backing storage. Per-worm
// bookkeeping (the Worm struct itself) is the only steady-state allocation.
type Simulator struct {
	router *core.Router
	net    *topology.Network
	cfg    Config

	now  int64
	seq  uint64
	heap eventQueue

	chans []chanState
	procs []procState
	// segAtInput[c] is the segment currently consuming input channel c at
	// its destination router.
	segAtInput []*segment

	// calls stores evCall closures by slot; callFree recycles slots.
	calls    []func()
	callFree []int32
	// segFree recycles dead segments (and their outs/copied buffers).
	segFree []*segment
	// pruneScratch collects blocked channels during pruneBlocked, and
	// pruneCut one blocked branch's destinations.
	pruneScratch []topology.ChannelID
	pruneCut     []topology.NodeID
	// candScratch and extrasScratch receive a routed header's candidate
	// and extras rows.
	candScratch   []topology.ChannelID
	extrasScratch []topology.ChannelID
	// worms holds every worm submitted this epoch in submit order; evInject
	// events carry an index into it. wormPool recycles the structs (and
	// their Dests/ArrivalNs/DestSet storage) across Reset epochs.
	worms    []*Worm
	wormPool []*Worm

	// Fault-injection state (see faults.go). staleRoutes[c] counts route
	// events whose header was drained before they fired; abortScratch is
	// drain-sweep scratch; onAbort/onReset are the fault engine's hooks.
	staleRoutes  []int32
	abortScratch []*Worm
	onAbort      func(*Worm) bool
	onReset      func()

	nextWormID  int64
	outstanding int
	counters    Counters
	// completing is the worm whose OnComplete hook is currently executing
	// (nil outside completion hooks). Trace capture reads it to attribute
	// mid-run submissions to their triggering completion, which is what
	// lets a recorded submission stream replay bit-identically: replayed
	// submissions re-enter the event stream at the same point, with the
	// same tie-breaking sequence numbers, as the originals.
	completing *Worm

	lastProgress uint64 // PayloadFlitHops at last watchdog tick
	lastActivity uint64 // non-watchdog events at last watchdog tick
	stalledFor   int
	watchdogOn   bool
	watchdogNs   int64 // simulated time between deadlock checks
	// pendingWork counts scheduled non-watchdog events; when it reaches
	// zero with worms outstanding and no progress, nothing can ever
	// happen again (hard deadlock).
	pendingWork int64
	activity    uint64 // non-watchdog events processed
	err         error
}

// The watchdog reports a stall after stallChecks consecutive intervals
// without payload progress, and a simulation that processes more than
// maxEvents events is aborted as runaway.
const (
	stallChecks = 8
	maxEvents   = 4_000_000_000
)

// watchdogInterval is the simulated time between deadlock checks: a couple
// of full message times, which keeps the checks' overhead low, and at least
// ten startups.
func watchdogInterval(p core.LatencyParams) int64 {
	return max(50*int64(p.MessageFlits)*p.ChanPropNs, 10*p.StartupNs)
}

// New builds a simulator over the given SPAM router.
func New(router *core.Router, cfg Config) (*Simulator, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	cfg.normalize()
	s := &Simulator{
		router:      router,
		net:         router.Net,
		cfg:         cfg,
		watchdogNs:  watchdogInterval(cfg.Params),
		chans:       make([]chanState, len(router.Net.Channels)),
		procs:       make([]procState, router.Net.NumProcs),
		segAtInput:  make([]*segment, len(router.Net.Channels)),
		staleRoutes: make([]int32, len(router.Net.Channels)),
	}
	// Credits bound each input FIFO to InputBufFlits, so its capacity
	// never needs to grow: one shared arena, sliced with hard capacity
	// limits, keeps arrivals allocation-free from the first flit and
	// session construction at O(1) allocations for the FIFOs.
	k := cfg.InputBufFlits
	arena := make([]flit, len(s.chans)*k)
	for i := range s.chans {
		s.chans[i].credits = k
		s.chans[i].inBuf = arena[i*k : i*k : (i+1)*k]
	}
	return s, nil
}

// Now returns the current simulated time in nanoseconds.
func (s *Simulator) Now() int64 { return s.now }

// CompletingWorm returns the worm whose OnComplete hook is currently
// executing, or nil when called outside a completion hook. Submission
// recorders use it to tag mid-run submissions with the completion that
// triggered them, so a replay can re-issue them from the same hook.
func (s *Simulator) CompletingWorm() *Worm { return s.completing }

// Counters returns aggregate statistics so far.
func (s *Simulator) Counters() Counters { return s.counters }

// Config returns a copy of the simulator's normalized configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Outstanding returns the number of submitted-but-incomplete worms.
func (s *Simulator) Outstanding() int { return s.outstanding }

// Err returns the sticky simulator error (deadlock/stall detection).
func (s *Simulator) Err() error { return s.err }

func (s *Simulator) schedule(t int64, kind evKind, a int32) {
	s.seq++
	if kind != evWatchdog {
		s.pendingWork++
	}
	s.heap.Push(event{t: t, seq: s.seq, kind: kind, a: a})
}

// scheduleCall schedules fn at time t via the slot-recycled call table.
func (s *Simulator) scheduleCall(t int64, fn func()) {
	var idx int32
	if n := len(s.callFree); n > 0 {
		idx = s.callFree[n-1]
		s.callFree = s.callFree[:n-1]
		s.calls[idx] = fn
	} else {
		idx = int32(len(s.calls))
		s.calls = append(s.calls, fn)
	}
	s.seq++
	s.pendingWork++
	s.heap.Push(event{t: t, seq: s.seq, kind: evCall, a: idx})
}

// newSegment returns a reset segment, reusing a recycled one when available.
func (s *Simulator) newSegment() *segment {
	if n := len(s.segFree); n > 0 {
		seg := s.segFree[n-1]
		s.segFree = s.segFree[:n-1]
		return seg
	}
	return &segment{in: topology.None}
}

// freeSegment recycles a dead segment. Callers must guarantee no reference
// to seg survives: it must be done, released from every channel reservation,
// absent from every OCRQ, and detached from segAtInput.
func (s *Simulator) freeSegment(seg *segment) {
	seg.worm = nil
	seg.router = 0
	seg.in = topology.None
	seg.outs = seg.outs[:0]
	seg.copied = seg.copied[:0]
	seg.dist = false
	seg.acquired = false
	seg.done = false
	seg.nextFlit = 0
	seg.source = false
	s.segFree = append(s.segFree, seg)
}

// At schedules fn to run at simulated time t (>= now). Traffic generators
// use this to drive open-loop arrival processes.
func (s *Simulator) At(t int64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.scheduleCall(t, fn)
}

// takeWorm returns a blank worm, recycling one released by Reset when
// available. Fields not overwritten by Submit are cleared by recycleWorm.
func (s *Simulator) takeWorm() *Worm {
	if n := len(s.wormPool); n > 0 {
		w := s.wormPool[n-1]
		s.wormPool[n-1] = nil
		s.wormPool = s.wormPool[:n-1]
		return w
	}
	return &Worm{DestSet: s.router.Lab.NewTreeSet()}
}

// recycleWorm clears a worm's per-epoch state and returns it to the pool.
// Dests, ArrivalNs, PrunedDests and DestSet keep their grown storage.
func (s *Simulator) recycleWorm(w *Worm) {
	w.InjectStartNs = 0
	w.DoneNs = 0
	w.OnDelivered = nil
	w.OnComplete = nil
	w.Prune = false
	w.PrunedDests = w.PrunedDests[:0]
	w.MisrouteLeft = 0
	w.AbortNs = 0
	w.Retry = 0
	w.completed = false
	w.launched = false
	w.aborted = false
	s.wormPool = append(s.wormPool, w)
}

// Submit schedules a message for injection at simulated time `at`: the worm
// joins the source processor's queue, serializes behind earlier messages,
// pays the startup latency and then worms through the network. The returned
// Worm's hooks (OnDelivered/OnComplete) may be set before the next Run call.
//
// The returned Worm is owned by the simulator and is valid until the next
// Reset, which recycles it.
func (s *Simulator) Submit(at int64, src topology.NodeID, dests []topology.NodeID) (*Worm, error) {
	if !s.net.IsProcessor(src) {
		return nil, fmt.Errorf("sim: source %d is not a processor", src)
	}
	flits := s.cfg.Params.MessageFlits
	if a := s.cfg.AddrsPerHeaderFlit; a > 0 {
		flits += (len(dests)+a-1)/a - 1
	}
	if s.cfg.StoreAndForward && flits > s.cfg.InputBufFlits {
		return nil, fmt.Errorf("sim: store-and-forward packet of %d flits exceeds the %d-flit input buffers — the very limitation SPAM removes",
			flits, s.cfg.InputBufFlits)
	}
	w := s.takeWorm()
	if err := s.router.DestSetInto(w.DestSet, dests); err != nil {
		s.wormPool = append(s.wormPool, w)
		return nil, err
	}
	s.nextWormID++
	w.ID = s.nextWormID
	w.Src = src
	w.Dests = append(w.Dests[:0], dests...)
	w.LCA = s.router.LCASwitch(dests)
	w.Flits = flits
	w.SubmitNs = at
	if at < s.now {
		w.SubmitNs = s.now
	}
	if cap(w.ArrivalNs) < len(dests) {
		w.ArrivalNs = make([]int64, len(dests))
	} else {
		w.ArrivalNs = w.ArrivalNs[:len(dests)]
		clear(w.ArrivalNs)
	}
	if s.router.Policy() == core.PolicyMisroute {
		w.MisrouteLeft = int32(s.cfg.MisrouteBudget)
	}
	w.remaining = len(dests)
	s.outstanding++
	s.counters.WormsSubmitted++
	s.armWatchdog()
	s.schedule(w.SubmitNs, evInject, int32(len(s.worms)))
	s.worms = append(s.worms, w)
	return w, nil
}

// Reset rewinds the simulator to time zero for a fresh trial while retaining
// every arena the engine has grown: the event rings and tiered heap, the
// shared input-FIFO arena, the segment free list, the call table, the OCRQ
// and injection-queue backing storage, and the worm structs themselves. A
// Reset-then-run produces bit-identical results to a fresh simulator over
// the same submission sequence, at zero steady-state allocations.
//
// Reset invalidates every *Worm returned by Submit since construction or the
// previous Reset: the structs (including their Dests/ArrivalNs slices) are
// recycled into the next epoch. Read results out before resetting.
func (s *Simulator) Reset() {
	// Live segments of an interrupted run are recycled too. Every routed
	// segment is registered at segAtInput[seg.in] exactly once; source
	// segments appear exactly once in the reservation or OCRQ of their
	// injection channel (processor-sourced channels carry no other
	// segments), so the two sweeps are disjoint and complete.
	for c := range s.segAtInput {
		if seg := s.segAtInput[c]; seg != nil {
			s.segAtInput[c] = nil
			s.freeSegment(seg)
		}
	}
	for c := range s.chans {
		cs := &s.chans[c]
		if s.net.IsProcessor(s.net.Chan(topology.ChannelID(c)).Src) {
			if cs.reserved != nil {
				s.freeSegment(cs.reserved)
			}
			for _, seg := range cs.ocrq {
				s.freeSegment(seg)
			}
		}
		cs.outBuf = flit{}
		cs.outOcc = false
		cs.inFlight = false
		cs.credits = s.cfg.InputBufFlits
		cs.reserved = nil
		clear(cs.ocrq)
		cs.ocrq = cs.ocrq[:0]
		cs.inBuf = cs.inBuf[:0]
		cs.payloadCount = 0
		cs.bubbleCount = 0
		cs.reservationCount = 0
		cs.queuePeak = 0
	}
	for i := range s.procs {
		ps := &s.procs[i]
		clear(ps.queue)
		ps.queue = ps.queue[:0]
		ps.busy = false
	}
	for _, w := range s.worms {
		s.recycleWorm(w)
	}
	clear(s.worms)
	s.worms = s.worms[:0]
	clear(s.calls)
	s.calls = s.calls[:0]
	s.callFree = s.callFree[:0]
	s.now = 0
	s.seq = 0
	s.heap.Reset()
	s.nextWormID = 0
	s.outstanding = 0
	s.completing = nil
	s.counters = Counters{}
	s.lastProgress = 0
	s.lastActivity = 0
	s.stalledFor = 0
	s.watchdogOn = false
	s.pendingWork = 0
	s.activity = 0
	s.err = nil
	clear(s.staleRoutes)
	s.abortScratch = s.abortScratch[:0]
	if s.onReset != nil {
		// The fault engine restores the base labeling and tables so a
		// reset simulator routes bit-identically to a fresh one.
		s.onReset()
	}
}

func (s *Simulator) armWatchdog() {
	if s.watchdogOn || s.watchdogNs <= 0 {
		return
	}
	s.watchdogOn = true
	s.schedule(s.now+s.watchdogNs, evWatchdog, 0)
}

func (s *Simulator) procIndex(p topology.NodeID) int32 {
	return int32(int(p) - s.net.NumSwitches)
}

func (s *Simulator) enqueueWorm(w *Worm) {
	pi := s.procIndex(w.Src)
	ps := &s.procs[pi]
	ps.queue = append(ps.queue, w)
	s.startNextInjection(pi)
}

func (s *Simulator) startNextInjection(pi int32) {
	ps := &s.procs[pi]
	if ps.busy || len(ps.queue) == 0 {
		return
	}
	ps.busy = true
	w := ps.queue[0]
	w.InjectStartNs = s.now
	s.schedule(s.now+s.cfg.Params.StartupNs, evStartup, pi)
}

// Run processes events until the heap is exhausted, simulated time passes
// `until`, or an error is detected. It returns the sticky error, if any.
func (s *Simulator) Run(until int64) error {
	for s.err == nil && s.heap.Len() > 0 && s.heap.PeekTime() <= until {
		s.step()
	}
	return s.err
}

// RunUntilIdle processes events until no worms are outstanding (or the time
// cap passes, which is reported as an error unless everything completed).
func (s *Simulator) RunUntilIdle(cap int64) error {
	for s.err == nil && s.outstanding > 0 && s.heap.Len() > 0 && s.heap.PeekTime() <= cap {
		s.step()
	}
	if s.err != nil {
		return s.err
	}
	if s.outstanding > 0 {
		return fmt.Errorf("sim: %d worms outstanding at time cap %d ns", s.outstanding, cap)
	}
	return nil
}

func (s *Simulator) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("sim: "+format, args...)
	}
}

func (s *Simulator) step() {
	ev := s.heap.Pop()
	s.now = ev.t
	s.counters.Events++
	if s.counters.Events > maxEvents {
		s.fail("event budget %d exhausted at t=%d", uint64(maxEvents), s.now)
		return
	}
	if ev.kind != evWatchdog {
		s.pendingWork--
		s.activity++
	}
	switch ev.kind {
	case evArrive:
		s.onArrive(topology.ChannelID(ev.a))
	case evRoute:
		s.onRoute(topology.ChannelID(ev.a))
	case evStartup:
		s.onStartup(ev.a)
	case evWatchdog:
		s.onWatchdog()
	case evCall:
		fn := s.calls[ev.a]
		s.calls[ev.a] = nil
		s.callFree = append(s.callFree, ev.a)
		fn()
	case evInject:
		s.enqueueWorm(s.worms[ev.a])
	}
}

// onStartup begins injecting the head-of-queue worm at processor index pi.
func (s *Simulator) onStartup(pi int32) {
	ps := &s.procs[pi]
	w := ps.queue[0]
	n := len(ps.queue)
	copy(ps.queue, ps.queue[1:])
	ps.queue[n-1] = nil
	ps.queue = ps.queue[:n-1]
	src := topology.NodeID(int(pi) + s.net.NumSwitches)
	inj := s.net.ChannelBetween(src, s.net.SwitchOf(src))
	w.launched = true
	seg := s.newSegment()
	seg.worm = w
	seg.router = src
	seg.outs = append(seg.outs, inj)
	seg.source = true
	if s.cfg.Logf != nil {
		s.logf("t=%d worm %d: startup done at proc %d, requesting injection channel", s.now, w.ID, src)
	}
	s.enqueueRequests(seg)
}

// enqueueRequests atomically appends seg to the OCRQ of every requested
// output channel, then attempts acquisition.
func (s *Simulator) enqueueRequests(seg *segment) {
	for _, o := range seg.outs {
		cs := &s.chans[o]
		cs.ocrq = append(cs.ocrq, seg)
		if len(cs.ocrq) > cs.queuePeak {
			cs.queuePeak = len(cs.ocrq)
		}
	}
	s.tryAcquire(seg)
}

// tryAcquire acquires all of seg's requested channels if seg heads every
// OCRQ and every channel is unreserved with an empty output buffer; the
// header flit is then replicated into the output buffers.
func (s *Simulator) tryAcquire(seg *segment) {
	if seg.acquired || seg.done {
		return
	}
	for _, o := range seg.outs {
		cs := &s.chans[o]
		if cs.reserved != nil || cs.outOcc || len(cs.ocrq) == 0 || cs.ocrq[0] != seg {
			s.counters.HeaderAcquireWait++
			return
		}
	}
	for _, o := range seg.outs {
		cs := &s.chans[o]
		n := len(cs.ocrq)
		copy(cs.ocrq, cs.ocrq[1:])
		cs.ocrq[n-1] = nil
		cs.ocrq = cs.ocrq[:n-1]
		cs.reserved = seg
		cs.reservationCount++
	}
	seg.acquired = true
	if seg.source {
		if s.cfg.Logf != nil {
			s.logf("t=%d worm %d: injection channel acquired at proc %d", s.now, seg.worm.ID, seg.router)
		}
		s.sourceAdvance(seg)
		return
	}
	// Replicate the header from the input buffer to every output buffer.
	cs := &s.chans[seg.in]
	head := cs.inBuf[0]
	if head.kind != Header || head.w != seg.worm {
		s.fail("worm %d: input head of channel %d is %v during acquire", seg.worm.ID, seg.in, head.kind)
		return
	}
	hdr := head
	hdr.dist = seg.dist
	for _, o := range seg.outs {
		s.putOutBuf(o, hdr)
	}
	if s.cfg.Logf != nil {
		s.logf("t=%d worm %d: acquired %d channel(s) at switch %d", s.now, seg.worm.ID, len(seg.outs), seg.router)
	}
	s.popInput(seg.in)
}

// sourceAdvance emits the next flit of a source segment whenever the
// injection channel's output buffer is free.
func (s *Simulator) sourceAdvance(seg *segment) {
	if seg.done || !seg.acquired {
		return
	}
	o := seg.outs[0]
	if s.chans[o].outOcc {
		return
	}
	w := seg.worm
	kind := Data
	switch {
	case seg.nextFlit == 0:
		kind = Header
	case int(seg.nextFlit) == w.Flits-1:
		kind = Tail
	}
	s.putOutBuf(o, flit{w: w, kind: kind, seq: seg.nextFlit})
	seg.nextFlit++
	if kind == Tail {
		s.releaseChannels(seg)
		seg.done = true
		pi := s.procIndex(w.Src)
		s.procs[pi].busy = false
		s.startNextInjection(pi)
		s.freeSegment(seg)
	}
}

// putOutBuf places a flit into an empty output buffer and starts the wire if
// possible.
func (s *Simulator) putOutBuf(o topology.ChannelID, fl flit) {
	cs := &s.chans[o]
	if cs.outOcc {
		s.fail("output buffer of channel %d already occupied", o)
		return
	}
	cs.outBuf = fl
	cs.outOcc = true
	s.trySend(o)
}

// trySend launches the output-buffer flit onto the wire when the wire is
// idle and the destination input buffer has a free slot (a credit). The
// arrival event carries no payload: the output buffer is immutable while the
// wire is busy, so the receiver reads the flit from there.
func (s *Simulator) trySend(o topology.ChannelID) {
	cs := &s.chans[o]
	if !cs.outOcc || cs.inFlight || cs.credits == 0 {
		return
	}
	cs.inFlight = true
	cs.credits--
	s.schedule(s.now+s.cfg.Params.ChanPropNs, evArrive, int32(o))
}

// onArrive completes a flit's flight over channel c: deliver it to the
// destination node, then let the upstream segment refill the output buffer.
func (s *Simulator) onArrive(c topology.ChannelID) {
	cs := &s.chans[c]
	fl := cs.outBuf
	cs.outOcc = false
	cs.inFlight = false
	if fl.kind == Bubble {
		cs.bubbleCount++
	} else {
		cs.payloadCount++
	}
	if fl.w != nil && fl.w.aborted {
		// The worm was drained while this flit was on the wire: the flit
		// completes its flight into nothing. Its input-buffer slot was
		// never used, so the credit returns, and the freed output buffer
		// wakes whoever waits on the channel. (No reservation of the
		// aborted worm survives the drain sweep, so cs.reserved here is
		// either nil or a live worm that could not refill the buffer
		// while this flit occupied it.)
		cs.credits++
		s.counters.FlitsDropped++
		if cs.reserved != nil {
			if cs.reserved.source {
				s.sourceAdvance(cs.reserved)
			} else {
				s.segAdvance(cs.reserved)
			}
		} else if len(cs.ocrq) > 0 {
			s.tryAcquire(cs.ocrq[0])
		}
		return
	}
	dst := s.net.Chan(c).Dst

	if s.net.IsProcessor(dst) {
		// Consumption: the processor drains its input instantly.
		cs.credits++
		s.consume(dst, fl)
	} else {
		cs.inBuf = append(cs.inBuf, fl)
		if fl.kind != Bubble {
			s.counters.PayloadFlitHops++
		} else {
			s.counters.BubbleFlitHops++
		}
		if len(cs.inBuf) == 1 {
			s.dispatchHead(c)
		} else if s.cfg.StoreAndForward && fl.kind == Tail &&
			cs.inBuf[0].kind == Header && cs.inBuf[0].w == fl.w {
			// IBR: the packet is now fully buffered; route it.
			s.schedule(s.now+s.cfg.Params.RouterSetupNs, evRoute, int32(c))
		}
	}

	// The output buffer is empty again: refill it from the owning segment
	// or let the next OCRQ head acquire the channel.
	if cs.reserved != nil {
		if cs.reserved.source {
			s.sourceAdvance(cs.reserved)
		} else {
			s.segAdvance(cs.reserved)
		}
	} else if len(cs.ocrq) > 0 {
		s.tryAcquire(cs.ocrq[0])
	}
}

// consume handles a flit arriving at a destination processor.
func (s *Simulator) consume(proc topology.NodeID, fl flit) {
	if fl.kind == Bubble {
		s.counters.BubbleFlitHops++
		return
	}
	s.counters.PayloadFlitHops++
	if fl.kind != Tail {
		return
	}
	w := fl.w
	for i, d := range w.Dests {
		if d == proc {
			w.ArrivalNs[i] = s.now
			break
		}
	}
	w.remaining--
	if s.cfg.Logf != nil {
		s.logf("t=%d worm %d: tail delivered at proc %d (%d remaining)", s.now, w.ID, proc, w.remaining)
	}
	if w.OnDelivered != nil {
		w.OnDelivered(w, proc, s.now)
	}
	if w.remaining == 0 {
		w.DoneNs = s.now
		w.completed = true
		s.outstanding--
		s.counters.WormsCompleted++
		if w.OnComplete != nil {
			s.completing = w
			w.OnComplete(w, s.now)
			s.completing = nil
		}
	}
}

// dispatchHead reacts to a flit reaching the head of input buffer c at a
// switch: headers start the router-setup delay; other flits advance their
// segment.
func (s *Simulator) dispatchHead(c topology.ChannelID) {
	cs := &s.chans[c]
	head := cs.inBuf[0]
	if head.kind == Header {
		if s.cfg.StoreAndForward {
			// IBR absorbs the whole packet before routing: route now
			// only if the tail is already buffered (it arrived while
			// an earlier worm still occupied the head); otherwise the
			// tail's arrival triggers routing.
			for _, fl := range cs.inBuf[1:] {
				if fl.kind == Tail && fl.w == head.w {
					s.schedule(s.now+s.cfg.Params.RouterSetupNs, evRoute, int32(c))
					break
				}
			}
			return
		}
		s.schedule(s.now+s.cfg.Params.RouterSetupNs, evRoute, int32(c))
		return
	}
	seg := s.segAtInput[c]
	if seg == nil {
		s.fail("worm %d: %v flit at head of channel %d with no segment", head.w.ID, head.kind, c)
		return
	}
	s.segAdvance(seg)
}

// onRoute makes the routing decision for the header at the head of input
// buffer c and enqueues its output-channel requests atomically. The decision
// itself is a table lookup (phase 1) or a bitset scan appended into the
// segment's reusable output buffer (distribution), allocating nothing in
// steady state.
func (s *Simulator) onRoute(c topology.ChannelID) {
	if s.staleRoutes[c] > 0 {
		// The header this event was scheduled for was drained by a
		// topology mutation before the router setup completed. Any header
		// at the head now has its own (later) route event.
		s.staleRoutes[c]--
		return
	}
	cs := &s.chans[c]
	if len(cs.inBuf) == 0 || cs.inBuf[0].kind != Header {
		s.fail("route event on channel %d without header at head", c)
		return
	}
	head := cs.inBuf[0]
	w := head.w
	at := s.net.Chan(c).Dst
	dist := head.dist || at == w.LCA

	seg := s.newSegment()
	seg.worm = w
	seg.router = at
	seg.in = c
	seg.dist = dist
	if dist {
		seg.outs = s.router.AppendDistributionOutputs(seg.outs, at, w.DestSet)
		if len(seg.outs) == 0 {
			s.freeSegment(seg)
			s.fail("worm %d: no distribution outputs at switch %d", w.ID, at)
			return
		}
		if w.Prune {
			seg.outs = s.pruneBlocked(w, at, seg.outs)
			// All branches pruned: the segment becomes a sink that
			// absorbs the incoming worm (empty outs acquire
			// trivially and every flit is consumed on pop).
		}
	} else {
		arrival := core.ArrivalOf(s.router.Lab.ClassOf[c])
		s.candScratch = s.router.AppendCandidateChannels(s.candScratch[:0], at, arrival, w.LCA)
		cands := s.candScratch
		if len(cands) == 0 {
			s.freeSegment(seg)
			s.fail("worm %d: no route at switch %d toward LCA %d", w.ID, at, w.LCA)
			return
		}
		pick := cands[0]
		// Adaptive selection: prefer the highest-priority channel that
		// is immediately acquirable.
		found := false
		for _, cand := range cands {
			ocs := &s.chans[cand]
			if ocs.reserved == nil && !ocs.outOcc && len(ocs.ocrq) == 0 {
				pick = cand
				found = true
				break
			}
		}
		if !found && w.MisrouteLeft > 0 {
			// Every legal channel is busy: a misroute worm with budget left
			// may take an extras channel, but only one that is *instantly
			// free* — policy channels are never waited on, so every blocking
			// wait below lands on the baseline escape class and the wait-for
			// CDG stays the acyclic up*/down* one (ARCHITECTURE invariant 12).
			s.extrasScratch = s.router.AppendExtrasChannels(s.extrasScratch[:0], at, arrival, w.LCA)
			for _, cand := range s.extrasScratch {
				ocs := &s.chans[cand]
				if ocs.reserved == nil && !ocs.outOcc && len(ocs.ocrq) == 0 {
					pick = cand
					w.MisrouteLeft--
					s.counters.MisrouteHops++
					break
				}
			}
		}
		seg.outs = append(seg.outs, pick)
	}
	if cap(seg.copied) < len(seg.outs) {
		seg.copied = make([]bool, len(seg.outs))
	} else {
		seg.copied = seg.copied[:len(seg.outs)]
		for i := range seg.copied {
			seg.copied[i] = false
		}
	}
	s.segAtInput[c] = seg
	if s.cfg.Logf != nil {
		s.logf("t=%d worm %d: header at switch %d (dist=%v) requests %v", s.now, w.ID, at, dist, seg.outs)
	}
	s.enqueueRequests(seg)
}

// segAdvance moves the worm at a switch segment forward using per-branch
// asynchronous replication: every owned output buffer copies the current
// head flit of the input buffer as soon as that buffer individually becomes
// free; the head flit is consumed once every branch has copied it. Branches
// that have already copied the current flit and drain again while a sibling
// branch is still blocked receive bubble flits, so their heads keep
// advancing independently (the paper's bubble mechanism). Copying
// per-branch rather than all-at-once is essential: an all-or-nothing copy
// plus eager bubbles livelocks as soon as two branches drift out of phase,
// because each newly freed buffer would be refilled with a bubble while the
// other is busy.
func (s *Simulator) segAdvance(seg *segment) {
	if seg.done {
		return
	}
	if !seg.acquired {
		s.tryAcquire(seg)
		return
	}
	cs := &s.chans[seg.in]
	if len(cs.inBuf) == 0 {
		return // upstream has not delivered the next flit yet
	}
	head := cs.inBuf[0]
	if head.w != seg.worm {
		s.fail("worm %d: foreign flit (worm %d) at head of channel %d", seg.worm.ID, head.w.ID, seg.in)
		return
	}
	if head.kind == Bubble {
		// Bubbles are filler, not payload: forward into whatever buffers
		// are free (the previous real flit is fully replicated, so every
		// branch is in sync; laggard-free branches simply miss it).
		for _, o := range seg.outs {
			if !s.chans[o].outOcc {
				s.putOutBuf(o, flit{w: seg.worm, kind: Bubble})
			}
		}
		s.popInput(seg.in)
		return
	}
	// Copy the real flit into every free branch that does not have it yet.
	allCopied := true
	for i, o := range seg.outs {
		if seg.copied[i] {
			continue
		}
		if s.chans[o].outOcc {
			allCopied = false
			continue
		}
		s.putOutBuf(o, head)
		seg.copied[i] = true
	}
	if allCopied {
		for i := range seg.copied {
			seg.copied[i] = false
		}
		if head.kind == Tail {
			s.releaseChannels(seg)
			seg.done = true
			s.segAtInput[seg.in] = nil
			in := seg.in
			s.freeSegment(seg)
			s.popInput(in)
			return
		}
		s.popInput(seg.in)
		return
	}
	// Some branch is still blocked on this flit: keep the branches that
	// already copied it moving with bubbles (never after the tail — a
	// branch that copied the tail is finished).
	if head.kind != Tail {
		for i, o := range seg.outs {
			if seg.copied[i] && !s.chans[o].outOcc {
				s.putOutBuf(o, flit{w: seg.worm, kind: Bubble})
			}
		}
	}
}

// releaseChannels releases seg's reservations (invoked when the tail has
// been replicated to the output buffers, per the paper) and wakes waiting
// OCRQ heads.
func (s *Simulator) releaseChannels(seg *segment) {
	for _, o := range seg.outs {
		cs := &s.chans[o]
		cs.reserved = nil
		if len(cs.ocrq) > 0 {
			s.tryAcquire(cs.ocrq[0])
		}
	}
}

// popInput removes the head flit of input buffer c, returns the credit to
// the upstream sender and dispatches the next head if any.
func (s *Simulator) popInput(c topology.ChannelID) {
	cs := &s.chans[c]
	copy(cs.inBuf, cs.inBuf[1:])
	cs.inBuf = cs.inBuf[:len(cs.inBuf)-1]
	cs.credits++
	s.trySend(c)
	if len(cs.inBuf) > 0 {
		s.dispatchHead(c)
	}
}

// logf formats a trace line. Callers must guard with s.cfg.Logf != nil so
// the variadic argument pack is never materialized on the hot path.
func (s *Simulator) logf(format string, args ...any) {
	(*s.cfg.Logf)(format, args...)
}

// onWatchdog checks for forward progress; on sustained stalls it inspects
// the wait-for graph and reports deadlock. Three situations are told apart:
//
//   - payload advanced since the last check: healthy, reset;
//   - no payload progress and no scheduled work left: hard deadlock —
//     nothing can ever happen again, fail immediately;
//   - no payload progress but events still churn (e.g. bubble traffic):
//     possible livelock, fail after stallChecks consecutive intervals;
//   - no payload progress and no events processed, but work is scheduled
//     for the future (a quiet gap before submissions): not a stall.
func (s *Simulator) onWatchdog() {
	s.watchdogOn = false
	if s.outstanding == 0 {
		return
	}
	progressed := s.counters.PayloadFlitHops != s.lastProgress
	active := s.activity != s.lastActivity
	s.lastProgress = s.counters.PayloadFlitHops
	s.lastActivity = s.activity
	switch {
	case progressed:
		s.stalledFor = 0
	case s.pendingWork == 0:
		if cycle := s.WaitCycle(); cycle != nil {
			s.fail("deadlock detected at t=%d: worm wait cycle %v", s.now, cycle)
		} else {
			s.fail("hard stall at t=%d: %d worms outstanding, nothing scheduled", s.now, s.outstanding)
		}
		return
	case active:
		s.stalledFor++
		if cycle := s.WaitCycle(); cycle != nil {
			s.fail("deadlock detected at t=%d: worm wait cycle %v", s.now, cycle)
			return
		}
		if s.stalledFor >= stallChecks {
			s.fail("no payload progress for %d watchdog intervals at t=%d with %d worms outstanding",
				s.stalledFor, s.now, s.outstanding)
			return
		}
	default:
		// Quiet gap awaiting scheduled work.
		s.stalledFor = 0
	}
	s.armWatchdog()
}
