package sim

// Fault-injection support: live routing-table swaps and the drain semantics
// of topology mutations.
//
// The simulator itself knows nothing about fault scripts or relabeling —
// that lives in internal/faults. What it provides here is the mechanism:
//
//   - AbortWorms drains every launched worm from every buffer, queue and
//     reservation instantly (flits already on a wire complete their flight
//     and are dropped on arrival);
//   - SwapRouter points the engine at a reconfigured router between events;
//   - RecomputeQueuedLCAs re-evaluates the LCA of not-yet-launched worms
//     under the swapped labeling and, like SwapRouter, refills their
//     destination sets in its tree order.
//
// The fault engine drains before every swap, so no worm ever holds a
// channel under one labeling while it waits under another: every wait-for
// graph is one labeling's, which Theorem 1 makes acyclic. A header that
// finds no legal route is therefore an engine failure, as without faults.
//
// All of it is allocation-free in steady state: the sweeps reuse retained
// scratch, and dropped flits recycle through the existing free lists.

import "repro/internal/core"

// Router returns the router the simulator currently routes with.
func (s *Simulator) Router() *core.Router { return s.router }

// SwapRouter atomically (with respect to the event loop) replaces the
// simulator's router. The new router must be built over the same network:
// channel IDs are baked into every queue and buffer. Routing decisions from
// the next event on use the new tables. Only unlaunched worms' destination
// sets are refilled in the new router's tree order, so a router over a
// different labeling needs every launched worm drained first (AbortWorms).
func (s *Simulator) SwapRouter(r *core.Router) {
	if r.Net != s.net {
		panic("sim: SwapRouter with a router over a different network")
	}
	s.router = r
	s.rekeyDestSets()
}

// SetAbortHook installs the per-worm abort callback. The hook fires once
// for every worm AbortWorms drains, inside the event loop; it returns true
// if it takes responsibility for the message (e.g. schedules a retry), in
// which case the worm's OnComplete is NOT invoked. With a nil or
// false-returning hook, OnComplete fires at abort time so closed-loop
// workloads keep flowing.
func (s *Simulator) SetAbortHook(fn func(*Worm) bool) { s.onAbort = fn }

// SetResetHook installs a callback invoked at the end of every Reset — the
// fault engine uses it to restore the base (no-faults) labeling so a reset
// simulator is bit-identical to a fresh one.
func (s *Simulator) SetResetHook(fn func()) { s.onReset = fn }

// RecomputeQueuedLCAs re-derives the distribution LCA of every submitted but
// not yet launched worm from the current router and refills its
// destination set. Must be called after every in-place Recompile: a queued
// worm's LCA was computed under the labeling current at Submit time, and
// its set is keyed by the tree order it was filled under, which an
// in-place relabel renumbers.
func (s *Simulator) RecomputeQueuedLCAs() {
	for _, w := range s.worms {
		if !w.launched {
			w.LCA = s.router.LCASwitch(w.Dests)
		}
	}
	s.rekeyDestSets()
}

// rekeyDestSets refills every unlaunched worm's destination set under the
// current router's labeling. Only routing prunes or completes a worm, so
// an unlaunched worm's set is all of its Dests. It allocates nothing.
func (s *Simulator) rekeyDestSets() {
	lab := s.router.Lab
	for _, w := range s.worms {
		if w.launched {
			continue
		}
		w.DestSet.Reset()
		for _, d := range w.Dests {
			w.DestSet.Add(lab.Rank(d))
		}
	}
}

// AbortWorms drains every launched, incomplete worm from the network at the
// current simulated time and returns how many were aborted: the
// Autonet-faithful reaction to any topology change, where packets in
// flight during a reconfiguration are discarded.
//
// Drain semantics, precisely:
//
//   - every flit of an aborted worm is removed from input buffers and
//     parked output buffers, returning its credits; flits mid-flight on a
//     wire complete the propagation delay and are dropped on arrival;
//   - its segments leave every OCRQ and release every reservation; freed
//     channels immediately wake waiting segments;
//   - a mid-injection source segment frees its processor, which starts its
//     next queued message;
//   - destinations that already consumed the tail keep it (partial
//     delivery is visible in Worm.ArrivalNs); the worm still counts as
//     aborted, with Completed() false and AbortNs set;
//   - not-yet-launched worms (waiting in a source queue or pre-startup)
//     are never aborted by AbortWorms.
//
// For each drained worm the abort hook decides retry responsibility; see
// SetAbortHook.
func (s *Simulator) AbortWorms() int {
	s.abortScratch = s.abortScratch[:0]
	for _, w := range s.worms {
		s.markAborted(w)
	}
	if len(s.abortScratch) == 0 {
		return 0
	}
	s.drainAborted()
	return s.finishAborts()
}

// markAborted flags a launched, live worm for draining.
func (s *Simulator) markAborted(w *Worm) {
	if !w.launched || w.completed || w.aborted {
		return
	}
	w.aborted = true
	w.AbortNs = s.now
	s.abortScratch = append(s.abortScratch, w)
}

// drainAborted removes every trace of the marked worms from the engine
// state. Every launched worm is marked, so no live flit, request or
// reservation survives the sweeps. The order of the sweeps matters; see the
// inline comments.
func (s *Simulator) drainAborted() {
	// 1. Input buffers, while segAtInput still reflects pre-drain state:
	// a header flit removed from the head of a channel whose segment does
	// not exist yet had a route event scheduled but not fired — that event
	// is now stale and must be swallowed when it pops.
	for c := range s.chans {
		cs := &s.chans[c]
		if len(cs.inBuf) == 0 {
			continue
		}
		head := cs.inBuf[0]
		k := 0
		for _, fl := range cs.inBuf {
			if fl.w != nil && fl.w.aborted {
				continue
			}
			cs.inBuf[k] = fl
			k++
		}
		removed := len(cs.inBuf) - k
		if removed == 0 {
			continue
		}
		for i := k; i < len(cs.inBuf); i++ {
			cs.inBuf[i] = flit{}
		}
		cs.inBuf = cs.inBuf[:k]
		cs.credits += removed
		s.counters.FlitsDropped += uint64(removed)
		if head.w.aborted && head.kind == Header && s.segAtInput[c] == nil {
			s.staleRoutes[c]++
		}
	}

	// 2. Segments: OCRQ entries, reservations and input-side ownership.
	// Routed segments are owned by segAtInput (freed there exactly once);
	// source segments live in exactly one OCRQ slot or reservation of
	// their injection channel and are freed where found.
	for c := range s.chans {
		cs := &s.chans[c]
		k := 0
		for _, seg := range cs.ocrq {
			if seg.worm.aborted {
				if seg.source {
					s.releaseSource(seg)
				}
				continue
			}
			cs.ocrq[k] = seg
			k++
		}
		for i := k; i < len(cs.ocrq); i++ {
			cs.ocrq[i] = nil
		}
		cs.ocrq = cs.ocrq[:k]
		if cs.reserved != nil && cs.reserved.worm.aborted {
			if cs.reserved.source {
				s.releaseSource(cs.reserved)
			}
			cs.reserved = nil
		}
	}
	for c := range s.segAtInput {
		if seg := s.segAtInput[c]; seg != nil && seg.worm.aborted {
			s.segAtInput[c] = nil
			s.freeSegment(seg)
		}
	}

	// 3. Parked output-buffer flits (not on the wire) vanish; in-flight
	// flits finish their propagation and are dropped by onArrive. No live
	// flit is left to use the freed credits, and no live request to take
	// the freed channels, so there is nothing to wake.
	for c := range s.chans {
		cs := &s.chans[c]
		if cs.outOcc && !cs.inFlight && cs.outBuf.w != nil && cs.outBuf.w.aborted {
			cs.outBuf = flit{}
			cs.outOcc = false
			s.counters.FlitsDropped++
		}
	}
}

// releaseSource frees an aborted source segment and restarts injection at
// its processor.
func (s *Simulator) releaseSource(seg *segment) {
	pi := s.procIndex(seg.worm.Src)
	s.procs[pi].busy = false
	s.freeSegment(seg)
	s.startNextInjection(pi)
}

// finishAborts settles the accounting and hooks of the freshly drained
// worms collected in abortScratch. Hooks may Submit (retries), which is safe
// here: the engine state is consistent again.
func (s *Simulator) finishAborts() int {
	n := len(s.abortScratch)
	for _, w := range s.abortScratch {
		s.outstanding--
		s.counters.WormsAborted++
		if s.cfg.Logf != nil {
			s.logf("t=%d worm %d: aborted by topology mutation (%d of %d dests delivered)",
				s.now, w.ID, len(w.Dests)-w.remaining, len(w.Dests))
		}
		retried := false
		if s.onAbort != nil {
			retried = s.onAbort(w)
		}
		if !retried && w.OnComplete != nil {
			s.completing = w
			w.OnComplete(w, s.now)
			s.completing = nil
		}
	}
	s.abortScratch = s.abortScratch[:0]
	return n
}
