package sim

import (
	"slices"

	"repro/internal/topology"
)

// pruneBlocked implements the branch-pruning discipline of Malumbres, Duato
// and Torrellas (the asynchronous tree-based scheme the paper's related-work
// section contrasts SPAM with): at a distribution split, branches whose
// output channels are not immediately available are cut from the worm
// instead of waited for; the destinations they would have served are
// recorded on the worm so the sender can retry them with a fresh worm (and
// a fresh startup — which is why the scheme degrades for long messages that
// hold channels longer and prune more).
//
// Pruning can cut every branch at a router: the returned set is then empty
// and the caller turns the segment into a sink that absorbs the incoming
// flits (the branch dies here; the destinations are retried from the
// source). Phase 1 (to the LCA) still uses SPAM's waiting — the pruning
// scheme concerns the distribution tree.
// The free prefix is compacted into outs in place; blocked channels are
// collected in a simulator-owned scratch buffer, so the steady-state call
// allocates nothing.
func (s *Simulator) pruneBlocked(w *Worm, at topology.NodeID, outs []topology.ChannelID) []topology.ChannelID {
	blocked := s.pruneScratch[:0]
	k := 0
	for _, o := range outs {
		cs := &s.chans[o]
		if cs.reserved == nil && !cs.outOcc && len(cs.ocrq) == 0 {
			outs[k] = o
			k++
		} else {
			blocked = append(blocked, o)
		}
	}
	s.pruneScratch = blocked
	if len(blocked) == 0 {
		return outs
	}
	free := outs[:k]
	lab := s.router.Lab
	for _, b := range blocked {
		sub := s.net.Chan(b).Dst
		if s.net.IsProcessor(sub) {
			s.pruneDest(w, sub)
			continue
		}
		// Every destination in the blocked child's subtree is cut: the
		// members of its rank range, in ascending node ID, the order a
		// sender resubmits PrunedDests in.
		lo, hi := lab.ProcRange(sub)
		cut := s.pruneCut[:0]
		for r := w.DestSet.Next(lo); r >= 0 && r < hi; r = w.DestSet.Next(r + 1) {
			cut = append(cut, lab.ProcAt(r))
		}
		slices.Sort(cut)
		for _, d := range cut {
			s.pruneDest(w, d)
		}
		s.pruneCut = cut
	}
	if s.cfg.Logf != nil {
		s.logf("t=%d worm %d: pruned %d branch(es) at switch %d", s.now, w.ID, len(blocked), at)
	}
	return free
}

// pruneDest removes one destination from a worm's outstanding set.
func (s *Simulator) pruneDest(w *Worm, d topology.NodeID) {
	r := s.router.Lab.Rank(d)
	if !w.DestSet.Has(r) {
		return
	}
	w.DestSet.Remove(r)
	w.PrunedDests = append(w.PrunedDests, d)
	w.remaining--
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
