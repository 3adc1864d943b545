package core

import (
	"fmt"

	"repro/internal/topology"
	"repro/internal/updown"
)

// LatencyParams are the timing constants of the paper's experiments.
type LatencyParams struct {
	// StartupNs is the communication startup latency (paper: 10 µs).
	StartupNs int64
	// RouterSetupNs is the per-router setup latency for each message
	// header (paper: 40 ns).
	RouterSetupNs int64
	// ChanPropNs is the channel propagation latency per flit per channel
	// (paper: 10 ns).
	ChanPropNs int64
	// MessageFlits is the worm length in flits (paper: 128).
	MessageFlits int
}

// PaperParams returns the latency parameters used in the paper's Section 4.
func PaperParams() LatencyParams {
	return LatencyParams{
		StartupNs:     10000,
		RouterSetupNs: 40,
		ChanPropNs:    10,
		MessageFlits:  128,
	}
}

// Validate checks the parameters are usable.
func (p LatencyParams) Validate() error {
	if p.StartupNs < 0 || p.RouterSetupNs < 0 {
		return fmt.Errorf("core: negative latency parameter: %+v", p)
	}
	if p.ChanPropNs <= 0 {
		return fmt.Errorf("core: channel propagation must be positive, got %d", p.ChanPropNs)
	}
	if p.MessageFlits < 2 {
		return fmt.Errorf("core: message needs at least header+tail flits, got %d", p.MessageFlits)
	}
	return nil
}

// Phase1Path computes the deterministic contention-free path of a header
// from source processor src to the LCA switch, applying the selection
// function greedily (first candidate at every hop, which is what a simulator
// picks when every channel is free). The returned slice starts with the
// injection channel. If src's switch already is the LCA the path is just the
// injection channel.
func (r *Router) Phase1Path(src, lcaSwitch topology.NodeID) ([]topology.ChannelID, error) {
	return r.appendPhase1Path(nil, src, lcaSwitch)
}

// appendPhase1Path appends the greedy phase-1 path to dst and returns the
// extended slice (allocation-free given capacity).
func (r *Router) appendPhase1Path(dst []topology.ChannelID, src, lcaSwitch topology.NodeID) ([]topology.ChannelID, error) {
	if !r.Net.IsProcessor(src) {
		return nil, fmt.Errorf("core: source %d is not a processor", src)
	}
	if !r.Net.IsSwitch(lcaSwitch) {
		return nil, fmt.Errorf("core: LCA %d is not a switch", lcaSwitch)
	}
	inj := r.Net.ChannelBetween(src, r.Net.SwitchOf(src))
	if inj == topology.None {
		return nil, fmt.Errorf("core: processor %d has no injection channel", src)
	}
	dst = append(dst, inj)
	at := r.Net.SwitchOf(src)
	arrival := ArriveInjection
	guard := 0
	for at != lcaSwitch {
		// Append the candidate row and keep its first channel, the one a
		// header takes when every channel is free.
		n := len(dst)
		dst = r.AppendCandidateChannels(dst, at, arrival, lcaSwitch)
		if len(dst) == n {
			return nil, fmt.Errorf("core: no legal output at switch %d toward LCA %d (arrival %v)", at, lcaSwitch, arrival)
		}
		dst = dst[:n+1]
		c := dst[n]
		at = r.Net.Chan(c).Dst
		arrival = ArrivalOf(r.Lab.ClassOf[c])
		if guard++; guard > 4*r.Net.N() {
			return nil, fmt.Errorf("core: phase-1 path from %d to %d does not terminate", src, lcaSwitch)
		}
	}
	return dst, nil
}

// MulticastPaths returns, for every destination, the full contention-free
// channel path a SPAM worm follows from src: the greedy phase-1 path to the
// LCA followed by the unique tree path from the LCA to the destination
// (ending in the consumption channel).
func (r *Router) MulticastPaths(src topology.NodeID, dests []topology.NodeID) (map[topology.NodeID][]topology.ChannelID, error) {
	if _, err := r.DestSet(dests); err != nil {
		return nil, err
	}
	lca := r.LCASwitch(dests)
	p1, err := r.appendPhase1Path(nil, src, lca)
	if err != nil {
		return nil, err
	}
	paths := make(map[topology.NodeID][]topology.ChannelID, len(dests))
	var rev []topology.ChannelID
	for _, d := range dests {
		// Tree path LCA -> d via parent chain from d.
		rev = rev[:0]
		for v := d; v != lca; v = r.Lab.Parent[v] {
			rev = append(rev, r.Lab.ParentChan[v])
		}
		path := append(make([]topology.ChannelID, 0, len(p1)+len(rev)), p1...)
		for i := len(rev) - 1; i >= 0; i-- {
			path = append(path, rev[i])
		}
		paths[d] = path
	}
	return paths, nil
}

// ZeroLoadLatency computes the closed-form latency of a single multicast in
// an otherwise idle network:
//
//	startup + max over destinations of (setup·switches(path) + prop·channels(path)) + (flits−1)·prop
//
// where switches(path) counts the routers the header visits. Under zero load
// every branch advances at channel rate, no bubbles are needed, and the last
// tail arrival is governed by the deepest branch. The simulator must match
// this exactly for single messages; integration tests assert that.
func (r *Router) ZeroLoadLatency(p LatencyParams, src topology.NodeID, dests []topology.NodeID) (int64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	paths, err := r.MulticastPaths(src, dests)
	if err != nil {
		return 0, err
	}
	var worst int64
	for _, path := range paths {
		hops := int64(len(path))
		switches := hops - 1 // every channel but the last enters a switch
		lat := p.RouterSetupNs*switches + p.ChanPropNs*hops
		if lat > worst {
			worst = lat
		}
	}
	return p.StartupNs + worst + int64(p.MessageFlits-1)*p.ChanPropNs, nil
}

// CheckLegalUnicastPath verifies that a channel sequence obeys SPAM's
// ordering constraint — one or more up channels, then zero or more
// down-cross channels, then zero or more down-tree channels — and the
// per-rule endpoint conditions with respect to the LCA switch, and that the
// path is actually connected from src to the LCA. Used by property tests
// and cmd/deadlockcheck.
func (r *Router) CheckLegalUnicastPath(src topology.NodeID, lcaSwitch topology.NodeID, path []topology.ChannelID) error {
	if len(path) == 0 {
		return fmt.Errorf("core: empty path")
	}
	at := src
	const (
		phaseUp = iota
		phaseCross
		phaseTree
	)
	phase := phaseUp
	for i, c := range path {
		ch := r.Net.Chan(c)
		if ch.Src != at {
			return fmt.Errorf("core: hop %d: channel %d starts at %d, expected %d", i, c, ch.Src, at)
		}
		switch r.Lab.ClassOf[c] {
		case updown.Up:
			if phase != phaseUp {
				return fmt.Errorf("core: hop %d: up channel after descending", i)
			}
		case updown.DownCross:
			if phase == phaseTree {
				return fmt.Errorf("core: hop %d: down-cross channel after down-tree", i)
			}
			if !r.Lab.IsExtendedAncestor(ch.Dst, lcaSwitch) {
				return fmt.Errorf("core: hop %d: down-cross endpoint %d not an extended ancestor of %d", i, ch.Dst, lcaSwitch)
			}
			phase = phaseCross
		case updown.DownTree:
			if !r.Lab.IsAncestor(ch.Dst, lcaSwitch) {
				return fmt.Errorf("core: hop %d: down-tree endpoint %d not an ancestor of %d", i, ch.Dst, lcaSwitch)
			}
			phase = phaseTree
		}
		at = ch.Dst
	}
	if at != lcaSwitch {
		return fmt.Errorf("core: path ends at %d, not LCA %d", at, lcaSwitch)
	}
	return nil
}
