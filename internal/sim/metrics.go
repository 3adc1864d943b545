package sim

import (
	"sort"

	"repro/internal/topology"
)

// ChannelLoad reports per-channel traffic accumulated by a simulation.
type ChannelLoad struct {
	Channel topology.ChannelID
	Src     topology.NodeID
	Dst     topology.NodeID
	// Payload counts header/data/tail flits carried.
	Payload uint64
	// Bubbles counts bubble flits carried.
	Bubbles uint64
	// Reservations counts how many worms acquired the channel.
	Reservations uint64
	// QueuePeak is the maximum OCRQ depth observed.
	QueuePeak int
}

// ChannelLoads returns a per-channel traffic summary sorted by descending
// payload. The paper's Section 5 hot-spot discussion is directly visible
// here: channels adjacent to the spanning-tree root dominate under large
// multicasts.
func (s *Simulator) ChannelLoads() []ChannelLoad {
	out := make([]ChannelLoad, 0, len(s.chans))
	for c := range s.chans {
		cs := &s.chans[c]
		ch := s.net.Chan(topology.ChannelID(c))
		out = append(out, ChannelLoad{
			Channel:      topology.ChannelID(c),
			Src:          ch.Src,
			Dst:          ch.Dst,
			Payload:      cs.payloadCount,
			Bubbles:      cs.bubbleCount,
			Reservations: cs.reservationCount,
			QueuePeak:    cs.queuePeak,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Payload != out[j].Payload {
			return out[i].Payload > out[j].Payload
		}
		return out[i].Channel < out[j].Channel
	})
	return out
}

// NodeThroughLoad sums payload flits over all channels entering a node (the
// reverses of its out channels) — a direct measure of how hot a switch runs.
func (s *Simulator) NodeThroughLoad(n topology.NodeID) uint64 {
	var total uint64
	for _, c := range s.net.Out(n) {
		total += s.chans[c.Reverse()].payloadCount
	}
	return total
}

// RootShare returns the fraction of all switch-to-switch payload flit-hops
// that passed through the given switch (usually the spanning-tree root).
// This quantifies the paper's Section 5 observation that large multicasts
// concentrate traffic at the root.
func (s *Simulator) RootShare(root topology.NodeID) float64 {
	var total, atRoot uint64
	for c := range s.chans {
		ch := s.net.Chan(topology.ChannelID(c))
		if s.net.IsProcessor(ch.Src) || s.net.IsProcessor(ch.Dst) {
			continue
		}
		total += s.chans[c].payloadCount
		if ch.Dst == root {
			atRoot += s.chans[c].payloadCount
		}
	}
	if total == 0 {
		return 0
	}
	return float64(atRoot) / float64(total)
}
