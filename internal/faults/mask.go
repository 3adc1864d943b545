package faults

import (
	"repro/internal/bitset"
	"repro/internal/topology"
)

// Mask tracks a failed-link set over a network with the engine's exact
// apply/reject semantics: a link fails only if it is live and its loss
// keeps the live switch graph connected (a disconnected network cannot be
// relabeled); SwitchDown drains incident links best-effort in ascending
// neighbor order; repairs restore only currently failed links. The Injector
// drives a Mask inside the simulation; offline tools (cmd/deadlockcheck)
// and tests drive one directly so the semantics can never drift apart.
type Mask struct {
	net       *topology.Network
	down      *bitset.Set
	downLinks int

	// Scratch (retained): connectivity search, neighbor ordering, and the
	// per-Apply transition lists.
	dist   []int32
	queue  []int32
	nbrs   []int32
	upped  [][2]int32
	failed [][2]int32
}

// NewMask builds an all-live mask for a network.
func NewMask(net *topology.Network) *Mask {
	return &Mask{
		net:   net,
		down:  bitset.New(len(net.Channels)),
		dist:  make([]int32, net.NumSwitches),
		queue: make([]int32, net.NumSwitches),
	}
}

// Down returns the failed-channel set (both directions per failed link).
// Shared; do not mutate.
func (m *Mask) Down() *bitset.Set { return m.down }

// DownLinks returns the number of currently failed links.
func (m *Mask) DownLinks() int { return m.downLinks }

// Reset restores every link.
func (m *Mask) Reset() {
	m.down.Reset()
	m.downLinks = 0
}

// Upped lists the links restored by the last successful Apply as (u,v)
// pairs; scratch, valid until the next Apply.
func (m *Mask) Upped() [][2]int32 { return m.upped }

// Failed lists the links failed by the last successful Apply as (u,v)
// pairs; scratch, valid until the next Apply.
func (m *Mask) Failed() [][2]int32 { return m.failed }

// Apply attempts one mutation and reports whether it changed the mask
// (false = rejected: wrong state, unknown link, or a failure that would
// disconnect the live switch graph).
func (m *Mask) Apply(ev Event) bool {
	m.upped = m.upped[:0]
	m.failed = m.failed[:0]
	switch ev.Kind {
	case LinkDown:
		return m.linkDown(ev.U, ev.V)
	case LinkUp:
		return m.linkUp(ev.U, ev.V)
	case SwitchDown:
		if !m.validSwitch(ev.U) {
			return false
		}
		any := false
		for _, v := range m.neighborSwitches(ev.U) {
			if m.linkDown(ev.U, v) {
				any = true
			}
		}
		return any
	case SwitchUp:
		if !m.validSwitch(ev.U) {
			return false
		}
		any := false
		for _, v := range m.neighborSwitches(ev.U) {
			if m.linkUp(ev.U, v) {
				any = true
			}
		}
		return any
	}
	return false
}

func (m *Mask) validSwitch(u int32) bool {
	return u >= 0 && int(u) < m.net.NumSwitches
}

// neighborSwitches lists u's neighbor switches in ascending ID order
// (deterministic SwitchDown/SwitchUp semantics, the order of SwitchOut),
// into retained scratch.
func (m *Mask) neighborSwitches(u int32) []int32 {
	m.nbrs = m.nbrs[:0]
	for _, c := range m.net.SwitchOut(topology.NodeID(u)) {
		m.nbrs = append(m.nbrs, int32(m.net.Chan(c).Dst))
	}
	return m.nbrs
}

func (m *Mask) linkDown(u, v int32) bool {
	if !m.validSwitch(u) || !m.validSwitch(v) || u == v {
		return false
	}
	c := m.net.ChannelBetween(topology.NodeID(u), topology.NodeID(v))
	if c == topology.None || m.down.Test(int(c)) {
		return false
	}
	// Fail the link, and restore it if the live switch graph splits.
	m.down.Set(int(c))
	m.down.Set(int(c.Reverse()))
	if m.net.SwitchDistances(0, m.down, m.dist, m.queue) < m.net.NumSwitches {
		m.down.Clear(int(c))
		m.down.Clear(int(c.Reverse()))
		return false
	}
	m.failed = append(m.failed, [2]int32{u, v})
	m.downLinks++
	return true
}

func (m *Mask) linkUp(u, v int32) bool {
	if !m.validSwitch(u) || !m.validSwitch(v) {
		return false
	}
	c := m.net.ChannelBetween(topology.NodeID(u), topology.NodeID(v))
	if c == topology.None || !m.down.Test(int(c)) {
		return false
	}
	m.down.Clear(int(c))
	m.down.Clear(int(c.Reverse()))
	m.upped = append(m.upped, [2]int32{u, v})
	m.downLinks--
	return true
}
