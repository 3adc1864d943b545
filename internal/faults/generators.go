package faults

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/topology"
)

// maxGeneratedEvents is the hard cap every generator respects — fault
// scripts reach the serve daemon's wire, so unbounded horizons must not
// translate into unbounded memory.
const maxGeneratedEvents = 65536

// poisson generates the seeded failure/repair marked point process: every
// live link fails after an Exp(MTBFNs) holding time and returns after an
// Exp(MTTRNs) repair time, independently per link, until HorizonNs. The
// script is deterministic in (network, spec) and canonically ordered;
// whether a generated failure is actually applied is decided at injection
// time (a failure that would disconnect the live switch graph is rejected
// and counted, keeping the network relabelable).
func (sp Spec) poisson(net *topology.Network) (Script, error) {
	if sp.MTBFNs <= 0 || sp.MTTRNs <= 0 {
		return nil, fmt.Errorf("faults: Poisson needs positive MTBF/MTTR, got %d/%d", sp.MTBFNs, sp.MTTRNs)
	}
	if sp.HorizonNs <= 0 {
		return nil, fmt.Errorf("faults: Poisson needs a positive horizon")
	}
	r := rng.New(sp.Seed)
	// next[i] is link i's next transition time; down[i] its current state.
	// Links are numbered in ascending (u, v) order: a deterministic order.
	next := make([]int64, net.Links())
	down := make([]bool, net.Links())
	for i := range next {
		next[i] = int64(r.Exp(float64(sp.MTBFNs)))
	}
	var out Script
	for len(out) < maxGeneratedEvents {
		// Select the earliest transition (smallest time, then link index —
		// a deterministic total order).
		best := -1
		for i, t := range next {
			if t >= sp.HorizonNs {
				continue
			}
			if best == -1 || t < next[best] {
				best = i
			}
		}
		if best == -1 {
			break
		}
		t := next[best]
		u, v := net.Link(best)
		if down[best] {
			out = append(out, Event{AtNs: t, Kind: LinkUp, U: int32(u), V: int32(v)})
			down[best] = false
			next[best] = t + int64(r.Exp(float64(sp.MTBFNs)))
		} else {
			out = append(out, Event{AtNs: t, Kind: LinkDown, U: int32(u), V: int32(v)})
			down[best] = true
			next[best] = t + int64(r.Exp(float64(sp.MTTRNs)))
		}
	}
	sortScript(out)
	return out, nil
}

// maintenance generates rolling maintenance: every switch is drained in
// ascending ID order, switch k going down at StartNs + k·(WindowNs+GapNs)
// and back up WindowNs later. A positive HorizonNs stops the rotation; 0
// makes one full pass over all switches.
func (sp Spec) maintenance(net *topology.Network) (Script, error) {
	if sp.WindowNs <= 0 {
		return nil, fmt.Errorf("faults: maintenance needs a positive window")
	}
	if sp.GapNs < 0 || sp.StartNs < 0 {
		return nil, fmt.Errorf("faults: maintenance needs non-negative start/gap")
	}
	var out Script
	for sw := 0; sw < net.NumSwitches && len(out)+2 <= maxGeneratedEvents; sw++ {
		at := sp.StartNs + int64(sw)*(sp.WindowNs+sp.GapNs)
		if sp.HorizonNs > 0 && at+sp.WindowNs > sp.HorizonNs {
			break
		}
		out = append(out,
			Event{AtNs: at, Kind: SwitchDown, U: int32(sw)},
			Event{AtNs: at + sp.WindowNs, Kind: SwitchUp, U: int32(sw)},
		)
	}
	sortScript(out)
	return out, nil
}

// regional generates a correlated regional outage: every link internal to
// the BFS ball of Radius around switch Center fails at StartNs and returns
// WindowNs later — the shared-conduit or shared-power failure mode of
// physically clustered switches.
func (sp Spec) regional(net *topology.Network) (Script, error) {
	if sp.Center < 0 || sp.Center >= net.NumSwitches {
		return nil, fmt.Errorf("faults: regional center %d out of range", sp.Center)
	}
	if sp.Radius < 0 || sp.StartNs < 0 || sp.WindowNs <= 0 {
		return nil, fmt.Errorf("faults: regional outage needs radius >= 0, start >= 0, duration > 0")
	}
	dist := make([]int32, net.NumSwitches)
	net.SwitchDistances(topology.NodeID(sp.Center), nil, dist, make([]int32, net.NumSwitches))
	// A built network is connected: every switch has a distance.
	inBall := func(sw topology.NodeID) bool { return int(dist[sw]) <= sp.Radius }
	var out Script
	for k := 0; k < net.Links(); k++ {
		u, v := net.Link(k)
		if !inBall(u) || !inBall(v) || len(out)+2 > maxGeneratedEvents {
			continue
		}
		out = append(out,
			Event{AtNs: sp.StartNs, Kind: LinkDown, U: int32(u), V: int32(v)},
			Event{AtNs: sp.StartNs + sp.WindowNs, Kind: LinkUp, U: int32(u), V: int32(v)},
		)
	}
	sortScript(out)
	return out, nil
}

// Profile selects a script generator for declarative Specs.
type Profile uint8

const (
	// ProfileScript uses Spec.DSL verbatim.
	ProfileScript Profile = iota
	// ProfilePoisson generates Poisson failure/repair.
	ProfilePoisson
	// ProfileMaintenance generates rolling maintenance windows.
	ProfileMaintenance
	// ProfileRegional generates one correlated regional outage.
	ProfileRegional
)

// Spec is a declarative, comparable description of a fault workload — the
// form carried by workload parameters and cached by the Injector (equal
// Specs resolve to the identical Script without regeneration).
type Spec struct {
	// DSL is an explicit timeline (see Parse); when non-empty it wins over
	// Profile.
	DSL string
	// Profile selects a generator for the remaining fields.
	Profile Profile
	Seed    uint64
	// HorizonNs bounds generated timelines.
	HorizonNs int64
	// MTBFNs/MTTRNs drive ProfilePoisson.
	MTBFNs, MTTRNs int64
	// StartNs/WindowNs/GapNs drive ProfileMaintenance (window doubles as
	// the outage duration of ProfileRegional).
	StartNs, WindowNs, GapNs int64
	// Center/Radius drive ProfileRegional.
	Center, Radius int
}

// Resolve produces the concrete Script for a network.
func (sp Spec) Resolve(net *topology.Network) (Script, error) {
	if sp.DSL != "" {
		return Parse(sp.DSL)
	}
	switch sp.Profile {
	case ProfileScript:
		return nil, nil
	case ProfilePoisson:
		return sp.poisson(net)
	case ProfileMaintenance:
		return sp.maintenance(net)
	case ProfileRegional:
		return sp.regional(net)
	}
	return nil, fmt.Errorf("faults: unknown profile %d", sp.Profile)
}
