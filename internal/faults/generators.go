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

// PoissonConfig parameterizes the seeded failure/repair marked point
// process: every live link fails after an Exp(MTBF) holding time and
// returns after an Exp(MTTR) repair time, independently per link.
type PoissonConfig struct {
	Seed      uint64
	HorizonNs int64
	// MTBFNs is the per-link mean time between failures.
	MTBFNs int64
	// MTTRNs is the per-link mean time to repair.
	MTTRNs int64
	// MaxEvents truncates the script (0 = the package cap).
	MaxEvents int
}

// Poisson generates the failure/repair timeline for a network. The script
// is deterministic in (network, config) and canonically ordered; whether a
// generated failure is actually applied is decided at injection time (a
// failure that would disconnect the live switch graph is rejected and
// counted, keeping the network relabelable).
func Poisson(net *topology.Network, cfg PoissonConfig) (Script, error) {
	if cfg.MTBFNs <= 0 || cfg.MTTRNs <= 0 {
		return nil, fmt.Errorf("faults: Poisson needs positive MTBF/MTTR, got %d/%d", cfg.MTBFNs, cfg.MTTRNs)
	}
	if cfg.HorizonNs <= 0 {
		return nil, fmt.Errorf("faults: Poisson needs a positive horizon")
	}
	max := cfg.MaxEvents
	if max <= 0 || max > maxGeneratedEvents {
		max = maxGeneratedEvents
	}
	r := rng.New(cfg.Seed)
	// next[i] is link i's next transition time; down[i] its current state.
	// Links are numbered in ascending (u, v) order: a deterministic order.
	next := make([]int64, net.Links())
	down := make([]bool, net.Links())
	for i := range next {
		next[i] = int64(r.Exp(float64(cfg.MTBFNs)))
	}
	var out Script
	for len(out) < max {
		// Select the earliest transition (smallest time, then link index —
		// a deterministic total order).
		best := -1
		for i, t := range next {
			if t >= cfg.HorizonNs {
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
			next[best] = t + int64(r.Exp(float64(cfg.MTBFNs)))
		} else {
			out = append(out, Event{AtNs: t, Kind: LinkDown, U: int32(u), V: int32(v)})
			down[best] = true
			next[best] = t + int64(r.Exp(float64(cfg.MTTRNs)))
		}
	}
	sortScript(out)
	return out, nil
}

// MaintenanceConfig parameterizes rolling maintenance: switches are drained
// one after another, each for WindowNs, with GapNs between windows.
type MaintenanceConfig struct {
	StartNs  int64
	WindowNs int64
	GapNs    int64
	// HorizonNs stops the rotation (0 = one full pass over all switches).
	HorizonNs int64
}

// RollingMaintenance generates the drain/restore rotation over every switch
// in ascending ID order: switch k goes down at StartNs + k·(WindowNs+GapNs)
// and back up WindowNs later.
func RollingMaintenance(net *topology.Network, cfg MaintenanceConfig) (Script, error) {
	if cfg.WindowNs <= 0 {
		return nil, fmt.Errorf("faults: maintenance needs a positive window")
	}
	if cfg.GapNs < 0 || cfg.StartNs < 0 {
		return nil, fmt.Errorf("faults: maintenance needs non-negative start/gap")
	}
	var out Script
	for sw := 0; sw < net.NumSwitches && len(out)+2 <= maxGeneratedEvents; sw++ {
		at := cfg.StartNs + int64(sw)*(cfg.WindowNs+cfg.GapNs)
		if cfg.HorizonNs > 0 && at+cfg.WindowNs > cfg.HorizonNs {
			break
		}
		out = append(out,
			Event{AtNs: at, Kind: SwitchDown, U: int32(sw)},
			Event{AtNs: at + cfg.WindowNs, Kind: SwitchUp, U: int32(sw)},
		)
	}
	sortScript(out)
	return out, nil
}

// RegionalConfig parameterizes a correlated regional outage: every link
// internal to the BFS ball of the given radius around a center switch fails
// at StartNs and returns at StartNs+DurationNs — the shared-conduit or
// shared-power failure mode of physically clustered switches.
type RegionalConfig struct {
	Center     int
	Radius     int
	StartNs    int64
	DurationNs int64
}

// RegionalOutage generates the correlated outage script.
func RegionalOutage(net *topology.Network, cfg RegionalConfig) (Script, error) {
	if cfg.Center < 0 || cfg.Center >= net.NumSwitches {
		return nil, fmt.Errorf("faults: regional center %d out of range", cfg.Center)
	}
	if cfg.Radius < 0 || cfg.StartNs < 0 || cfg.DurationNs <= 0 {
		return nil, fmt.Errorf("faults: regional outage needs radius >= 0, start >= 0, duration > 0")
	}
	dist := make([]int32, net.NumSwitches)
	net.SwitchDistances(topology.NodeID(cfg.Center), nil, dist, make([]int32, net.NumSwitches))
	// A built network is connected: every switch has a distance.
	inBall := func(sw topology.NodeID) bool { return int(dist[sw]) <= cfg.Radius }
	var out Script
	for k := 0; k < net.Links(); k++ {
		u, v := net.Link(k)
		if !inBall(u) || !inBall(v) || len(out)+2 > maxGeneratedEvents {
			continue
		}
		out = append(out,
			Event{AtNs: cfg.StartNs, Kind: LinkDown, U: int32(u), V: int32(v)},
			Event{AtNs: cfg.StartNs + cfg.DurationNs, Kind: LinkUp, U: int32(u), V: int32(v)},
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
		return Poisson(net, PoissonConfig{Seed: sp.Seed, HorizonNs: sp.HorizonNs, MTBFNs: sp.MTBFNs, MTTRNs: sp.MTTRNs})
	case ProfileMaintenance:
		return RollingMaintenance(net, MaintenanceConfig{StartNs: sp.StartNs, WindowNs: sp.WindowNs, GapNs: sp.GapNs, HorizonNs: sp.HorizonNs})
	case ProfileRegional:
		return RegionalOutage(net, RegionalConfig{Center: sp.Center, Radius: sp.Radius, StartNs: sp.StartNs, DurationNs: sp.WindowNs})
	}
	return nil, fmt.Errorf("faults: unknown profile %d", sp.Profile)
}
