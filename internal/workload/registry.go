package workload

// The scenario registry maps names to workload constructors so the CLI (and
// future drivers) can select traffic patterns by flag instead of by code.

import (
	"fmt"
	"sort"
)

// Params are the shared knobs a scenario constructor may consult. Zero
// values select each scenario's documented default. The JSON tags are the
// wire names the spamserve /run endpoint accepts.
type Params struct {
	// Topology selects the network the scenario runs on, as a topology
	// spec string ("torus:8x8", "fattree:4x3", ...; see topology.ParseSpec).
	// Scenario constructors ignore it — the serving layers and CLIs consume
	// it to build the system before the workload runs. Empty selects the
	// server's (or CLI's) default topology.
	Topology string `json:"topology,omitempty"`
	// RatePerProcPerUs is the open-loop arrival rate.
	RatePerProcPerUs float64 `json:"rate_per_proc_per_us,omitempty"`
	// Messages is the per-trial message budget.
	Messages int `json:"messages,omitempty"`
	// MulticastFraction is the multicast share of mixed streams.
	MulticastFraction float64 `json:"multicast_fraction,omitempty"`
	// MulticastDests is the destination count per multicast.
	MulticastDests int `json:"multicast_dests,omitempty"`
	// Window is the closed-loop outstanding window per processor.
	Window int `json:"window,omitempty"`
	// Sources is the broadcast-storm source count.
	Sources int `json:"sources,omitempty"`
	// HotFraction is the hotspot traffic concentration.
	HotFraction float64 `json:"hot_fraction,omitempty"`
	// Rounds is the permutation round count.
	Rounds int `json:"rounds,omitempty"`
	// Stages is the pipeline stage count.
	Stages int `json:"stages,omitempty"`
	// Fanout is the tree all-reduce arity.
	Fanout int `json:"fanout,omitempty"`
	// Trace carries an inline arrival-trace file (see LoadTrace) for the
	// replay scenario.
	Trace string `json:"trace,omitempty"`

	// Routing selects the routing-policy family ("baseline" | "misroute" |
	// "duato", which is misroute with an unbounded budget; empty =
	// baseline) and MisrouteBudget the per-worm deroute budget ("misroute"
	// only — see RoutingPolicy).
	// Root overrides the spanning-tree root strategy ("min-id" |
	// "max-degree" | "center"; empty = the server's/CLI's default). Like
	// Topology, scenario constructors ignore all three — the serving layers
	// and CLIs consume them to build the system the workload runs on.
	Routing        string `json:"routing,omitempty"`
	MisrouteBudget int    `json:"misroute_budget,omitempty"`
	Root           string `json:"root,omitempty"`

	// Fault injection (see workload.Faulty and internal/faults). A
	// non-empty FaultScript (the faults DSL, e.g. "50us down 3-7; 90us up
	// 3-7") or FaultProfile ("poisson" | "maintenance" | "regional")
	// composes the scenario with a live fault timeline.
	FaultScript  string `json:"fault_script,omitempty"`
	FaultProfile string `json:"fault_profile,omitempty"`
	FaultSeed    uint64 `json:"fault_seed,omitempty"`
	// FaultMTBFUs/FaultMTTRUs are the per-link mean time between failures
	// / to repair (poisson profile); FaultHorizonUs bounds generated
	// timelines.
	FaultMTBFUs    float64 `json:"fault_mtbf_us,omitempty"`
	FaultMTTRUs    float64 `json:"fault_mttr_us,omitempty"`
	FaultHorizonUs float64 `json:"fault_horizon_us,omitempty"`
	// FaultStartUs/FaultWindowUs/FaultGapUs shape maintenance windows and
	// the regional outage (window = outage duration).
	FaultStartUs  float64 `json:"fault_start_us,omitempty"`
	FaultWindowUs float64 `json:"fault_window_us,omitempty"`
	FaultGapUs    float64 `json:"fault_gap_us,omitempty"`
	// FaultCenter/FaultRadius select the regional outage ball.
	FaultCenter int `json:"fault_center,omitempty"`
	FaultRadius int `json:"fault_radius,omitempty"`
	// Every applied mutation drains every in-flight message, Autonet-style.
	// FaultRetries caps each drained message's source resubmissions (0 = 3,
	// -1 = none); FaultRetryDelayUs is the resubmission backoff.
	FaultRetries      int     `json:"fault_retries,omitempty"`
	FaultRetryDelayUs float64 `json:"fault_retry_delay_us,omitempty"`
}

// Scenario is one registered named workload.
type Scenario struct {
	Name        string
	Description string
	// New builds the workload from the given parameters.
	New func(p Params) Workload
}

var registry = map[string]Scenario{}

// Register adds a scenario to the registry; a duplicate name panics (the
// registry is populated at init time).
func Register(s Scenario) {
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate scenario %q", s.Name))
	}
	registry[s.Name] = s
}

// Lookup returns the named scenario.
func Lookup(name string) (Scenario, bool) {
	s, ok := registry[name]
	return s, ok
}

// Scenarios lists all registered scenarios sorted by name.
func Scenarios() []Scenario {
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ClampFanOut bounds the fan-out knobs of p to what a network with `procs`
// processors can express: the multicast destination count (resolving the
// registry-wide default of 8 first, so an omitted knob cannot exceed a
// small network) and the storm source count. Serving layers and the
// campaign engine share this so one surface never diverges from another.
func ClampFanOut(p Params, procs int) Params {
	if procs <= 1 {
		return p
	}
	md := p.MulticastDests
	if md == 0 {
		md = defaultMulticastDests
	}
	if md > procs-1 {
		md = procs - 1
	}
	p.MulticastDests = md
	if p.Sources > procs {
		p.Sources = procs
	}
	return p
}

// ClampBudget lowers the knobs of p that scale a trial's submission count
// until scenario sc submits at most maxMessages messages per trial on a
// network of procs processors (maxMessages <= 0 clamps nothing). A
// permutation keeps at least one round, so on a network with more
// processors than the cap it still submits one message per processor.
// Storm sources and pipeline stages are bounded before the message budget,
// which is checked after the scenario's defaults resolve, so an omitted
// "messages" cannot pass the cap through its default, and the cap never
// becomes a default. Knobs within the cap are left as they are. A replayed
// trace has no knob to lower, so one over the cap is refused with
// ErrInvalidWorkload. Serve's /run and the campaign engine share this
// clamp.
func ClampBudget(sc Scenario, p Params, procs, maxMessages int) (Params, error) {
	if maxMessages <= 0 {
		return p, nil
	}
	if maxRounds := max(1, maxMessages/max(1, procs)); p.Rounds > maxRounds {
		p.Rounds = maxRounds
	}
	if p.Sources > maxMessages {
		p.Sources = maxMessages
	}
	if p.Stages > 1+maxMessages {
		p.Stages = 1 + maxMessages
	}
	w := sc.New(p)
	if n := Budget(w, procs); n > maxMessages {
		if _, ok := w.(Replay); ok {
			return p, fmt.Errorf("%w: workload: trace has %d messages, cap is %d", ErrInvalidWorkload, n, maxMessages)
		}
		p.Messages = maxMessages
	}
	return p, nil
}

// defaultMulticastDests is the registry-wide default multicast fan-out
// every scenario constructor applies via orI.
const defaultMulticastDests = 8

func orF(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

func orI(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func init() {
	Register(Scenario{
		Name:        "mixed",
		Description: "paper Fig-3 open-loop 90% unicast / 10% multicast, negative-binomial arrivals",
		New: func(p Params) Workload {
			return Mixed{
				RatePerProcPerUs:  orF(p.RatePerProcPerUs, 0.02),
				MulticastFraction: orF(p.MulticastFraction, 0.1),
				MulticastDests:    orI(p.MulticastDests, defaultMulticastDests),
				Messages:          orI(p.Messages, 2000),
			}
		},
	})
	Register(Scenario{
		Name:        "hotspot",
		Description: "open-loop unicasts concentrated on one hot destination",
		New: func(p Params) Workload {
			return HotSpot{
				RatePerProcPerUs: orF(p.RatePerProcPerUs, 0.02),
				HotFraction:      orF(p.HotFraction, 0.5),
				Messages:         orI(p.Messages, 2000),
			}
		},
	})
	Register(Scenario{
		Name:        "transpose",
		Description: "matrix-transpose permutation rounds (structured saturation)",
		New: func(p Params) Workload {
			return Transpose{Rounds: orI(p.Rounds, 1)}
		},
	})
	Register(Scenario{
		Name:        "bitreverse",
		Description: "bit-reversal permutation rounds (FFT pattern, index-adversarial)",
		New: func(p Params) Workload {
			return BitReverse{Rounds: orI(p.Rounds, 1)}
		},
	})
	Register(Scenario{
		Name:        "bcast-storm",
		Description: "staggered full broadcasts from several sources (root contention worst case)",
		New: func(p Params) Workload {
			return BroadcastStorm{Sources: orI(p.Sources, 4)}
		},
	})
	Register(Scenario{
		Name:        "bursty",
		Description: "on/off modulated arrivals with uncorrelated per-processor bursts",
		New: func(p Params) Workload {
			return Bursty{
				RatePerProcPerUs:  orF(p.RatePerProcPerUs, 0.05),
				MulticastFraction: p.MulticastFraction,
				MulticastDests:    orI(p.MulticastDests, defaultMulticastDests),
				Messages:          orI(p.Messages, 2000),
			}
		},
	})
	// faultyMixed builds the pre-wired fault scenarios: paper mixed traffic
	// under a forced fault profile. Constructors cannot return errors, so a
	// malformed fault profile surfaces when the trial generates, as a bad
	// replay trace does, and a malformed script fails when the trial
	// resolves it. Serving layers, campaign validation and CLIs reject both
	// first via ValidateFaultParams.
	faultyMixed := func(profile string) func(Params) Workload {
		return func(p Params) Workload {
			if p.FaultProfile == "" {
				p.FaultProfile = profile
			}
			spec, err := FaultSpec(p)
			if err != nil {
				return invalid{name: "mixed+faults", err: err}
			}
			return Faulty{
				Inner: Mixed{
					RatePerProcPerUs:  orF(p.RatePerProcPerUs, 0.02),
					MulticastFraction: orF(p.MulticastFraction, 0.1),
					MulticastDests:    orI(p.MulticastDests, defaultMulticastDests),
					Messages:          orI(p.Messages, 2000),
				},
				Spec:   spec,
				Policy: FaultPolicy(p),
			}
		}
	}
	Register(Scenario{
		Name:        "fault-storm",
		Description: "paper mixed traffic under seeded Poisson link failure/repair with live relabeling",
		New:         faultyMixed("poisson"),
	})
	Register(Scenario{
		Name:        "maintenance",
		Description: "paper mixed traffic under rolling switch-drain maintenance windows",
		New:         faultyMixed("maintenance"),
	})
	Register(Scenario{
		Name:        "closed-loop",
		Description: "fixed outstanding window per processor, self-regulating offered load",
		New: func(p Params) Workload {
			return ClosedLoop{
				Window:            orI(p.Window, 1),
				MulticastFraction: p.MulticastFraction,
				MulticastDests:    orI(p.MulticastDests, defaultMulticastDests),
				Messages:          orI(p.Messages, 2000),
			}
		},
	})
	Register(Scenario{
		Name:        "allreduce-ring",
		Description: "ring all-reduce dependency chains, one per processor, completion-driven",
		New: func(p Params) Workload {
			return RingAllReduce{Messages: orI(p.Messages, 2000)}
		},
	})
	Register(Scenario{
		Name:        "allreduce-tree",
		Description: "reduce-up / broadcast-down over a complete tree, completion-driven",
		New: func(p Params) Workload {
			return TreeAllReduce{Fanout: orI(p.Fanout, 2), Messages: orI(p.Messages, 2000)}
		},
	})
	Register(Scenario{
		Name:        "alltoall",
		Description: "personalized all-to-all exchange, rotation schedule, open loop",
		New: func(p Params) Workload {
			return AllToAll{Messages: orI(p.Messages, 2000)}
		},
	})
	Register(Scenario{
		Name:        "pipeline",
		Description: "stage-DAG dataflow across processor bands, items forwarded on completion",
		New: func(p Params) Workload {
			return Pipeline{Stages: orI(p.Stages, 4), Messages: orI(p.Messages, 2000)}
		},
	})
	Register(Scenario{
		Name:        "replay",
		Description: "bit-identical replay of a captured arrival trace (params.trace)",
		New: func(p Params) Workload {
			tr, err := ParseTrace(p.Trace)
			if err != nil {
				// Constructors cannot return errors; surface the parse
				// failure when the trial generates.
				return invalid{name: "replay", err: err}
			}
			return Replay{Trace: tr}
		},
	})
}

// invalid is a workload whose construction already failed; Generate
// surfaces the deferred error (wrapped in ErrInvalidWorkload by Trial).
type invalid struct {
	name string
	err  error
}

func (iv invalid) Name() string          { return iv.name }
func (iv invalid) Generate(g *Gen) error { return iv.err }
