package core

import "fmt"

// Policy selects the routing-policy family a Router implements on top of the
// paper's up*/down* legality rules.
//
// PolicyBaseline is the paper's router: the compiled candidate tables hold
// exactly the legal up*/down* channels in selection order and the simulator
// waits on the highest-priority one when all are busy.
//
// PolicyMisroute is the budgeted-deroute family: in addition to the baseline
// candidates the router exposes *deroute* channels — down-cross channels a
// down-tree arrival may cross out of its subtree on, which the paper's Rule
// 2 arrival clause forbids even though their extended-ancestor endpoint
// still completes the route (the unique deadlock-safe relaxation of the
// up*/down* rules; see Router.DerouteChannels). A worm may take one only
// when it is instantly free, spending one unit of its per-worm misroute
// budget; with the budget exhausted (or zero) the router is bit-identical
// to baseline. The wire name "duato" is this family with a budget no worm
// can spend (see workload.RoutingPolicy): a worm that finds no free deroute
// channel falls back to — and waits on — the baseline escape class. (An
// endpoint-strictly-closer productivity filter was rejected: it is provably
// vacuous at every dynamically reachable cell under BFS up*/down*
// labelings — see Router.referenceExtras.)
//
// Deadlock-freedom follows from one structural rule: policy channels are
// never waited on. Every blocking wait happens on a baseline escape channel,
// so the wait-for CDG is a subgraph of the baseline CDG, which the up*/down*
// labeling keeps acyclic (deadlock.VerifyPolicy certifies this per
// labeling). Livelock-freedom: every extras hop is a down channel, which
// strictly ascends the labeling's (level, id) order — so any worm's path
// length is bounded whatever its budget.
type Policy uint8

const (
	// PolicyBaseline is the paper's fixed priority-by-distance selection
	// over up*/down* candidates.
	PolicyBaseline Policy = iota
	// PolicyMisroute allows budget-bounded non-minimal deroutes under
	// congestion.
	PolicyMisroute
)

func (p Policy) String() string {
	switch p {
	case PolicyBaseline:
		return "baseline"
	case PolicyMisroute:
		return "misroute"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// ParsePolicy parses the name of a routing-policy family. The empty string
// is the baseline (the zero value), so omitted request/manifest fields keep
// their pre-policy behaviour. Wire names that also fix a budget ("duato")
// resolve in workload.RoutingPolicy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "baseline":
		return PolicyBaseline, nil
	case "misroute":
		return PolicyMisroute, nil
	}
	return PolicyBaseline, fmt.Errorf("core: unknown routing policy %q (want baseline, misroute or duato)", s)
}
