package workload

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/updown"
)

// RoutingPolicy resolves the Routing/MisrouteBudget params into a policy and
// a budget; it is the one place a wire name becomes a (policy, budget) pair.
// "duato" is misroute with budget math.MaxInt32, the most a worm's int32
// budget holds: no worm can spend it, since every extras hop strictly
// ascends the labeling's (level, id) order. The budget only exists under
// the misroute family; any other policy forces it to 0 so equivalent
// requests ("baseline" with a stray budget vs plain baseline) build
// fingerprint-identical systems.
func RoutingPolicy(p Params) (core.Policy, int, error) {
	if p.Routing == "duato" {
		return core.PolicyMisroute, math.MaxInt32, nil
	}
	pol, err := core.ParsePolicy(p.Routing)
	if err != nil {
		return core.PolicyBaseline, 0, fmt.Errorf("workload: %w", err)
	}
	budget := p.MisrouteBudget
	if pol != core.PolicyMisroute || budget < 0 {
		budget = 0
	}
	return pol, budget, nil
}

// RootStrategy resolves the Root param (empty keeps the caller's default,
// signalled by ok=false).
func RootStrategy(p Params) (strat updown.RootStrategy, ok bool, err error) {
	if p.Root == "" {
		return 0, false, nil
	}
	strat, err = updown.ParseRootStrategy(p.Root)
	if err != nil {
		return 0, false, fmt.Errorf("workload: %w", err)
	}
	return strat, true, nil
}

// ValidateRoutingParams rejects malformed routing/root params up front, the
// ValidateFaultParams counterpart for the policy dimension: a typoed routing
// or root name is a client error, never a silently different experiment. It
// also rejects a misroute budget on any routing name but "misroute" — the
// budget would be ignored, and a manifest cell that looks adaptive but runs
// baseline is exactly the silent divergence this guard exists to catch.
func ValidateRoutingParams(p Params) error {
	if _, _, err := RoutingPolicy(p); err != nil {
		return err
	}
	if p.MisrouteBudget != 0 && p.Routing != "misroute" {
		return fmt.Errorf("workload: misroute_budget %d requires routing=misroute (got %q)", p.MisrouteBudget, cmp.Or(p.Routing, "baseline"))
	}
	if p.MisrouteBudget < 0 {
		return fmt.Errorf("workload: misroute_budget must be >= 0 (got %d)", p.MisrouteBudget)
	}
	if _, _, err := RootStrategy(p); err != nil {
		return err
	}
	return nil
}
