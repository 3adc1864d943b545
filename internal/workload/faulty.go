package workload

// Faulty composes any Workload with a fault timeline: the trial's traffic is
// the inner workload's, and the injector mutates the topology underneath it
// while it runs. This is how fault scenarios ride the whole measurement
// stack (Runner, Measure, the sweep service) unchanged.

import (
	"fmt"

	"repro/internal/faults"
)

// Faulty wraps a traffic workload with a declarative fault Spec and a retry
// Policy. The spec resolves against the runner's network on first use and
// is cached across trials.
type Faulty struct {
	Inner  Workload
	Spec   faults.Spec
	Policy faults.Policy
}

// Name labels the composition.
func (f Faulty) Name() string { return f.Inner.Name() + "+faults" }

// MessageBudgetFor passes the inner workload's budget through (see Budget),
// so the serving layer's clamp and warmup sizing see it through the fault
// wrapper.
func (f Faulty) MessageBudgetFor(procs int) int { return Budget(f.Inner, procs) }

// Generate installs the fault timeline on the trial's simulator, then
// generates the inner traffic. Injector failures inside the event loop
// surface as trial errors through the hook-error channel.
func (f Faulty) Generate(g *Gen) error {
	inj, err := g.FaultInjector()
	if err != nil {
		return err
	}
	if err := inj.InstallSpec(f.Spec, f.Policy); err != nil {
		return err
	}
	return f.Inner.Generate(g)
}

// HasFaults reports whether the parameters request fault injection.
func HasFaults(p Params) bool {
	return p.FaultScript != "" || p.FaultProfile != ""
}

// FaultSpec maps wire parameters onto a declarative fault spec. Zero values
// select documented defaults (so "fault_profile":"poisson" alone is a valid
// storm request).
func FaultSpec(p Params) (faults.Spec, error) {
	us := func(v, def float64) int64 { return int64(orF(v, def) * 1000) }
	if p.FaultScript != "" {
		return faults.Spec{DSL: p.FaultScript}, nil
	}
	sp := faults.Spec{Seed: p.FaultSeed}
	switch p.FaultProfile {
	case "":
		return faults.Spec{}, nil
	case "poisson":
		sp.Profile = faults.ProfilePoisson
		sp.MTBFNs = us(p.FaultMTBFUs, 20_000)
		sp.MTTRNs = us(p.FaultMTTRUs, 150)
		sp.HorizonNs = us(p.FaultHorizonUs, 2_000)
	case "maintenance":
		sp.Profile = faults.ProfileMaintenance
		sp.StartNs = us(p.FaultStartUs, 50)
		sp.WindowNs = us(p.FaultWindowUs, 80)
		sp.GapNs = us(p.FaultGapUs, 40)
		sp.HorizonNs = int64(p.FaultHorizonUs * 1000)
	case "regional":
		sp.Profile = faults.ProfileRegional
		sp.Center = p.FaultCenter
		sp.Radius = orI(p.FaultRadius, 1)
		sp.StartNs = us(p.FaultStartUs, 50)
		sp.WindowNs = us(p.FaultWindowUs, 200)
	default:
		return faults.Spec{}, fmt.Errorf("workload: unknown fault profile %q (poisson|maintenance|regional)", p.FaultProfile)
	}
	return sp, nil
}

// FaultPolicy maps wire parameters onto the retry policy. Defaults: 3
// retries, 10 µs retry delay; FaultRetries = -1 disables retries.
func FaultPolicy(p Params) faults.Policy {
	return faults.Policy{
		MaxRetries:   max(orI(p.FaultRetries, 3), 0),
		RetryDelayNs: int64(orF(p.FaultRetryDelayUs, 10) * 1000),
	}
}

// ValidateFaultParams rejects malformed fault strings up front — including
// for the pre-wired fault scenarios, whose constructors cannot return
// errors and would otherwise fall back to defaults silently. Serving layers
// and CLIs call this before building the workload, and it parses the
// script, so a typoed fault_profile or a malformed fault_script is a client
// error before any trial runs, never a silently different experiment or a
// campaign that fails after its earlier cells have run.
func ValidateFaultParams(p Params) error {
	if _, err := FaultSpec(p); err != nil {
		return err
	}
	if p.FaultScript != "" {
		if _, err := faults.Parse(p.FaultScript); err != nil {
			return err
		}
	}
	return nil
}

// ApplyFaults wraps w with the fault behaviour the parameters request, if
// any. Already-wrapped workloads (pre-wired fault scenarios) pass through —
// validate the parameters with ValidateFaultParams first.
func ApplyFaults(w Workload, p Params) (Workload, error) {
	if err := ValidateFaultParams(p); err != nil {
		return nil, err
	}
	if _, ok := w.(Faulty); ok || !HasFaults(p) {
		return w, nil
	}
	spec, _ := FaultSpec(p)
	return Faulty{Inner: w, Spec: spec, Policy: FaultPolicy(p)}, nil
}
