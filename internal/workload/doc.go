// Package workload is the unified traffic engine behind the experiment
// drivers, the spamsim CLI scenarios and the benchmarks.
//
// A Workload describes one trial's message stream abstractly; a Runner owns
// a resettable simulator plus all generation scratch and executes trials
// back to back without rebuilding arenas. Open-loop workloads precompute an
// arrival schedule and submit it up front; closed-loop workloads keep a
// window of outstanding messages per processor and resubmit from completion
// hooks while the simulation runs.
//
// The scenario registry names the workloads the CLIs, the serve wire and
// the campaign manifests run. Each registered scenario is a function of
// Params: every field of the workload it builds is set from some Params
// field, and the generators' timings (slot widths, round gaps, burst
// lengths) are constants. ClampFanOut fits a scenario's fan-out to a
// network's processor count, and ClampBudget bounds its per-trial
// submission count, refusing a replayed trace that no knob can shorten;
// serve's /run and the campaign engine call both, so no front end runs a
// trial another would refuse. Runner.Trial refuses a network of fewer than
// two processors for every workload.
//
// The measurement harness (Measure) implements the paper's Section 4
// methodology: warmup messages are excluded, and confidence intervals for
// correlated steady-state series come from batch means rather than raw
// observations.
//
// The open-loop generation path is allocation-free in steady state: dest
// picks, arrival schedules and worm bookkeeping all live in scratch buffers
// retained by the Runner across trials, matching the simulator's own
// Reset-retained arenas.
package workload
