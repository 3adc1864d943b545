// Package faults is the deterministic fault-injection engine: it drives
// timed topology mutations — links failing and returning, switches drained
// for maintenance — through a *running* simulation, re-deriving the
// up*/down* labeling and hot-swapping the compiled routing tables at every
// step, the way the Autonet-descended networks the paper targets keep
// operating through failures.
//
// The package has four layers:
//
//   - a fault-script model (Event/Script, a compact text DSL, and seeded
//     generators: Poisson failure/repair, rolling maintenance windows,
//     correlated regional outages). A Spec is the one description of a
//     timeline: its DSL, or a profile with the fields that profile's
//     generator reads, and Spec.Resolve turns it into a Script;
//   - an Injector that owns a private mutable labeling + router for one
//     simulator and applies script events inside the simulation's event
//     loop. Every applied mutation drains every launched worm (see
//     sim.AbortWorms), as Autonet discards every packet in flight when it
//     reconfigures, so no two worms ever hold channels under different
//     labelings and the paper's single-labeling deadlock-freedom theorem
//     covers every fault trial. An optional source retry policy resubmits
//     the drained messages;
//   - the live reconfiguration path: updown.Labeling.Relabel recomputes the
//     masked labeling in place and core.Router.Recompile rebuilds the
//     candidate tables into their retained arenas — an atomic swap with no
//     discarded storage, cross-checked bit-identically against a fresh
//     NewRouter build by the property tests — and the simulator refills
//     every unlaunched worm's destination set in the new tree order;
//   - disruption metrics (availability, abort/retry counts, a
//     latency-disruption histogram) streamed through internal/stats.
//
// Everything is deterministic: a (script, seed, policy) triple replays
// bit-identically, and the engine allocates nothing in steady state between
// fault events.
package faults
