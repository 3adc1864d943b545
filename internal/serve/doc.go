// Package serve is the concurrent sweep service: it multiplexes many
// simultaneous sweep requests over a bounded pool of resettable simulators.
//
// Architecture. A Service owns PoolSize worker goroutines. Requests
// decompose into independent trial tasks that feed a shared queue; workers
// steal whatever trial is next, regardless of which request produced it, so
// one slow sweep cannot monopolize the pool and a burst of small requests
// interleaves with a long one. Per-request contexts cancel queued trials
// without tearing down workers.
//
// Systems and runners. Every request resolves to one system, named by a
// workload.SystemKey: the topology spec in canonical form (empty for the
// default network), the seed (zero for the default network), the routing
// policy and the root strategy (an empty root is min-id on a named topology
// and the default labeling on the default one). The default system is the
// pinned entry of a workload.SystemCache that keeps the systems of the last
// 8 keys, first in first out, for requests that override the topology,
// policy or root; equal keys, and keys that differ only in the seed of a
// seed-independent family, share one build. Each worker owns a workload.RunnerCache that keeps only its
// most recently used runner (a resettable simulator with its arenas
// retained across trials), so trials that reach a worker back to back on
// one system reuse one runner and rebuild nothing.
//
// Determinism. Trial t of a request with base seed S always runs with
// workload.TrialSeed(S, t) on a freshly Reset simulator, records into its
// own constant-memory shard (stats.Summary + stats.BatchStream), and shards
// merge in trial order once the request completes. Results are therefore
// bit-identical whatever the pool size, GOMAXPROCS or request interleaving —
// the golden test battery pins serial == concurrent.
//
// Memory. No per-message sample is ever retained: shards are fixed-size
// streaming accumulators, so a request costs O(trials) small shards. The
// cached systems and one runner per worker are the service's footprint.
//
// Fleet mode. A Service whose Config.Fleet lists worker URLs becomes a
// scatter/gather coordinator: /run trial ranges and campaign grid cells are
// dispatched to the workers (POST /shard, POST /cell) instead of the local
// pool. Workers ship exact per-trial accumulator state (stats.SummaryWire;
// Go's JSON float64 round trips are bit-exact), the coordinator merges in
// trial order, and every dispatch runs under the resilience package's
// retry/backoff policy with health-gated worker selection (/healthz
// fingerprint matching) and graceful degradation to the local pool. The
// fleet is therefore a throughput layer only: output is bit-identical for
// any fleet size, retry schedule, or injected transport fault — pinned by
// the chaos golden battery in fleet_test.go.
//
// Admission control. Config.MaxInflight bounds admitted requests across
// /run, /campaign, /shard and /cell; beyond it the service answers
// ErrSaturated (HTTP 429 with Retry-After) instead of queueing without
// bound.
package serve
