#!/usr/bin/env bash
# bench.sh — the PR perf-trajectory smoke target.
#
# Runs the reduced-effort benchmark suite (Figure 2, Figure 3, the two
# engine microbenchmarks, the PR 2 reusable-session sweep pair, the PR 4
# fault-injection reconfiguration pair, the PR 6 fleet pair, the PR 7
# scale pair, the PR 9 telemetry on/off pairs and the PR 10 routing-policy
# decision/latency sweeps) and writes a JSON
# snapshot with ns/op, B/op, allocs/op and every custom reported metric,
# next to the fixed pre-optimization baselines so the speedup trajectory
# is tracked in-repo. The snapshot is gated through scripts/benchcmp,
# which rejects malformed JSON and duplicate keys.
#
# Usage:
#   scripts/bench.sh [out.json]      # default out: BENCH_PR10.json
#   BENCHTIME=3x scripts/bench.sh    # steadier figure numbers (default 1x)
#   BENCHLARGE=1 scripts/bench.sh    # include the 62500-switch compile cell
#                                    # (~15 GiB RAM, ~an hour on one core)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR10.json}"
BENCHTIME="${BENCHTIME:-1x}"
# Go appends "-$GOMAXPROCS" to benchmark names unless GOMAXPROCS is 1; the
# emitter below must strip exactly that suffix (a generic trailing -<digits>
# strip would also eat numeric sub-benchmark coordinates like /workers-4,
# collapsing distinct benchmarks onto one JSON key).
PROCS="${GOMAXPROCS:-$(nproc)}"
# The sweep pair runs many short trials per second; a fixed high iteration
# count amortizes benchmark-framework overhead out of the allocs/op column.
SWEEP_BENCHTIME="${SWEEP_BENCHTIME:-300x}"

# Pre-change baseline, measured on the seed tree (commit 343ef2f) plus the
# go.mod PR 1 added (the seed did not build at all), go1.24, linux/amd64,
# benchtime 3x. These are historical constants: they pin the starting point
# of the perf trajectory and let any machine compute its own relative
# speedup from a fresh run below. The seed's Fig3_MixedTraffic ran 3 rates;
# the benchmark now runs the fig3 driver's full 8-rate list, so no Fig3
# baseline or speedup is recorded.
BASE_ROUTING_NS=365.9
BASE_ROUTING_ALLOCS=3
BASE_SIMTP_NS=6802676
BASE_SIMTP_ALLOCS=1939

RAW=$(go test -run '^$' \
	-bench 'BenchmarkFig2_SingleMulticast|BenchmarkFig3_MixedTraffic|BenchmarkRoutingDecision|BenchmarkRoutingDecisionReference|BenchmarkSimulatorThroughput' \
	-benchmem -benchtime "$BENCHTIME" . 2>&1 | grep -E '^Benchmark' || true)

# PR 2: reusable-session sweep — fresh-simulator-per-trial vs Reset on the
# same Fig3-style mixed-traffic trial, plus the Reset call itself.
SWEEP_RAW=$(go test -run '^$' \
	-bench 'BenchmarkSweepTrialReset|BenchmarkSweepTrialFresh|BenchmarkSessionReset' \
	-benchmem -benchtime "$SWEEP_BENCHTIME" . 2>&1 | grep -E '^Benchmark' || true)

# PR 4: live reconfiguration — in-place relabel + table recompile + swap
# (two swap cycles per op, zero allocs) vs the full System.Reconfigure
# rebuild, plus a whole fault-storm trial on a reusable runner.
FAULT_RAW=$(go test -run '^$' \
	-bench 'BenchmarkRecompileSwap|BenchmarkFullRebuild|BenchmarkFullReconfigure|BenchmarkFaultStormTrial' \
	-benchmem -benchtime "${FAULT_BENCHTIME:-50x}" . 2>&1 | grep -E '^Benchmark' || true)

# PR 6: fleet scatter/gather — one 8-trial /run through the local pool vs
# coordinators over 1/2/4 workers, plus the retry-path overhead of a
# fault-injecting transport (drops + truncations forcing re-dispatch).
FLEET_RAW=$(go test -run '^$' \
	-bench 'BenchmarkFleetRun|BenchmarkFleetRetryPath' \
	-benchmem -benchtime "${FLEET_BENCHTIME:-5x}" ./internal/serve/ 2>&1 | grep -E '^Benchmark' || true)

# PR 7: past the 4096-switch cap — compressed-table compile cost/footprint on
# large fat-trees and the fused-bitset distribution kernel. The compile
# cells always run one iteration: one op is minutes at 16k switches.
# BENCHLARGE=1 adds the 62500-switch headline cell.
LARGE_FLAGS=""
[ "${BENCHLARGE:-0}" != "0" ] && LARGE_FLAGS="-benchlarge"
SCALE_RAW=$(go test -run '^$' \
	-bench 'BenchmarkLargeFatTreeCompile' \
	-benchmem -benchtime 1x -timeout 0 $LARGE_FLAGS . 2>&1 | grep -E '^Benchmark' || true)
PAR_RAW=$(go test -run '^$' \
	-bench 'BenchmarkDistributionOutputs' \
	-benchmem -benchtime "${PAR_BENCHTIME:-10x}" . 2>&1 | grep -E '^Benchmark' || true)

# PR 9: observability — the same warm trial through a disabled serveMetrics
# vs a live registry-backed one (the instrumented pool-worker hot path), and
# a full coordinator+worker /run with telemetry off everywhere vs on both
# sides. The contract: ≤2% ns/op overhead and exactly 0 extra allocs/op.
# The trial pair needs a high fixed iteration count so the one-time warmup
# allocation amortizes out of the allocs/op column.
TELEM_RAW=$(go test -run '^$' \
	-bench 'BenchmarkTelemetryTrial|BenchmarkTelemetryFleetRun' \
	-benchmem -benchtime "${TELEM_BENCHTIME:-20x}" ./internal/serve/ 2>&1 | grep -E '^Benchmark' || true)

# PR 10: adaptive routing — the per-policy warm routing decision (baseline
# candidate row plus the armed families' extras row, all 0 allocs/op) and
# the Fig3-style latency-vs-rate sweep per policy family. The nanosecond-
# scale decision benchmarks need a high fixed iteration count to amortize
# setup; the sweep is a whole experiment per op and runs once.
ROUTING_RAW=$(go test -run '^$' \
	-bench 'BenchmarkPolicyRoutingDecision' \
	-benchmem -benchtime "${ROUTING_BENCHTIME:-5000x}" . 2>&1 | grep -E '^Benchmark' || true)
RSWEEP_RAW=$(go test -run '^$' \
	-bench 'BenchmarkRoutingLatencySweep' \
	-benchmem -benchtime "${RSWEEP_BENCHTIME:-1x}" . 2>&1 | grep -E '^Benchmark' || true)

if [ -z "$RAW" ] || [ -z "$SWEEP_RAW" ] || [ -z "$FAULT_RAW" ] || [ -z "$FLEET_RAW" ] || [ -z "$SCALE_RAW" ] || [ -z "$PAR_RAW" ] || [ -z "$TELEM_RAW" ] || [ -z "$ROUTING_RAW" ] || [ -z "$RSWEEP_RAW" ]; then
	echo "bench.sh: no benchmark output" >&2
	exit 1
fi

ALL_RAW="$RAW
$SWEEP_RAW
$FAULT_RAW
$FLEET_RAW
$SCALE_RAW
$PAR_RAW
$TELEM_RAW
$ROUTING_RAW
$RSWEEP_RAW"

{
	printf '{\n'
	printf '  "pr": 10,\n'
	printf '  "benchtime": "%s",\n' "$BENCHTIME"
	printf '  "sweep_benchtime": "%s",\n' "$SWEEP_BENCHTIME"
	printf '  "go": "%s",\n' "$(go env GOVERSION)"
	printf '  "baseline": {\n'
	printf '    "commit": "343ef2f (seed) + go.mod",\n'
	printf '    "RoutingDecision": {"ns_op": %s, "allocs_op": %s},\n' \
		"$BASE_ROUTING_NS" "$BASE_ROUTING_ALLOCS"
	printf '    "SimulatorThroughput": {"ns_op": %s, "allocs_op": %s}\n' \
		"$BASE_SIMTP_NS" "$BASE_SIMTP_ALLOCS"
	printf '  },\n'
	printf '  "current": {\n'
	echo "$ALL_RAW" | awk -v procs="$PROCS" '
		{
			name = $1
			# Strip only the GOMAXPROCS suffix Go appends — and Go omits it
			# entirely when GOMAXPROCS is 1, so strip nothing then (a strip
			# would eat numeric sub-benchmark coordinates like /workers-1).
			if (procs != 1)
				sub("-" procs "$", "", name)
			sub(/^Benchmark/, "", name)
			line = sprintf("    \"%s\": {", name)
			sep = ""
			for (i = 3; i < NF; i += 2) {
				unit = $(i + 1)
				gsub(/[\/-]/, "_", unit)
				line = line sprintf("%s\"%s\": %s", sep, unit, $i)
				sep = ", "
			}
			line = line "}"
			lines[++n] = line
		}
		END {
			for (i = 1; i <= n; i++)
				printf("%s%s\n", lines[i], i < n ? "," : "")
		}
	'
	printf '  },\n'
	RESET_NS=$(echo "$SWEEP_RAW" | awk '/^BenchmarkSweepTrialReset/{print $3; exit}')
	FRESH_NS=$(echo "$SWEEP_RAW" | awk '/^BenchmarkSweepTrialFresh/{print $3; exit}')
	RESET_ALLOCS=$(echo "$SWEEP_RAW" | awk '/^BenchmarkSweepTrialReset/{for(i=3;i<NF;i+=2) if($(i+1)=="allocs/op") print $i}')
	FRESH_ALLOCS=$(echo "$SWEEP_RAW" | awk '/^BenchmarkSweepTrialFresh/{for(i=3;i<NF;i+=2) if($(i+1)=="allocs/op") print $i}')
	printf '  "derived": {\n'
	printf '    "sweep_reset_vs_fresh_speedup_x": %s,\n' \
		"$(awk -v f="$FRESH_NS" -v r="$RESET_NS" 'BEGIN{printf("%.3f", f/r)}')"
	printf '    "sweep_reset_allocs_op": %s,\n' "${RESET_ALLOCS:-0}"
	printf '    "sweep_fresh_allocs_op": %s,\n' "${FRESH_ALLOCS:-0}"
	SWAP_NS=$(echo "$FAULT_RAW" | awk '/^BenchmarkRecompileSwap/{print $3; exit}')
	RECONF_NS=$(echo "$FAULT_RAW" | awk '/^BenchmarkFullReconfigure/{print $3; exit}')
	SWAP_ALLOCS=$(echo "$FAULT_RAW" | awk '/^BenchmarkRecompileSwap/{for(i=3;i<NF;i+=2) if($(i+1)=="allocs/op") print $i}')
	RECONF_ALLOCS=$(echo "$FAULT_RAW" | awk '/^BenchmarkFullReconfigure/{for(i=3;i<NF;i+=2) if($(i+1)=="allocs/op") print $i}')
	STORM_ALLOCS=$(echo "$FAULT_RAW" | awk '/^BenchmarkFaultStormTrial/{for(i=3;i<NF;i+=2) if($(i+1)=="allocs/op") print $i}')
	# RecompileSwap runs two swap cycles (down+up) per op.
	printf '    "fault_swap_ns": %s,\n' \
		"$(awk -v s="$SWAP_NS" 'BEGIN{printf("%.0f", s/2)}')"
	printf '    "fault_swap_vs_reconfigure_speedup_x": %s,\n' \
		"$(awk -v s="$SWAP_NS" -v r="$RECONF_NS" 'BEGIN{printf("%.2f", r/(s/2))}')"
	printf '    "fault_swap_allocs_op": %s,\n' "${SWAP_ALLOCS:-0}"
	printf '    "reconfigure_allocs_op": %s,\n' "${RECONF_ALLOCS:-0}"
	printf '    "fault_storm_trial_allocs_op": %s,\n' "${STORM_ALLOCS:-0}"
	LOCAL_NS=$(echo "$FLEET_RAW" | awk '/^BenchmarkFleetRun\/local/{print $3; exit}')
	FLEET4_NS=$(echo "$FLEET_RAW" | awk '/^BenchmarkFleetRun\/workers-4/{print $3; exit}')
	CLEAN_NS=$(echo "$FLEET_RAW" | awk '/^BenchmarkFleetRetryPath\/clean/{print $3; exit}')
	FAULTY_NS=$(echo "$FLEET_RAW" | awk '/^BenchmarkFleetRetryPath\/faulty/{print $3; exit}')
	printf '    "fleet4_vs_local_ratio": %s,\n' \
		"$(awk -v l="$LOCAL_NS" -v f="$FLEET4_NS" 'BEGIN{printf("%.3f", f/l)}')"
	printf '    "fleet_retry_overhead_pct": %s,\n' \
		"$(awk -v c="$CLEAN_NS" -v f="$FAULTY_NS" 'BEGIN{printf("%.1f", 100*(f/c-1))}')"
	# PR 7: table footprint at 16k switches and the distribution kernel's
	# alloc count (must be 0).
	FT16_MIB=$(echo "$SCALE_RAW" | awk '/fattree:16x4/{for(i=3;i<NF;i+=2) if($(i+1)=="MiB/tables") print $i}')
	FT16_COMP=$(echo "$SCALE_RAW" | awk '/fattree:16x4/{for(i=3;i<NF;i+=2) if($(i+1)=="x/compression") print $i}')
	DIST_ALLOCS=$(echo "$PAR_RAW" | awk '/^BenchmarkDistributionOutputs/{for(i=3;i<NF;i+=2) if($(i+1)=="allocs/op") print $i}')
	printf '    "fattree16k_table_mib": %s,\n' "${FT16_MIB:-0}"
	printf '    "fattree16k_compression_x": %s,\n' "${FT16_COMP:-0}"
	printf '    "distribution_allocs_op": %s,\n' "${DIST_ALLOCS:-0}"
	# PR 9: telemetry overhead — instrumented-vs-plain percentage on the warm
	# trial hot path and on a full fleet /run, plus the alloc delta (the
	# zero-allocation contract; the AllocsPerRun test guards it exactly, this
	# records it in the trajectory snapshot).
	TT_OFF_NS=$(echo "$TELEM_RAW" | awk '/^BenchmarkTelemetryTrial\/off/{print $3; exit}')
	TT_ON_NS=$(echo "$TELEM_RAW" | awk '/^BenchmarkTelemetryTrial\/on/{print $3; exit}')
	TT_OFF_ALLOCS=$(echo "$TELEM_RAW" | awk '/^BenchmarkTelemetryTrial\/off/{for(i=3;i<NF;i+=2) if($(i+1)=="allocs/op") print $i}')
	TT_ON_ALLOCS=$(echo "$TELEM_RAW" | awk '/^BenchmarkTelemetryTrial\/on/{for(i=3;i<NF;i+=2) if($(i+1)=="allocs/op") print $i}')
	TF_OFF_NS=$(echo "$TELEM_RAW" | awk '/^BenchmarkTelemetryFleetRun\/off/{print $3; exit}')
	TF_ON_NS=$(echo "$TELEM_RAW" | awk '/^BenchmarkTelemetryFleetRun\/on/{print $3; exit}')
	printf '    "telemetry_trial_overhead_pct": %s,\n' \
		"$(awk -v o="$TT_OFF_NS" -v i="$TT_ON_NS" 'BEGIN{printf("%.2f", 100*(i/o-1))}')"
	printf '    "telemetry_trial_extra_allocs_op": %s,\n' \
		"$(awk -v o="${TT_OFF_ALLOCS:-0}" -v i="${TT_ON_ALLOCS:-0}" 'BEGIN{printf("%d", i-o)}')"
	printf '    "telemetry_fleet_run_overhead_pct": %s\n' \
		"$(awk -v o="$TF_OFF_NS" -v i="$TF_ON_NS" 'BEGIN{printf("%.2f", 100*(i/o-1))}')"
	printf '  }\n'
	printf '}\n'
} >"$OUT"

# Gate the snapshot: well-formed JSON, no duplicate keys (the exact failure
# mode a benchmark-name collision in the emitter above would produce).
go run ./scripts/benchcmp "$OUT"

echo "wrote $OUT"
echo "$ALL_RAW"
