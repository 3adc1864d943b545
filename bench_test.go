// Benchmarks that regenerate every figure and in-text result of the paper's
// evaluation (Section 4) plus the future-work ablations. Each Benchmark
// prints the regenerated rows via b.Log, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's numbers (at a reduced-but-faithful sampling effort;
// cmd/spamsim runs the full-scale versions). Latency distributions, not just
// wall-clock throughput, are the point: the custom "us/msg"-style metrics
// carry the reproduced results.
package spamnet

import (
	"flag"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/updown"
	"repro/internal/workload"
)

// benchLarge gates the multi-GiB benchmark cells (the 62500-switch fat-tree
// compile) behind an explicit opt-in so the default bench run stays laptop-
// sized. scripts/bench.sh passes it when recording the headline numbers.
var benchLarge = flag.Bool("benchlarge", false, "run the multi-GiB large-network benchmark cells")

// benchDriver runs a registered figure driver b.N times at the paper's seed
// and logs its table.
func benchDriver(b *testing.B, name string, o experiment.DriverOpts) *experiment.DriverResult {
	b.Helper()
	o.Seed = 1998
	var res *experiment.DriverResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiment.RunDriver(name, o); err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + res.Table.Format())
	return res
}

// rowValue parses the cell under header of the first table row whose
// leading cells equal key (a trailing "x" is dropped). The column is found
// by its header, so a change of column layout fails here instead of
// reporting another column's value.
func rowValue(b *testing.B, t *experiment.Table, header string, key ...string) float64 {
	b.Helper()
	col := slices.Index(t.Headers, header)
	if col < 0 || slices.Index(t.Headers[col+1:], header) >= 0 {
		b.Fatalf("%s: want one %q column in %q", t.Title, header, t.Headers)
	}
	for _, row := range t.Rows {
		if slices.Equal(row[:len(key)], key) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "x"), 64)
			if err != nil {
				b.Fatal(err)
			}
			return v
		}
	}
	b.Fatalf("%s: no row %v", t.Title, key)
	return 0
}

// BenchmarkFig2_SingleMulticast regenerates Figure 2: latency versus number
// of destinations for a single multicast in 128- and 256-node networks.
func BenchmarkFig2_SingleMulticast(b *testing.B) {
	series := benchDriver(b, "fig2", experiment.DriverOpts{Trials: 6}).Series
	// Headline metric: broadcast latency in the 256-node network.
	last := series[1].Points[len(series[1].Points)-1]
	b.ReportMetric(last.Mean, "us/broadcast-256")
	b.ReportMetric(series[0].Points[0].Mean, "us/unicast-128")
}

// BenchmarkFig3_MixedTraffic regenerates Figure 3: latency versus average
// arrival rate under 90% unicast / 10% multicast traffic (128-node network,
// multicasts of 8/16/32/64 destinations, negative-binomial arrivals).
func BenchmarkFig3_MixedTraffic(b *testing.B) {
	// Headline metric: 64-destination latency at the lowest and highest
	// swept rates.
	for _, s := range benchDriver(b, "fig3", experiment.DriverOpts{Messages: 400}).Series {
		if s.Label == "64 destinations" {
			b.ReportMetric(s.Points[0].Mean, "us/msg-64dest-low")
			b.ReportMetric(s.Points[len(s.Points)-1].Mean, "us/msg-64dest-high")
		}
	}
}

// BenchmarkTextComparison regenerates the in-text Section 4 comparison:
// SPAM broadcast versus unicast-based multicast (the paper reports <14 µs
// versus a 90 µs lower bound for a 256-node broadcast — more than 6×).
func BenchmarkTextComparison(b *testing.B) {
	t := benchDriver(b, "compare", experiment.DriverOpts{Trials: 3}).Table
	b.ReportMetric(rowValue(b, t, "mean(us)", "256", "SPAM"), "us/spam-bcast-256")
	b.ReportMetric(rowValue(b, t, "vs SPAM", "256", "unicast-binomial"), "x/spam-speedup-256")
}

// BenchmarkAblationBufferSize regenerates the Section 5 input-buffer-size
// question: loaded multicast latency with 1/2/4/8-flit input buffers.
func BenchmarkAblationBufferSize(b *testing.B) {
	pts := benchDriver(b, "ablate-buffer", experiment.DriverOpts{Trials: 4}).Series[0].Points
	b.ReportMetric(pts[0].Mean, "us/buf1")
	b.ReportMetric(pts[len(pts)-1].Mean, "us/buf8")
}

// BenchmarkAblationRootSelection regenerates the Section 5 spanning-tree
// selection question: broadcast latency under min-ID, max-degree and
// graph-center roots.
func BenchmarkAblationRootSelection(b *testing.B) {
	t := benchDriver(b, "ablate-root", experiment.DriverOpts{Trials: 4}).Table
	b.ReportMetric(rowValue(b, t, "broadcast mean(us)", "center"), "us/center-root")
}

// BenchmarkAblationPartition regenerates the Section 5 destination
// partitioning question under concurrent broadcast load.
func BenchmarkAblationPartition(b *testing.B) {
	t := benchDriver(b, "ablate-partition", experiment.DriverOpts{Trials: 2}).Table
	b.ReportMetric(rowValue(b, t, "mcast(us)", "none"), "us/unpartitioned")
}

// BenchmarkThroughputSaturation regenerates the saturation view of the
// Figure-3 workload: accepted vs offered throughput per multicast size.
func BenchmarkThroughputSaturation(b *testing.B) {
	for _, s := range benchDriver(b, "throughput", experiment.DriverOpts{Messages: 300}).Series {
		if s.Label == "8 destinations" {
			b.ReportMetric(s.Points[len(s.Points)-1].Mean, "msgus/accepted-8dest")
		}
	}
}

// BenchmarkHotSpotRootShare regenerates the Section 5 hot-spot observation:
// the share of worms passing through the spanning-tree root grows with
// the destination count, motivating destination partitioning.
func BenchmarkHotSpotRootShare(b *testing.B) {
	pts := benchDriver(b, "hotspot", experiment.DriverOpts{Trials: 6}).Series[0].Points
	b.ReportMetric(pts[0].Mean, "pct/unicast")
	b.ReportMetric(pts[len(pts)-1].Mean, "pct/64dest")
}

// BenchmarkAblationHeaderEncoding regenerates the header-encoding ablation:
// the latency cost of carrying the destination set in extra header flits
// versus the paper's single-header-flit abstraction.
func BenchmarkAblationHeaderEncoding(b *testing.B) {
	pts := benchDriver(b, "ablate-header", experiment.DriverOpts{Trials: 4}).Series[0].Points
	b.ReportMetric(pts[0].Mean, "us/ideal-header")
	b.ReportMetric(pts[len(pts)-1].Mean, "us/4addr-header")
}

// BenchmarkPruneVsSPAM regenerates the related-work contrast with the
// pruning-based tree multicast of Malumbres et al. (the paper's reference
// [9], "effective only for short messages"): completion latency of both
// schemes under contention as the message length grows.
func BenchmarkPruneVsSPAM(b *testing.B) {
	series := benchDriver(b, "prune", experiment.DriverOpts{Trials: 3}).Series
	spam, pr := series[0], series[1]
	last := len(spam.Points) - 1
	b.ReportMetric(pr.Points[0].Mean/spam.Points[0].Mean, "x/prune-overhead-short")
	b.ReportMetric(pr.Points[last].Mean/spam.Points[last].Mean, "x/prune-overhead-long")
}

// BenchmarkIBRVsSPAM regenerates the architectural contrast with
// input-buffer-based replication (Sivaram/Panda/Stunkel, the paper's
// references [14, 15]): IBR needs full-packet buffers and pays
// hops × length store-and-forward latency, SPAM needs one flit of buffering
// and pays hops + length.
func BenchmarkIBRVsSPAM(b *testing.B) {
	series := benchDriver(b, "ibr", experiment.DriverOpts{Trials: 4}).Series
	spam, ibr := series[0], series[1]
	last := len(spam.Points) - 1
	b.ReportMetric(ibr.Points[last].Mean/spam.Points[last].Mean, "x/ibr-overhead-512flit")
}

// sweepBenchRouter builds the 64-node platform for the sweep benchmarks.
func sweepBenchRouter(b *testing.B) *core.Router {
	b.Helper()
	net, err := topology.RandomLattice(topology.DefaultLattice(64, 1998))
	if err != nil {
		b.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		b.Fatal(err)
	}
	return core.NewRouter(lab)
}

// sweepBenchSim is the sweep-trial configuration: short 32-flit messages,
// the same reduced effort the experiment tests use, so one op is one quick
// Fig3-style trial rather than a multi-millisecond drain.
func sweepBenchSim() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Params.MessageFlits = 32
	return cfg
}

// sweepBenchWorkload is the Fig3-style trial both sweep benchmarks run: one
// mixed-traffic point at the paper's headline 0.02 msg/µs/proc rate.
func sweepBenchWorkload() workload.Workload {
	return workload.Mixed{
		RatePerProcPerUs:  0.02,
		MulticastFraction: 0.1,
		MulticastDests:    8,
		Messages:          60,
	}
}

// BenchmarkSweepTrialReset measures one Fig3-style sweep trial on a
// reusable session: Reset + traffic generation + full drain + latency
// collection, all on retained arenas. The trial loop runs at 0 allocs/op —
// the number every experiment driver's inner loop now pays per trial.
func BenchmarkSweepTrialReset(b *testing.B) {
	runner, err := workload.NewRunner(sweepBenchRouter(b), sweepBenchSim())
	if err != nil {
		b.Fatal(err)
	}
	w := sweepBenchWorkload()
	var lats []float64
	trial := func() float64 {
		if err := runner.Trial(w, 1998); err != nil {
			b.Fatal(err)
		}
		lats = runner.AppendLatenciesUs(lats[:0], 10)
		var sum float64
		for _, l := range lats {
			sum += l
		}
		return sum / float64(len(lats))
	}
	// Warm every arena and stabilize the worm pool before measuring: the
	// trial is deterministic, so epoch 3 onward reuses every capacity.
	trial()
	trial()
	b.ReportAllocs()
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		mean = trial()
	}
	b.ReportMetric(mean, "us/msg")
}

// BenchmarkSweepTrialFresh is the pre-PR2 shape of the same trial: a brand
// new simulator per trial, rebuilding every arena the reusable session
// retains. The ns/op and allocs/op gap against BenchmarkSweepTrialReset is
// the price each experiment trial used to pay.
func BenchmarkSweepTrialFresh(b *testing.B) {
	router := sweepBenchRouter(b)
	w := sweepBenchWorkload()
	var lats []float64
	trial := func() float64 {
		runner, err := workload.NewRunner(router, sweepBenchSim())
		if err != nil {
			b.Fatal(err)
		}
		if err := runner.Trial(w, 1998); err != nil {
			b.Fatal(err)
		}
		lats = runner.AppendLatenciesUs(lats[:0], 10)
		var sum float64
		for _, l := range lats {
			sum += l
		}
		return sum / float64(len(lats))
	}
	trial()
	b.ReportAllocs()
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		mean = trial()
	}
	b.ReportMetric(mean, "us/msg")
}

// BenchmarkSessionReset measures the Reset call itself on a warm 128-node
// session (sweeping channel state, recycling worms, rewinding queues).
func BenchmarkSessionReset(b *testing.B) {
	sys, err := NewLattice(128, WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	sess, err := sys.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	procs := sys.Processors()
	if _, err := sess.Multicast(0, procs[0], procs[1:]); err != nil {
		b.Fatal(err)
	}
	if err := sess.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Reset()
	}
}

// BenchmarkSimulatorThroughput measures raw engine speed: events per second
// on a 128-node broadcast (the microbenchmark that bounds every experiment's
// wall-clock cost).
func BenchmarkSimulatorThroughput(b *testing.B) {
	sys, err := NewLattice(128, WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	procs := sys.Processors()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		sess, err := sys.NewSession()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Multicast(0, procs[0], procs[1:]); err != nil {
			b.Fatal(err)
		}
		if err := sess.Run(); err != nil {
			b.Fatal(err)
		}
		events += sess.Counters().Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/broadcast")
}

// BenchmarkRoutingDecision measures one SPAM routing-function evaluation
// (the per-header hot path): a compiled-table candidate lookup into a reused
// buffer, as the simulator makes it. It stays at 0 allocs/op.
func BenchmarkRoutingDecision(b *testing.B) {
	sys, err := NewLattice(128, WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	r := sys.Router()
	lcas := sys.Switches()
	buf := make([]topology.ChannelID, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		at := lcas[i%len(lcas)]
		lca := lcas[(i*7+3)%len(lcas)]
		buf = r.AppendCandidateChannels(buf[:0], at, core.ArriveUp, lca)
		sink += len(buf)
	}
	_ = sink
}

// BenchmarkRoutingDecisionReference measures the same evaluation through the
// reference (compute-per-event) implementation the tables replaced.
func BenchmarkRoutingDecisionReference(b *testing.B) {
	sys, err := NewLattice(128, WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	r := core.NewReferenceRouter(sys.Labeling())
	lcas := sys.Switches()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		at := lcas[i%len(lcas)]
		lca := lcas[(i*7+3)%len(lcas)]
		sink += len(r.ReferenceCandidateOutputs(at, 1 /* up arrival */, lca))
	}
	_ = sink
}

// BenchmarkPolicyRoutingDecision measures the full warm per-header decision
// of each routing-policy family — the baseline candidate row plus, under
// misroute, the extras row the engine scans when every candidate is busy,
// each read into a reused buffer. The policy dimension must cost nothing
// when disarmed and one extra compiled-row read when armed; both stay 0
// allocs/op.
func BenchmarkPolicyRoutingDecision(b *testing.B) {
	for _, tc := range []struct {
		name string
		pol  RoutingPolicy
	}{
		{"baseline", PolicyBaseline},
		{"misroute", PolicyMisroute},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sys, err := NewFromSpec("gnm:24+12", WithSeed(1998), WithRoutingPolicy(tc.pol))
			if err != nil {
				b.Fatal(err)
			}
			r := sys.Router()
			lcas := sys.Switches()
			buf := make([]topology.ChannelID, 0, 16)
			b.ReportAllocs()
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				at := lcas[i%len(lcas)]
				lca := lcas[(i*7+3)%len(lcas)]
				buf = r.AppendCandidateChannels(buf[:0], at, core.ArriveDownTree, lca)
				sink += len(buf)
				if tc.pol != PolicyBaseline {
					buf = r.AppendExtrasChannels(buf[:0], at, core.ArriveDownTree, lca)
					sink += len(buf)
				}
			}
			_ = sink
		})
	}
}

// BenchmarkRoutingLatencySweep regenerates the adaptive-routing comparator's
// Fig3-style latency-vs-rate sweep and reports each policy curve's headline
// point (mean latency at the highest swept rate) separately.
func BenchmarkRoutingLatencySweep(b *testing.B) {
	for _, s := range benchDriver(b, "routing", experiment.DriverOpts{Messages: 300}).Series {
		b.ReportMetric(s.Points[len(s.Points)-1].Mean, "us/msg-"+s.Label+"-high")
	}
}

// BenchmarkLabelingConstruction measures building the full up*/down*
// structure (ancestor and extended-ancestor closures included) for a
// 256-switch network.
func BenchmarkLabelingConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewLattice(256, WithSeed(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecompileSwap measures the PR-4 live-reconfiguration hot path on
// a 128-switch lattice: one LinkDown + one LinkUp, each of which drains,
// relabels the masked topology in place and recompiles the routing tables
// into their retained arenas (two full swaps per op, zero steady-state
// allocations).
func BenchmarkRecompileSwap(b *testing.B) {
	net, err := topology.RandomLattice(topology.DefaultLattice(128, 1998))
	if err != nil {
		b.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(core.NewRouter(lab), sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	inj, err := faults.NewInjector(s)
	if err != nil {
		b.Fatal(err)
	}
	u, v := net.Link(0)
	down := faults.Event{Kind: faults.LinkDown, U: int32(u), V: int32(v)}
	up := faults.Event{Kind: faults.LinkUp, U: int32(u), V: int32(v)}
	// Warm the arenas (first swap grows the masked-labeling scratch).
	if _, err := inj.Apply(down); err != nil {
		b.Fatal(err)
	}
	if _, err := inj.Apply(up); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inj.Apply(down); err != nil {
			b.Fatal(err)
		}
		if _, err := inj.Apply(up); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRebuild is the baseline RecompileSwap replaces: a from-
// scratch labeling + router build over the same (mutated) topology — what
// System.Reconfigure pays per event, without even counting its topology
// copy.
func BenchmarkFullRebuild(b *testing.B) {
	net, err := topology.RandomLattice(topology.DefaultLattice(128, 1998))
	if err != nil {
		b.Fatal(err)
	}
	base, err := updown.New(net, updown.RootMinID)
	if err != nil {
		b.Fatal(err)
	}
	mask := faults.NewMask(net)
	u, v := net.Link(0)
	mask.Apply(faults.Event{Kind: faults.LinkDown, U: int32(u), V: int32(v)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab, err := updown.NewWithDown(net, base.Root, mask.Down())
		if err != nil {
			b.Fatal(err)
		}
		r := core.NewRouter(lab)
		_ = r
	}
}

// BenchmarkFullReconfigure measures the pre-PR-4 reaction to a link
// failure: System.Reconfigure rebuilds the topology object, the labeling
// and the tables, discarding every arena.
func BenchmarkFullReconfigure(b *testing.B) {
	sys, err := NewLattice(128, WithSeed(1998))
	if err != nil {
		b.Fatal(err)
	}
	l := switchLinks(sys.Topology())[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Reconfigure([][2]int{l}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultStormTrial runs a whole mixed-traffic trial with a Poisson
// fault storm (drains, retries, relabels, table swaps) on one reusable
// runner — the steady-state-under-faults loop, pinned at 0 allocs/op by
// TestFaultTrialSteadyStateAllocs.
func BenchmarkFaultStormTrial(b *testing.B) {
	net, err := topology.RandomLattice(topology.DefaultLattice(64, 1998))
	if err != nil {
		b.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := workload.NewRunner(core.NewRouter(lab), sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var w workload.Workload = workload.Faulty{
		Inner: workload.Mixed{RatePerProcPerUs: 0.04, MulticastFraction: 0.1, MulticastDests: 8, Messages: 400},
		Spec: faults.Spec{
			Profile: faults.ProfilePoisson, Seed: 9,
			HorizonNs: 400_000, MTBFNs: 6_000_000, MTTRNs: 100_000,
		},
		Policy: faults.Policy{MaxRetries: 3},
	}
	if err := runner.Trial(w, 7); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runner.Trial(w, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeFatTreeCompile measures the post-compression compile path on
// fat-trees past the old 4096-switch admission cap: one op is the full
// up*/down* labeling plus compiled-table construction of the network a
// topology spec names — the network serve admits for that spec. The
// reported MiB/tables and x/compression metrics are what /healthz and the
// campaign reports surface for the same network; MiB/network is the
// network's own retained heap, read after a forced GC around its build.
// fattree:16x4 (16384 switches, 65536 processors) allocates 1,174,770,272 B
// in 265 allocations per op and peaks at 1.10 GiB RSS (one op, 29.6 s
// median of five, on a 2-vCPU Xeon VM; 42.7 s with one distance BFS per
// switch): the compiler's transient 4·S² distance scratch (1 GiB) and
// S²/8 extended-descendant scratch (32 MiB), 8.75 MiB of tables (2120x
// under the dense layout; 8.49 MiB of it column page vectors), the
// labeling's flat arrays and the table pools' growth.
// With S·N/8 bytes of descendant rows (160 MiB) in the labeling it was
// 1,344,411,040 B in 52,765 allocations and 1.28 GiB. Its network is
// 6.90 MiB as one flat CSR over paired channels, and was 19.94 MiB with
// per-node out and in lists and a held switch graph. CI's scale smoke
// fails when its MiB/tables exceeds 12 or its B/op exceeds 1.25e9. The
// 62500-switch cell is gated behind -benchlarge (its distance scratch alone
// is ~15 GiB).
func BenchmarkLargeFatTreeCompile(b *testing.B) {
	cases := []string{
		"fattree:8x4",  // 2048 switches: the pre-PR7 comfort zone
		"fattree:16x4", // 16384 switches: the CI smoke size
	}
	if *benchLarge {
		cases = append(cases, "fattree:25x4") // 62500 switches: the 64k headline
	}
	for _, name := range cases {
		b.Run(name, func(b *testing.B) {
			sp, err := topology.ParseSpec(name)
			if err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			net, err := sp.Build(1)
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			netMiB := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
			b.ReportAllocs()
			b.ResetTimer()
			var ms core.MemStats
			for i := 0; i < b.N; i++ {
				lab, err := updown.New(net, updown.RootMinID)
				if err != nil {
					b.Fatal(err)
				}
				ms = core.NewRouter(lab).TableMemStats()
			}
			b.ReportMetric(float64(ms.TableBytes)/(1<<20), "MiB/tables")
			b.ReportMetric(float64(ms.NaiveIndexBytes+4*int64(ms.NaiveChannels))/(1<<20), "MiB/naive")
			b.ReportMetric(ms.CompressionX, "x/compression")
			b.ReportMetric(netMiB, "MiB/network")
			runtime.KeepAlive(net)
		})
	}
}

// BenchmarkCompileTables measures the table compiler alone: one op compiles
// the routing tables of a built labeling, for the six large serve-zoo
// catalog systems with their catalog policy and root at seed 1, and for
// mesh:2x1024, whose 1,024-hop diameter makes it the long-diameter case of
// the distance BFS.
func BenchmarkCompileTables(b *testing.B) {
	for _, tc := range []struct {
		spec string
		pol  core.Policy
		root updown.RootStrategy
	}{
		{"lattice:1024", core.PolicyBaseline, updown.RootMinID},
		{"gnm:1024+256", core.PolicyMisroute, updown.RootMaxDegree},
		{"mesh:32x32", core.PolicyMisroute, updown.RootMinID},
		{"torus:32x32", core.PolicyBaseline, updown.RootMaxDegree},
		{"hypercube:10", core.PolicyMisroute, updown.RootMinID},
		{"fattree:8x4", core.PolicyMisroute, updown.RootMaxDegree},
		{"mesh:2x1024", core.PolicyBaseline, updown.RootMinID},
	} {
		b.Run(tc.spec, func(b *testing.B) {
			sp, err := topology.ParseSpec(tc.spec)
			if err != nil {
				b.Fatal(err)
			}
			net, err := sp.Build(1)
			if err != nil {
				b.Fatal(err)
			}
			lab, err := updown.New(net, tc.root)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var r *core.Router
			for i := 0; i < b.N; i++ {
				r = core.NewRouterPolicy(lab, tc.pol)
			}
			runtime.KeepAlive(r)
		})
	}
}

// BenchmarkDistributionOutputs measures the distribution-phase hot path:
// one op resolves the down-tree output set at a rotating switch, for a
// broadcast set (every processor but the first) and for 16 destinations
// spread over the processors. A switch child costs one range count over the
// tree-ordered set, which reads only the words of that child's subtree
// (against all N bits per child with node-indexed descendant rows: 96 words
// on fattree:8x4). It must stay allocation-free.
func BenchmarkDistributionOutputs(b *testing.B) {
	for _, tc := range []struct {
		name  string
		build func() (*System, error)
	}{
		{"lattice:256", func() (*System, error) { return NewLattice(256, WithSeed(7)) }},
		{"fattree:8x4", func() (*System, error) { return NewFromSpec("fattree:8x4") }},
	} {
		sys, err := tc.build()
		if err != nil {
			b.Fatal(err)
		}
		r := sys.Router()
		procs := sys.Processors()
		spread := make([]NodeID, 16)
		for i := range spread {
			spread[i] = procs[i*len(procs)/len(spread)]
		}
		switches := sys.Switches()
		for _, set := range []struct {
			name  string
			dests []NodeID
		}{{"broadcast", procs[1:]}, {"16-dests", spread}} {
			dests, err := r.DestSet(set.dests)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(tc.name+"/"+set.name, func(b *testing.B) {
				buf := make([]topology.ChannelID, 0, 64)
				b.ReportAllocs()
				b.ResetTimer()
				var sink int
				for i := 0; i < b.N; i++ {
					buf = r.AppendDistributionOutputs(buf[:0], switches[i%len(switches)], dests)
					sink += len(buf)
				}
				_ = sink
			})
		}
	}
}
