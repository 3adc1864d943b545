package workload

// The generator catalog. Open-loop generators precompute an arrival
// schedule into the Gen's scratch and submit it in time order; permutation
// generators submit one message per processor per round; the closed-loop
// generator resubmits from completion hooks while the trial runs.

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Generator timing constants. No Params field reaches them, so each
// scenario is a function of Params alone.
const (
	// mixedSlotNs is the arrival-process granularity of Mixed (one flit
	// time), and mixedNegBinomialR the r of its inter-arrival distribution:
	// inter-arrival times are mixedSlotNs·(1 + NegBinomial(r, p)).
	mixedSlotNs       = 10
	mixedNegBinomialR = 2
	// roundGapNs separates permutation rounds (Transpose, BitReverse).
	roundGapNs = 10_000
	// stormGapNs staggers successive broadcast-storm submissions.
	stormGapNs = 200
	// meanBurstNs and meanIdleNs are Bursty's mean ON and OFF durations.
	meanBurstNs = 50_000
	meanIdleNs  = 150_000
)

// checkDests rejects a multicast fraction outside [0, 1] and, when
// multicasts can occur, a destination count n processors cannot express.
func checkDests(fraction float64, dests, n int) error {
	if fraction < 0 || fraction > 1 {
		return fmt.Errorf("workload: multicast fraction %v out of [0,1]", fraction)
	}
	if fraction > 0 && (dests < 1 || dests > n-1) {
		return fmt.Errorf("workload: %d multicast destinations infeasible with %d processors", dests, n)
	}
	return nil
}

// Mixed is the paper's Figure-3 workload: every processor submits messages
// with negative-binomial inter-arrival times (r = 2, 10 ns slots) at the
// configured average rate; each message is a unicast to a uniform
// destination with probability 1−MulticastFraction, otherwise a multicast
// to MulticastDests uniform destinations.
type Mixed struct {
	// RatePerProcPerUs is the average arrival rate per processor in
	// messages per microsecond (the paper sweeps ~0.005 to 0.04).
	RatePerProcPerUs float64
	// MulticastFraction is the probability a message is a multicast
	// (paper: 0.1).
	MulticastFraction float64
	// MulticastDests is the destination count of each multicast (paper:
	// 8, 16, 32 or 64).
	MulticastDests int
	// Messages is the total message count of the trial.
	Messages int
}

// Name implements Workload.
func (m Mixed) Name() string { return "mixed" }

// MessageBudgetFor reports the per-trial submission count (for warmup
// sizing); it does not depend on the network size.
func (m Mixed) MessageBudgetFor(int) int { return m.Messages }

func (m Mixed) validate(n int) error {
	if m.RatePerProcPerUs <= 0 {
		return fmt.Errorf("workload: rate %v must be positive", m.RatePerProcPerUs)
	}
	if err := checkDests(m.MulticastFraction, m.MulticastDests, n); err != nil {
		return err
	}
	if m.Messages <= 0 {
		return fmt.Errorf("workload: message count %d must be positive", m.Messages)
	}
	return nil
}

// Generate implements Workload.
func (m Mixed) Generate(g *Gen) error {
	n := g.NumProcs()
	if err := m.validate(n); err != nil {
		return err
	}
	meanSlots := 1000.0 / m.RatePerProcPerUs / mixedSlotNs
	if meanSlots <= 1 {
		return fmt.Errorf("workload: rate %v too high for slot %d ns", m.RatePerProcPerUs, mixedSlotNs)
	}
	p := rng.NegBinomialP(mixedNegBinomialR, meanSlots-1)
	perProc := (m.Messages + n - 1) / n
	for i := 0; i < n; i++ {
		t := int64(0)
		for j := 0; j < perProc; j++ {
			t += mixedSlotNs * (1 + g.Rand.NegBinomial(mixedNegBinomialR, p))
			g.arrivals = append(g.arrivals, arrival{t: t, srcIdx: int32(i)})
		}
	}
	sortArrivals(g.arrivals)
	if len(g.arrivals) > m.Messages {
		g.arrivals = g.arrivals[:m.Messages]
	}
	for i := range g.arrivals {
		a := &g.arrivals[i]
		a.k = 1
		if g.Rand.Bool(m.MulticastFraction) {
			a.k = int32(m.MulticastDests)
		}
	}
	return g.submitArrivals(nil)
}

// HotSpot concentrates open-loop unicast traffic on one destination: each
// message targets the hot processor (dense index 0) with probability
// HotFraction, a uniform destination otherwise — the paper's Section 5 root
// hot-spot discussion turned into a workload.
type HotSpot struct {
	// RatePerProcPerUs is the average per-processor arrival rate.
	RatePerProcPerUs float64
	// HotFraction is the probability a message targets the hot processor
	// (0 selects 0.5).
	HotFraction float64
	// Messages is the total message count of the trial.
	Messages int
}

// Name implements Workload.
func (h HotSpot) Name() string { return "hotspot" }

// MessageBudgetFor reports the per-trial submission count (for warmup
// sizing); it does not depend on the network size.
func (h HotSpot) MessageBudgetFor(int) int { return h.Messages }

// Generate implements Workload.
func (h HotSpot) Generate(g *Gen) error {
	n := g.NumProcs()
	if h.RatePerProcPerUs <= 0 || h.Messages <= 0 {
		return fmt.Errorf("workload: hotspot needs positive rate and messages")
	}
	hot := h.HotFraction
	if hot == 0 {
		hot = 0.5
	}
	meanNs := 1000.0 / h.RatePerProcPerUs
	perProc := (h.Messages + n - 1) / n
	for i := 0; i < n; i++ {
		t := int64(0)
		for j := 0; j < perProc; j++ {
			t += int64(g.Rand.Exp(meanNs)) + 1
			g.arrivals = append(g.arrivals, arrival{t: t, srcIdx: int32(i), k: 1})
		}
	}
	sortArrivals(g.arrivals)
	if len(g.arrivals) > h.Messages {
		g.arrivals = g.arrivals[:h.Messages]
	}
	return g.submitArrivals(func(a arrival) []topology.NodeID {
		src := int(a.srcIdx)
		if src != 0 && g.Rand.Bool(hot) {
			g.dests = append(g.dests[:0], g.Proc(0))
			return g.dests
		}
		return g.PickDests(src, 1)
	})
}

// Transpose is the classic matrix-transpose permutation: processors are laid
// on the largest w×w grid (w = ⌊√n⌋) and (row, col) sends to (col, row);
// processors outside the grid, and diagonal self-maps, send to their
// successor. Every round submits one message per processor simultaneously —
// a structured saturation pattern with long-range pairwise contention.
type Transpose struct {
	// Rounds is how many back-to-back permutation rounds to submit (0
	// selects 1), roundGapNs apart.
	Rounds int
}

// Name implements Workload.
func (tr Transpose) Name() string { return "transpose" }

// MessageBudgetFor reports the per-trial submission count: one message per
// processor per round.
func (tr Transpose) MessageBudgetFor(procs int) int {
	rounds := tr.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	return rounds * procs
}

// Generate implements Workload.
func (tr Transpose) Generate(g *Gen) error {
	return generatePermutation(g, tr.Rounds, func(i, n int) int {
		w := int(math.Sqrt(float64(n)))
		if w < 2 {
			return (i + 1) % n
		}
		if i >= w*w {
			return (i + 1) % n
		}
		row, col := i/w, i%w
		j := col*w + row
		if j == i {
			return (i + 1) % n
		}
		return j
	})
}

// BitReverse pairs each processor with the bit-reversal of its index within
// ⌈log₂ n⌉ bits (folded into range for non-power-of-two n) — the FFT
// communication pattern, adversarial for tree-based routing because paired
// nodes are maximally separated in index space.
type BitReverse struct {
	// Rounds is how many permutation rounds to submit (0 selects 1),
	// roundGapNs apart.
	Rounds int
}

// Name implements Workload.
func (br BitReverse) Name() string { return "bitreverse" }

// MessageBudgetFor reports the per-trial submission count: one message per
// processor per round.
func (br BitReverse) MessageBudgetFor(procs int) int {
	rounds := br.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	return rounds * procs
}

// Generate implements Workload.
func (br BitReverse) Generate(g *Gen) error {
	return generatePermutation(g, br.Rounds, func(i, n int) int {
		width := bits.Len(uint(n - 1))
		if width == 0 {
			return (i + 1) % n
		}
		j := int(bits.Reverse64(uint64(i)) >> (64 - width))
		j %= n
		if j == i {
			return (i + 1) % n
		}
		return j
	})
}

// generatePermutation submits rounds of one unicast per processor, with the
// destination index given by perm(i, n).
func generatePermutation(g *Gen, rounds int, perm func(i, n int) int) error {
	n := g.NumProcs()
	if rounds <= 0 {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		at := int64(r) * roundGapNs
		for i := 0; i < n; i++ {
			g.dests = append(g.dests[:0], g.Proc(perm(i, n)))
			if _, err := g.Submit(at, g.Proc(i), g.dests); err != nil {
				return err
			}
		}
	}
	return nil
}

// BroadcastStorm launches staggered broadcasts from several uniformly
// chosen sources — the worst case for spanning-tree root contention and the
// scenario behind the paper's in-text software-multicast comparison at
// scale.
type BroadcastStorm struct {
	// Sources is how many distinct processors broadcast (0 selects 4;
	// capped at the processor count), stormGapNs apart.
	Sources int
}

// Name implements Workload.
func (bs BroadcastStorm) Name() string { return "bcast-storm" }

// MessageBudgetFor reports the per-trial submission count: one broadcast per
// source, sources capped at the processor count.
func (bs BroadcastStorm) MessageBudgetFor(procs int) int {
	k := bs.Sources
	if k <= 0 {
		k = 4
	}
	if k > procs {
		k = procs
	}
	return k
}

// Generate implements Workload.
func (bs BroadcastStorm) Generate(g *Gen) error {
	n := g.NumProcs()
	k := bs.Sources
	if k <= 0 {
		k = 4
	}
	if k > n {
		k = n
	}
	g.idx = g.chooser.AppendChoose(g.Rand, g.idx[:0], n, k)
	for si, srcIdx := range g.idx {
		g.dests = g.dests[:0]
		for i := 0; i < n; i++ {
			if i != srcIdx {
				g.dests = append(g.dests, g.Proc(i))
			}
		}
		if _, err := g.Submit(int64(si)*stormGapNs, g.Proc(srcIdx), g.dests); err != nil {
			return err
		}
	}
	return nil
}

// Bursty is on/off modulated traffic: each processor alternates exponential
// ON periods (mean meanBurstNs, during which it submits at the configured
// rate) and OFF periods of silence (mean meanIdleNs). Bursts across
// processors are uncorrelated, producing the transient congestion clusters
// smooth open-loop arrivals never show.
type Bursty struct {
	// RatePerProcPerUs is the arrival rate during ON periods.
	RatePerProcPerUs float64
	// MulticastFraction and MulticastDests mix multicasts into the bursts.
	MulticastFraction float64
	MulticastDests    int
	// Messages is the total message count of the trial.
	Messages int
}

// Name implements Workload.
func (bw Bursty) Name() string { return "bursty" }

// MessageBudgetFor reports the per-trial submission count (for warmup
// sizing); it does not depend on the network size.
func (bw Bursty) MessageBudgetFor(int) int { return bw.Messages }

// Generate implements Workload.
func (bw Bursty) Generate(g *Gen) error {
	n := g.NumProcs()
	if bw.RatePerProcPerUs <= 0 || bw.Messages <= 0 {
		return fmt.Errorf("workload: bursty needs positive rate and messages")
	}
	if err := checkDests(bw.MulticastFraction, bw.MulticastDests, n); err != nil {
		return err
	}
	meanNs := 1000.0 / bw.RatePerProcPerUs
	perProc := (bw.Messages + n - 1) / n
	for i := 0; i < n; i++ {
		t := int64(0)
		onUntil := int64(g.Rand.Exp(meanBurstNs)) + 1
		for j := 0; j < perProc; j++ {
			t += int64(g.Rand.Exp(meanNs)) + 1
			for t > onUntil {
				// The ON window closed before this arrival: skip the
				// OFF period and open the next window.
				t = onUntil + int64(g.Rand.Exp(meanIdleNs)) + 1
				onUntil = t + int64(g.Rand.Exp(meanBurstNs)) + 1
			}
			g.arrivals = append(g.arrivals, arrival{t: t, srcIdx: int32(i)})
		}
	}
	sortArrivals(g.arrivals)
	if len(g.arrivals) > bw.Messages {
		g.arrivals = g.arrivals[:bw.Messages]
	}
	for i := range g.arrivals {
		a := &g.arrivals[i]
		a.k = 1
		if g.Rand.Bool(bw.MulticastFraction) {
			a.k = int32(bw.MulticastDests)
		}
	}
	return g.submitArrivals(nil)
}

// ClosedLoop keeps a fixed window of outstanding messages per processor:
// each completion triggers the next submission at once, so the offered
// load self-regulates to the network's accepted throughput — the
// complement of the open-loop generators, which plow on regardless of
// congestion.
type ClosedLoop struct {
	// Window is the outstanding-message window per processor (0 selects 1).
	Window int
	// MulticastFraction and MulticastDests mix multicasts into the stream.
	MulticastFraction float64
	MulticastDests    int
	// Messages is the total message budget of the trial.
	Messages int
}

// Name implements Workload.
func (cl ClosedLoop) Name() string { return "closed-loop" }

// MessageBudgetFor reports the per-trial submission count (for warmup
// sizing); it does not depend on the network size.
func (cl ClosedLoop) MessageBudgetFor(int) int { return cl.Messages }

// Generate implements Workload.
func (cl ClosedLoop) Generate(g *Gen) error {
	n := g.NumProcs()
	if cl.Messages <= 0 {
		return fmt.Errorf("workload: closed loop needs a positive message budget")
	}
	if err := checkDests(cl.MulticastFraction, cl.MulticastDests, n); err != nil {
		return err
	}
	window := cl.Window
	if window <= 0 {
		window = 1
	}
	g.clBudget = cl.Messages
	g.clMF = cl.MulticastFraction
	g.clMD = cl.MulticastDests
	if g.clHook == nil {
		// Bound once per Gen: every completion reuses this hook, so the
		// steady-state resubmission loop allocates nothing.
		g.clHook = g.closedLoopComplete
	}
	for i := 0; i < n && g.clBudget > 0; i++ {
		for j := 0; j < window && g.clBudget > 0; j++ {
			if err := g.closedLoopLaunch(i, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// closedLoopLaunch submits one closed-loop message from srcIdx at time at
// and chains the shared completion hook. The budget is spent only on a
// successful submission — a failed submit must not burn it, or an early
// error would silently shrink the trial.
func (g *Gen) closedLoopLaunch(srcIdx int, at int64) error {
	if g.clBudget <= 0 {
		return nil
	}
	k := 1
	if g.Rand.Bool(g.clMF) {
		k = g.clMD
	}
	w, err := g.Submit(at, g.Proc(srcIdx), g.PickDests(srcIdx, k))
	if err != nil {
		return err
	}
	g.clBudget--
	w.OnComplete = g.clHook
	return nil
}

// closedLoopComplete is the shared closed-loop completion hook. The source
// index is recovered from the completed worm instead of being captured in a
// per-launch closure.
func (g *Gen) closedLoopComplete(w *sim.Worm, t int64) {
	srcIdx := int(w.Src) - g.router.Net.NumSwitches
	// There is no caller to return to inside a hook: record the error
	// for Trial to surface after the run.
	if err := g.closedLoopLaunch(srcIdx, t); err != nil {
		g.setHookErr(err)
	}
}
