package workload

// Collective-communication workloads: the application-level patterns that
// stress multicast wormhole routing the way message-passing runtimes do.
// Ring and tree all-reduce are dependency chains driven by completion
// hooks (each step submits only when its predecessor's worm completes);
// all-to-all is the open-loop personalized-exchange schedule; the pipeline
// workload is a stage DAG whose inter-stage messages flow only as items
// finish each stage. All are budget-capped so campaign grids can bound
// trial cost, and all are deterministic per (workload, seed) like every
// other generator.

import "repro/internal/sim"

// Schedule constants of the collectives. No Params field reaches them;
// dependent steps forward the instant their predecessor completes.
const (
	// allToAllGapNs separates all-to-all round start times.
	allToAllGapNs = 1000
	// pipelineGapNs separates successive item arrivals into the first
	// pipeline stage.
	pipelineGapNs = 2000
)

// RingAllReduce models the classic ring all-reduce: n concurrent chains,
// one starting at each processor, each forwarding around the ring for the
// 2(n−1) steps of the reduce-scatter + all-gather schedule. Every step is
// a unicast to the ring successor, submitted from the predecessor step's
// completion hook — the offered load self-regulates exactly like the
// collective would on a real machine.
type RingAllReduce struct {
	// Messages caps the total submissions of the trial (0 = the full
	// 2·n·(n−1) message volume).
	Messages int
}

// Name implements Workload.
func (ra RingAllReduce) Name() string { return "allreduce-ring" }

// MessageBudgetFor reports the per-trial submission count.
func (ra RingAllReduce) MessageBudgetFor(procs int) int {
	full := 2 * procs * (procs - 1)
	if ra.Messages > 0 && ra.Messages < full {
		return ra.Messages
	}
	return full
}

// ringState is the per-trial working set of one RingAllReduce generation.
type ringState struct {
	g      *Gen
	n      int
	steps  int // steps per chain: 2(n−1)
	budget int
	// step maps an in-flight worm to its chain step index.
	step map[int64]int
	hook func(w *sim.Worm, t int64)
}

// Generate implements Workload.
func (ra RingAllReduce) Generate(g *Gen) error {
	n := g.NumProcs()
	st := &ringState{g: g, n: n, steps: 2 * (n - 1), budget: ra.MessageBudgetFor(n), step: make(map[int64]int)}
	st.hook = st.complete
	for s := 0; s < n && st.budget > 0; s++ {
		if err := st.submit(s, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// submit issues the step-k message of some chain from srcIdx to its ring
// successor at time at.
func (st *ringState) submit(srcIdx, k int, at int64) error {
	g := st.g
	g.dests = append(g.dests[:0], g.Proc((srcIdx+1)%st.n))
	w, err := g.Submit(at, g.Proc(srcIdx), g.dests)
	if err != nil {
		return err
	}
	st.budget--
	st.step[w.ID] = k
	w.OnComplete = st.hook
	return nil
}

// complete forwards the chain: the receiver of step k sends step k+1 to
// its own successor.
func (st *ringState) complete(w *sim.Worm, t int64) {
	k := st.step[w.ID]
	delete(st.step, w.ID)
	if k+1 >= st.steps || st.budget <= 0 {
		return
	}
	next := (int(w.Src) - st.g.router.Net.NumSwitches + 1) % st.n
	if err := st.submit(next, k+1, t); err != nil {
		st.g.setHookErr(err)
	}
}

// TreeAllReduce models a reduction tree over a complete Fanout-ary tree of
// the processors (parent(i) = (i−1)/f): the reduce phase sends one unicast
// up from every non-root node, each interior node forwarding only after
// all of its children's contributions completed; the broadcast phase then
// pushes the result back down as per-node multicasts to children, each
// forwarded from the parent multicast's completion. Total volume is
// (n−1) + ⌈(n−1)/f⌉ messages.
type TreeAllReduce struct {
	// Fanout is the tree arity (0 selects 2).
	Fanout int
	// Messages caps the total submissions of the trial (0 = full volume).
	Messages int
}

// Name implements Workload.
func (ta TreeAllReduce) Name() string { return "allreduce-tree" }

// fanout resolves the arity default.
func (ta TreeAllReduce) fanout() int {
	if ta.Fanout < 1 {
		return 2
	}
	return ta.Fanout
}

// MessageBudgetFor reports the per-trial submission count.
func (ta TreeAllReduce) MessageBudgetFor(procs int) int {
	f := ta.fanout()
	full := (procs - 1) + (procs-2+f)/f // up messages + interior-node multicasts
	if procs < 2 {
		full = 0
	}
	if ta.Messages > 0 && ta.Messages < full {
		return ta.Messages
	}
	return full
}

// treeState is the per-trial working set of one TreeAllReduce generation.
type treeState struct {
	g      *Gen
	n      int
	f      int
	budget int
	// pend[i] counts node i's children whose reduce contribution is still
	// outstanding; when it hits 0 the node forwards up (or, at the root,
	// starts the broadcast phase).
	pend []int
	// down marks in-flight broadcast-phase worms (reduce worms are absent).
	down map[int64]bool
	hook func(w *sim.Worm, t int64)
}

// Generate implements Workload.
func (ta TreeAllReduce) Generate(g *Gen) error {
	n := g.NumProcs()
	f := ta.fanout()
	st := &treeState{g: g, n: n, f: f, budget: ta.MessageBudgetFor(n), down: make(map[int64]bool)}
	st.hook = st.complete
	st.pend = make([]int, n)
	for i := 0; i < n; i++ {
		st.pend[i] = st.children(i)
	}
	// Leaves start the reduce phase.
	for i := 0; i < n && st.budget > 0; i++ {
		if st.pend[i] == 0 && i != 0 {
			if err := st.sendUp(i, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// children counts node i's children in the complete f-ary tree.
func (st *treeState) children(i int) int {
	first := st.f*i + 1
	if first >= st.n {
		return 0
	}
	last := st.f*i + st.f
	if last >= st.n {
		last = st.n - 1
	}
	return last - first + 1
}

// sendUp submits node i's reduce contribution to its parent.
func (st *treeState) sendUp(i int, at int64) error {
	g := st.g
	g.dests = append(g.dests[:0], g.Proc((i-1)/st.f))
	w, err := g.Submit(at, g.Proc(i), g.dests)
	if err != nil {
		return err
	}
	st.budget--
	w.OnComplete = st.hook
	return nil
}

// sendDown submits node i's broadcast multicast to all of its children.
func (st *treeState) sendDown(i int, at int64) error {
	g := st.g
	g.dests = g.dests[:0]
	for c := st.f*i + 1; c <= st.f*i+st.f && c < st.n; c++ {
		g.dests = append(g.dests, g.Proc(c))
	}
	w, err := g.Submit(at, g.Proc(i), g.dests)
	if err != nil {
		return err
	}
	st.budget--
	st.down[w.ID] = true
	w.OnComplete = st.hook
	return nil
}

// complete advances the collective past a finished message.
func (st *treeState) complete(w *sim.Worm, t int64) {
	i := int(w.Src) - st.g.router.Net.NumSwitches
	if st.down[w.ID] {
		// Node i's broadcast reached all its children; each interior child
		// forwards to its own subtree.
		delete(st.down, w.ID)
		for c := st.f*i + 1; c <= st.f*i+st.f && c < st.n; c++ {
			if st.children(c) > 0 && st.budget > 0 {
				if err := st.sendDown(c, t); err != nil {
					st.g.setHookErr(err)
					return
				}
			}
		}
		return
	}
	// Node i's contribution reached its parent.
	p := (i - 1) / st.f
	st.pend[p]--
	if st.pend[p] > 0 || st.budget <= 0 {
		return
	}
	var err error
	if p == 0 {
		err = st.sendDown(0, t)
	} else {
		err = st.sendUp(p, t)
	}
	if err != nil {
		st.g.setHookErr(err)
	}
}

// AllToAll is the personalized all-to-all exchange in the canonical
// rotation schedule: round r (1 ≤ r < n) starts at (r−1)·allToAllGapNs and
// has every processor i send one unicast to (i+r) mod n — the full n(n−1)
// message volume of MPI_Alltoall, open loop so the network's congestion
// response is measured rather than hidden.
type AllToAll struct {
	// Messages caps the total submissions of the trial (0 = full volume),
	// truncating the schedule in round-major order.
	Messages int
}

// Name implements Workload.
func (aa AllToAll) Name() string { return "alltoall" }

// MessageBudgetFor reports the per-trial submission count.
func (aa AllToAll) MessageBudgetFor(procs int) int {
	full := procs * (procs - 1)
	if aa.Messages > 0 && aa.Messages < full {
		return aa.Messages
	}
	return full
}

// Generate implements Workload.
func (aa AllToAll) Generate(g *Gen) error {
	n := g.NumProcs()
	budget := aa.MessageBudgetFor(n)
	for r := 1; r < n && budget > 0; r++ {
		at := int64(r-1) * allToAllGapNs
		for i := 0; i < n && budget > 0; i++ {
			g.dests = append(g.dests[:0], g.Proc((i+r)%n))
			if _, err := g.Submit(at, g.Proc(i), g.dests); err != nil {
				return err
			}
			budget--
		}
	}
	return nil
}

// Pipeline is a stage DAG: the processors are split into Stages contiguous
// bands, and work items flow through the bands in order. Item k enters the
// first band at k·pipelineGapNs; each inter-stage message is submitted only
// when the item's previous stage message completes — the
// pipelined-dataflow pattern whose throughput is set by the slowest stage
// link, not the offered rate.
type Pipeline struct {
	// Stages is the band count (0 selects 4; clamped to [2, procs]).
	Stages int
	// Messages sizes the trial: the item count is max(1, Messages/(S−1)),
	// so total submissions ≈ Messages (exactly items·(S−1)).
	Messages int
}

// Name implements Workload.
func (pl Pipeline) Name() string { return "pipeline" }

// stages resolves and clamps the band count for a procs-processor network.
func (pl Pipeline) stages(procs int) int {
	s := pl.Stages
	if s <= 0 {
		s = 4
	}
	if s < 2 {
		s = 2
	}
	if s > procs {
		s = procs
	}
	return s
}

// items resolves the work-item count from the message budget.
func (pl Pipeline) items(stages int) int {
	k := 1
	if pl.Messages > 0 {
		k = pl.Messages / (stages - 1)
		if k < 1 {
			k = 1
		}
	}
	return k
}

// MessageBudgetFor reports the exact per-trial submission count.
func (pl Pipeline) MessageBudgetFor(procs int) int {
	if procs < 2 {
		return 0
	}
	s := pl.stages(procs)
	return pl.items(s) * (s - 1)
}

// pipeState is the per-trial working set of one Pipeline generation.
type pipeState struct {
	g      *Gen
	n      int
	stages int
	// meta maps an in-flight worm to item·stages + stage.
	meta map[int64]int
	hook func(w *sim.Worm, t int64)
}

// band returns the processor index of item k's slot in stage s.
func (st *pipeState) band(s, k int) int {
	lo := s * st.n / st.stages
	hi := (s + 1) * st.n / st.stages
	return lo + k%(hi-lo)
}

// Generate implements Workload.
func (pl Pipeline) Generate(g *Gen) error {
	n := g.NumProcs()
	s := pl.stages(n)
	st := &pipeState{g: g, n: n, stages: s, meta: make(map[int64]int)}
	st.hook = st.complete
	for k := 0; k < pl.items(s); k++ {
		if err := st.submit(k, 0, int64(k)*pipelineGapNs); err != nil {
			return err
		}
	}
	return nil
}

// submit issues item k's stage-s message (band s → band s+1) at time at.
func (st *pipeState) submit(k, s int, at int64) error {
	g := st.g
	g.dests = append(g.dests[:0], g.Proc(st.band(s+1, k)))
	w, err := g.Submit(at, g.Proc(st.band(s, k)), g.dests)
	if err != nil {
		return err
	}
	st.meta[w.ID] = k*st.stages + s
	w.OnComplete = st.hook
	return nil
}

// complete forwards item k into its next stage when a stage message lands.
func (st *pipeState) complete(w *sim.Worm, t int64) {
	m := st.meta[w.ID]
	delete(st.meta, w.ID)
	k, s := m/st.stages, m%st.stages
	if s+1 >= st.stages-1 {
		return
	}
	if err := st.submit(k, s+1, t); err != nil {
		st.g.setHookErr(err)
	}
}
