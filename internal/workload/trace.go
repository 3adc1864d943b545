package workload

// Arrival traces: a byte-stable file format for a trial's submission
// stream, a recorder that captures any workload's stream while it runs,
// and a Replay workload that re-issues a captured stream bit-identically.
//
// The format records each submission's *trigger*, not just its time. The
// event queue breaks time-ties by insertion sequence, so a replay is only
// bit-identical if every submission re-enters the event stream at the same
// point as the original: pre-run submissions are replayed pre-run in the
// recorded order ("msg" entries, absolute times), and completion-triggered
// submissions are re-issued from the replayed parent worm's own completion
// hook ("dep" entries, parent index + delta). With both, the (time, seq)
// order of every event matches the original run by induction.
//
// Grammar (line-oriented, like the adjacency format — '#' comments and
// blank lines are ignored; Format(Load(f)) is byte-identical):
//
//	trace 1
//	procs <P>
//	msg <atNs> <src> <dest> [dest ...]
//	dep <parent> <deltaNs> <src> <dest> [dest ...]
//
// Processors are dense indices in [0, P). Entries appear in submission
// order; a dep entry's parent is the trace index of an earlier entry, and
// the submission time is the parent's completion time plus deltaNs.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TraceMsg is one recorded submission.
type TraceMsg struct {
	// At is the absolute submission time in ns for open entries
	// (Parent < 0), or the delay after the parent's completion for
	// dependent entries.
	At int64
	// Parent is the trace index of the entry whose completion triggers
	// this submission, or -1 for open (pre-run) entries.
	Parent int32
	// Src is the dense source processor index.
	Src int32
	// Dests are the dense destination processor indices.
	Dests []int32
}

// Trace is a captured submission stream, replayable on any network with the
// same processor count.
type Trace struct {
	// Procs is the processor count the trace was captured on.
	Procs int
	// Msgs are the submissions in original submission order.
	Msgs []TraceMsg
}

// MaxTraceMessages caps how many entries a trace file may carry — the same
// resource-bomb guard the adjacency loader applies to switch counts.
const MaxTraceMessages = 10_000_000

// LoadTrace parses a trace from r, validating structure and index ranges.
func LoadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	tr := &Trace{}
	stage := 0 // 0: expect header, 1: expect procs, 2: entries
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch stage {
		case 0:
			if len(f) != 2 || f[0] != "trace" || f[1] != "1" {
				return nil, fmt.Errorf("workload: trace line %d: expected \"trace 1\" header, got %q", lineNo, line)
			}
			stage = 1
		case 1:
			if len(f) != 2 || f[0] != "procs" {
				return nil, fmt.Errorf("workload: trace line %d: expected \"procs <P>\", got %q", lineNo, line)
			}
			// Indices are stored as int32, so a larger count would wrap.
			p, err := strconv.Atoi(f[1])
			if err != nil || p < 1 || p > math.MaxInt32 {
				return nil, fmt.Errorf("workload: trace line %d: bad processor count %q", lineNo, f[1])
			}
			tr.Procs = p
			stage = 2
		case 2:
			m, err := parseTraceEntry(f, len(tr.Msgs), tr.Procs)
			if err != nil {
				return nil, fmt.Errorf("workload: trace line %d: %w", lineNo, err)
			}
			if len(tr.Msgs) >= MaxTraceMessages {
				return nil, fmt.Errorf("workload: trace line %d: more than %d messages", lineNo, MaxTraceMessages)
			}
			tr.Msgs = append(tr.Msgs, m)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if stage < 2 {
		return nil, fmt.Errorf("workload: trace is missing its header")
	}
	return tr, nil
}

// parseTraceEntry parses one msg/dep line (already field-split).
func parseTraceEntry(f []string, idx, procs int) (TraceMsg, error) {
	m := TraceMsg{Parent: -1}
	var rest []string
	switch f[0] {
	case "msg":
		if len(f) < 4 {
			return m, fmt.Errorf("expected \"msg <atNs> <src> <dest> ...\"")
		}
		at, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil || at < 0 {
			return m, fmt.Errorf("bad submission time %q", f[1])
		}
		m.At = at
		rest = f[2:]
	case "dep":
		if len(f) < 5 {
			return m, fmt.Errorf("expected \"dep <parent> <deltaNs> <src> <dest> ...\"")
		}
		parent, err := strconv.Atoi(f[1])
		if err != nil || parent < 0 || parent >= idx {
			return m, fmt.Errorf("dep parent %q must be the index of an earlier entry (have %d so far)", f[1], idx)
		}
		delta, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil || delta < 0 {
			return m, fmt.Errorf("bad completion delay %q", f[2])
		}
		m.Parent = int32(parent)
		m.At = delta
		rest = f[3:]
	default:
		return m, fmt.Errorf("unknown entry kind %q (msg|dep)", f[0])
	}
	src, err := strconv.Atoi(rest[0])
	if err != nil || src < 0 || src >= procs {
		return m, fmt.Errorf("source %q out of [0,%d)", rest[0], procs)
	}
	m.Src = int32(src)
	for _, ds := range rest[1:] {
		d, err := strconv.Atoi(ds)
		if err != nil || d < 0 || d >= procs {
			return m, fmt.Errorf("destination %q out of [0,%d)", ds, procs)
		}
		m.Dests = append(m.Dests, int32(d))
	}
	return m, nil
}

// ParseTrace parses a trace from a string — the /run wire carries traces
// inline through this.
func ParseTrace(s string) (*Trace, error) {
	return LoadTrace(strings.NewReader(s))
}

// Format renders the trace in the canonical byte-stable layout:
// Format(Load(f)) of any formatted trace f reproduces f exactly.
func (tr *Trace) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# spamnet arrival trace: %d messages, %d processors\n", len(tr.Msgs), tr.Procs)
	sb.WriteString("trace 1\n")
	fmt.Fprintf(&sb, "procs %d\n", tr.Procs)
	for _, m := range tr.Msgs {
		if m.Parent < 0 {
			fmt.Fprintf(&sb, "msg %d %d", m.At, m.Src)
		} else {
			fmt.Fprintf(&sb, "dep %d %d %d", m.Parent, m.At, m.Src)
		}
		for _, d := range m.Dests {
			fmt.Fprintf(&sb, " %d", d)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TraceRecorder captures the submission stream of a trial. Gen.Submit
// feeds it every submission the workload layer makes (fault-injector
// retries bypass it by design — a retry is the policy's reaction, not part
// of the offered workload), and the simulator's completion tracking
// attributes mid-run submissions to the completion that triggered them.
type TraceRecorder struct {
	trace Trace
	// idx maps worm IDs of the current trial to their trace index, so a
	// submission made inside a completion hook records its parent.
	idx map[int64]int32
}

// reset clears the recorder for a new trial on a procs-processor network.
func (rec *TraceRecorder) reset(procs int) {
	rec.trace.Procs = procs
	rec.trace.Msgs = rec.trace.Msgs[:0]
	if rec.idx == nil {
		rec.idx = make(map[int64]int32)
	} else {
		clear(rec.idx)
	}
}

// record captures one submission. Must run inside Gen.Submit, immediately
// after the simulator accepted the worm.
func (rec *TraceRecorder) record(g *Gen, w *sim.Worm, src topology.NodeID, dests []topology.NodeID) {
	ns := g.router.Net.NumSwitches
	m := TraceMsg{Parent: -1, Src: int32(int(src) - ns)}
	for _, d := range dests {
		m.Dests = append(m.Dests, int32(int(d)-ns))
	}
	if p := g.Sim.CompletingWorm(); p != nil {
		if pi, ok := rec.idx[p.ID]; ok {
			// Triggered by a captured completion: record the dependency so
			// the replay re-issues it from the same hook.
			m.Parent = pi
			m.At = w.SubmitNs - g.Sim.Now()
		} else {
			// Triggered by a worm the recorder never saw (a fault-policy
			// retry). Fall back to an open entry at the absolute time —
			// replayable, though not necessarily bit-identical.
			m.At = w.SubmitNs
		}
	} else {
		m.At = w.SubmitNs
	}
	rec.idx[w.ID] = int32(len(rec.trace.Msgs))
	rec.trace.Msgs = append(rec.trace.Msgs, m)
}

// CaptureTrace arms (or disarms) submission-stream capture on the runner.
// While armed, every Trial records its stream; Trace returns the last
// trial's capture.
func (r *Runner) CaptureTrace(on bool) {
	if on {
		if r.gen.recorder == nil {
			r.gen.recorder = &TraceRecorder{}
		}
	} else {
		r.gen.recorder = nil
	}
}

// Trace returns the submission stream captured during the last trial, or
// nil if capture was not armed. The trace (including its Msgs) is
// invalidated by the next Trial.
func (r *Runner) Trace() *Trace {
	if r.gen.recorder == nil {
		return nil
	}
	return &r.gen.recorder.trace
}

// Replay re-issues a captured submission stream: open entries are
// submitted pre-run at their recorded times in recorded order, and
// dependent entries are submitted from their parent's completion hook —
// reproducing the original run's event stream exactly (see the package
// trace-format comment). The workload is deterministic by construction and
// ignores the trial seed.
type Replay struct {
	// Trace is the stream to replay.
	Trace *Trace
}

// Name implements Workload.
func (rp Replay) Name() string { return "replay" }

// MessageBudgetFor reports the per-trial submission count.
func (rp Replay) MessageBudgetFor(procs int) int {
	if rp.Trace == nil {
		return 0
	}
	return len(rp.Trace.Msgs)
}

// replayState is the per-trial working set of one Replay generation.
type replayState struct {
	g  *Gen
	tr *Trace
	// kids[i] lists the dependent entries triggered by entry i, in trace
	// (= original submission) order.
	kids [][]int32
	// wormIdx maps a submitted parent worm's ID back to its trace index.
	wormIdx map[int64]int32
	hook    func(w *sim.Worm, t int64)
}

// Generate implements Workload.
func (rp Replay) Generate(g *Gen) error {
	tr := rp.Trace
	if tr == nil || len(tr.Msgs) == 0 {
		return fmt.Errorf("workload: replay needs a non-empty trace")
	}
	if tr.Procs != g.NumProcs() {
		return fmt.Errorf("workload: trace was captured on %d processors, network has %d", tr.Procs, g.NumProcs())
	}
	st := &replayState{g: g, tr: tr, kids: make([][]int32, len(tr.Msgs)), wormIdx: make(map[int64]int32)}
	st.hook = st.complete
	for i, m := range tr.Msgs {
		if m.Parent >= 0 {
			st.kids[m.Parent] = append(st.kids[m.Parent], int32(i))
		}
	}
	for i, m := range tr.Msgs {
		if m.Parent >= 0 {
			continue
		}
		if err := st.submit(int32(i), m.At); err != nil {
			return err
		}
	}
	return nil
}

// submit re-issues trace entry i at time at and chains the completion hook
// if the entry has dependents.
func (st *replayState) submit(i int32, at int64) error {
	m := &st.tr.Msgs[i]
	g := st.g
	g.dests = g.dests[:0]
	for _, d := range m.Dests {
		g.dests = append(g.dests, g.Proc(int(d)))
	}
	w, err := g.Submit(at, g.Proc(int(m.Src)), g.dests)
	if err != nil {
		return fmt.Errorf("replaying trace entry %d: %w", i, err)
	}
	if len(st.kids[i]) > 0 {
		st.wormIdx[w.ID] = i
		w.OnComplete = st.hook
	}
	return nil
}

// complete is the replayed completion hook: it submits the completed
// entry's dependents at their recorded delays, in recorded order.
func (st *replayState) complete(w *sim.Worm, t int64) {
	i, ok := st.wormIdx[w.ID]
	if !ok {
		return
	}
	for _, c := range st.kids[i] {
		if err := st.submit(c, t+st.tr.Msgs[c].At); err != nil {
			st.g.setHookErr(err)
			return
		}
	}
}
