package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/topology"
	"repro/internal/updown"
)

// Tables is the compiled, table-driven form of the SPAM routing and selection
// functions — the software analogue of the routing tables the paper's
// hardware router would hold. Where the reference implementation filters,
// allocates and sorts a fresh candidate list on every header arrival, Tables
// answers the same query with a short chain of index loads and a copy of one
// arena row: the (arrival, at, lca) row lists exactly the channels
// ReferenceCandidateOutputs would produce, in the same (DistToLCA, ChannelID)
// order.
//
// Memory model. Earlier revisions indexed rows through a dense
// numClasses × switches × switches array of 8-byte (offset, length)
// references — O(3·S²), which at 64k switches is ~100 GB of index before a
// single candidate is stored. The index is now compressed by naming, per
// switch, the few LCA classes its rows fall into, and by structural sharing
// of everything else, the way decision diagrams merge nodes that behave
// alike once their edges carry local labels:
//
//	sw[at] ──▶ (col, base, bits)
//	col  + lca/64 ──▶ colPages: page offset
//	page + lca%64·bits ──▶ pages: class index (bits wide, local to the switch)
//	base + class·width + k ──▶ classes: (off, n) into arena
//	arena[off:off+n] ──▶ out-ports, each an index into Net.Out(at)
//
// A row names the switch's own output ports, as the paper's router does —
// "port 3, then port 5" — not global channel IDs, so a row is the same at
// every switch that sees the same situation, and rows intern across all
// switches. An LCA class of switch at is a set of LCAs that get the same rows
// for every arrival class. A switch numbers its classes in order of first
// occurrence along the LCA axis, so its column of class indices depends only
// on how the LCAs partition, and switches that partition alike — most of a
// regular family — share the column. The class table holds width row
// references per class: the numClasses legality rows, then for policy tables
// the extras row; switches whose classes carry the same port rows share one
// class table. A switch with n classes stores its class indices at the
// power-of-two width that holds n−1 (0, 1, 2, 4, 8 or 16 bits), so a 64-LCA
// page is that many words; a one-class switch stores none and reads the
// pool's leading zero word. Rows, pages, class tables and columns are each
// deduplicated by FNV hash with content verification, so correctness never
// depends on hash uniqueness. A switch has at most S classes, so a 16-bit
// class index covers S ≤ 65536 (topology.MaxAdmittedSwitches); the compiler
// panics rather than truncate past that. A lookup is four dependent loads
// (switch ref, page base, page word, class row), then the row's ports,
// translated to channels through Net.Out(at) into a caller buffer.
//
// Compilation streams, rather than tests, the legality relations: for each
// switch the live channels are split by class once, and then each block of
// 64 LCAs reads, per channel endpoint, one 64-bit word of the compiler's
// extended-descendant scratch (S×⌈S/64⌉ words, filled per compile) for a
// down-cross channel or the endpoint's preorder interval for a down-tree
// one, plus the endpoint's and the switch's rows of the compiler's distance
// scratch (S×S hop counts, filled per compile by a BFS from 64 sources at a
// time). Each LCA gets a code vector of 2 bits per live channel — illegal,
// or the channel's distance to the LCA relative to the switch's — and LCAs
// with equal vectors get equal rows. A run of equal vectors takes the
// first one's class; otherwise the vector is hashed into a per-switch memo,
// so LCA-equivalent columns pay one row construction for the whole
// equivalence class — the fast path that makes regular families compile in
// near-linear time. A switch's class table and column are interned once
// its column is complete, when its class count fixes the page width.
//
// A built table keeps only its index: compileTables drops the compiler —
// distance and extended-descendant scratch, dedup maps, memo — and trims
// the pools to their lengths.
//
// Reconfiguration. Recompile rebuilds the whole structure for a *new*
// labeling of the same network into the retained pools, with a compiler it
// creates on first use and keeps — zero allocations once every pool has
// grown to its high-water mark. This is the hot half of live fault
// reconfiguration: relabel the masked topology, recompile in place, and the
// router serves the new tables from the next event on.
type Tables struct {
	numSwitches int
	// policy records whether the extras row is compiled. PolicyBaseline
	// tables hold the numClasses legality rows per class; policy tables
	// add the extras row (see buildClass), sharing the arena with the
	// legality rows through the same row dedup.
	policy Policy
	// width is the number of row references per class: numClasses, plus
	// the extras row for policy tables.
	width int
	// sw maps a switch to its column (an offset into colPages), its class
	// table (an offset into classes) and its class-index width.
	sw []switchRef
	// colPages is the flat pool of page vectors: ppc consecutive entries
	// per distinct column, each the start offset of a page inside pages.
	colPages []uint32
	// pages is the flat pool of packed class-index pages. A page of a
	// switch whose indices are b bits wide is b words, entry j in bits
	// [j·b, j·b+b) (tail pages are padded with class 0; the pad entries are
	// never read). Word 0 is the zero word the columns of one-class
	// switches (b = 0) point at.
	pages []uint64
	// numPages counts the distinct pages, the zero word excluded.
	numPages int
	// classes holds the distinct class tables back to back: width arena
	// references per class, legality rows in class order, then extras.
	classes []tableRow
	// arena backs every row with out-port indices: a port p of a row read
	// at switch at names channel Net.Out(at)[p]. Rows with identical port
	// sequences share a range, across switches.
	arena []uint32
	// rows counts the distinct port rows, the empty row included.
	rows int
	// naiveArena counts the channel IDs a non-deduplicated arena would
	// hold, accumulated during compilation so MemStats needs no O(S²) walk.
	naiveArena int

	// comp is the compiler Recompile keeps for the next recompile (nil
	// until the first Recompile: a freshly built table drops its
	// compiler).
	comp *compiler
}

// switchRef locates one switch's column and class table, and gives the width
// in bits of its class indices: 0, 1, 2, 4, 8 or 16.
type switchRef struct {
	col  uint32
	base uint32
	bits uint8
}

// maxClasses is the most LCA classes one switch may have: the 16-bit class
// index's range, which a network of at most 65536 switches never exceeds.
const maxClasses = 1 << 16

// compiler is the working state of one table compile, kept apart from the
// Tables it fills so a built table holds only its index. Every field is
// retained across the compiles a kept compiler runs, which is what makes a
// warm Recompile allocation-free.
type compiler struct {
	t *Tables
	// dist is the S×S hop-distance matrix of the labeling being compiled,
	// row-major: dist[u*S+v] is the live switch-graph distance from u to v,
	// filled 64 sources at a time by Labeling.AllSwitchDistances. reach
	// (3·S words) and queue (2·S) are that BFS's scratch; queue then holds
	// the switch order that fills ext.
	dist  []int32
	reach []uint64
	queue []int32
	// ext is the labeling's extended-descendant relation, ⌈S/64⌉ words per
	// switch (Labeling.ExtendedDescendantRows).
	ext []uint64
	// rowSeen / pageSeen / tableSeen / colSeen dedup port rows, pages,
	// class tables and columns: FNV-1a hash of the content to its first
	// pool reference. A (vanishingly unlikely) hash collision is detected by
	// content comparison and merely stores the content twice — correctness
	// never depends on hash uniqueness. Keying by uint64 keeps Recompile
	// allocation-free.
	rowSeen   map[uint64]tableRow
	pageSeen  map[uint64]uint32
	tableSeen map[uint64]tableRow
	colSeen   map[uint64]uint32
	// classSeen numbers the current switch's classes: row-reference tuple
	// to class index. Cleared per switch.
	classSeen map[[numClasses + 1]tableRow]uint16
	// row is the per-cell candidate scratch.
	row []portCand
	// live is the per-switch compile scratch: the current labeling's live
	// channels of the switch split by class (indexed by the class-0/1/2
	// scheme below), with endpoints cached.
	live [numClasses][]liveChan
	// sigSeen memoizes LCA equivalence per switch: hash of an LCA's code
	// vector (see compile) to an index into memo. Cleared per switch (the
	// live channel set changes).
	sigSeen map[uint64]int32
	// memo holds the memoized per-LCA results; packArena holds their code
	// vectors for collision-safe verification. Both reset per switch.
	memo      []memoEntry
	packArena []uint64
	// packBuf stages one 64-LCA block of code vectors, LCA-major.
	packBuf []uint64
	// col accumulates the current switch's class column, padded to a whole
	// number of pages (pad entries stay 0).
	col []uint16
	// colScratch stages one column's page-offset vector for interning.
	colScratch []uint32
}

// liveChan caches a live (non-failed) inter-switch channel with its
// endpoint and its out-port at the switch for the compile inner loop.
type liveChan struct {
	c    topology.ChannelID
	end  topology.NodeID
	port uint32
}

// portCand is one candidate of a row under construction: the selection key
// the row is sorted by, and the out-port the row stores.
type portCand struct {
	Candidate
	port uint32
}

// tableRow is one (offset, length) reference into a pool: the shared arena
// for a row, the classes pool for a class table. The zero value is the empty
// row.
type tableRow struct {
	off uint32
	n   uint32
}

// memoEntry is the memoized compile result for one LCA-equivalence class at
// a switch: its class index, the channel IDs a dense arena would hold for
// one of its LCAs (for naive-size accounting), and the code vector's offset
// in packArena.
type memoEntry struct {
	class   uint16
	naive   uint32
	packOff uint32
}

// numClasses counts the distinct arrival behaviours. ArriveInjection is
// legality-equivalent to ArriveUp (the first hop of every route behaves like
// an up arrival), so the two share the class-0 rows.
const numClasses = 3

// pageBits sizes the class-index pages at 64 LCAs — one word of the legality
// bitsets, so the compile block loop and the page granularity coincide.
const (
	pageBits = 6
	pageSize = 1 << pageBits
)

// FNV-1a parameters, shared by the row, page and column dedup.
const (
	fnvBasis = uint64(1469598103934665603)
	fnvPrime = uint64(1099511628211)
)

// classIndex collapses the four arrival classes onto the three distinct
// legality behaviours.
func classIndex(a ArrivalClass) int {
	switch a {
	case ArriveInjection, ArriveUp:
		return 0
	case ArriveDownCross:
		return 1
	default: // ArriveDownTree
		return 2
	}
}

// pagesPerCol returns the number of 64-LCA pages in one column.
func (t *Tables) pagesPerCol() int {
	return (t.numSwitches + pageSize - 1) / pageSize
}

// planes returns the number of (arrival class, at, lca) planes the dense
// index MemStats compares against holds: the numClasses baseline legality
// planes, plus two extras planes per class for policy tables (the model
// keeps the deroute and adaptive planes of the original policy index, so
// reported compression ratios stay comparable across versions).
func (t *Tables) planes() int {
	if t.policy == PolicyBaseline {
		return numClasses
	}
	return 3 * numClasses
}

// Policy reports the routing policy the tables were compiled for.
func (t *Tables) Policy() Policy { return t.policy }

// compileTables builds the full candidate table for a labeling by evaluating
// the routing legality relations once per LCA-equivalence class per switch.
// Non-baseline policies also fill the extras rows from the same pass. The
// compiler is dropped when the compile ends and the pools are trimmed to
// their lengths, so the table holds only its index.
func compileTables(lab *updown.Labeling, pol Policy) *Tables {
	s := lab.Net.NumSwitches
	t := &Tables{
		numSwitches: s,
		policy:      pol,
		width:       numClasses,
		sw:          make([]switchRef, s),
	}
	if pol != PolicyBaseline {
		t.width++
	}
	newCompiler(t).compile(lab)
	t.arena = slices.Clone(t.arena)
	t.pages = slices.Clone(t.pages)
	t.colPages = slices.Clone(t.colPages)
	t.classes = slices.Clone(t.classes)
	return t
}

// newCompiler allocates the compile scratch for t's network and policy.
func newCompiler(t *Tables) *compiler {
	s := t.numSwitches
	ppc := t.pagesPerCol()
	return &compiler{
		t:          t,
		dist:       make([]int32, s*s),
		reach:      make([]uint64, 3*s),
		queue:      make([]int32, 2*s),
		ext:        make([]uint64, s*ppc),
		rowSeen:    make(map[uint64]tableRow),
		pageSeen:   make(map[uint64]uint32),
		tableSeen:  make(map[uint64]tableRow),
		colSeen:    make(map[uint64]uint32),
		classSeen:  make(map[[numClasses + 1]tableRow]uint16),
		sigSeen:    make(map[uint64]int32),
		row:        make([]portCand, 0, 16),
		col:        make([]uint16, ppc*pageSize),
		colScratch: make([]uint32, ppc),
	}
}

// Recompile rebuilds every row for a (new) labeling of the same network,
// reusing the compressed index pools and the arena. The first call creates
// a compiler and keeps it, so after every pool has reached its high-water
// mark the call performs no heap allocation. Every row is produced in the
// paper's selection order — ascending distance from the channel endpoint to
// the LCA, channel ID as the tiebreak — so lookups need no per-event sort.
func (t *Tables) Recompile(lab *updown.Labeling) {
	if t.comp == nil {
		t.comp = newCompiler(t)
	}
	t.comp.compile(lab)
}

// distRow returns the distances from switch u to every switch.
func (c *compiler) distRow(u topology.NodeID) []int32 {
	s := c.t.numSwitches
	return c.dist[int(u)*s : (int(u)+1)*s]
}

// compile fills t's pools for lab. The loop is shaped for the live-
// reconfiguration hot path (a fault event pays one Recompile): the distance
// scratch is filled by a BFS from 64 sources at a time and the
// extended-descendant scratch by one pass over the switches; the switch's
// live channels are split by class once per switch; down-cross legality is
// read word-at-a-time from that scratch (64 LCAs per load) and down-tree
// legality from the preorder intervals, with the distance rows walked
// sequentially.
//
// Each LCA gets a code vector, 2 bits per live channel at→end: 0 when the
// channel is illegal for the LCA, else 2 + d(end, lca) − d(at, lca). A
// labeling's failed links are failed in both directions and leave the
// switches connected, so that difference is −1, 0 or +1. A class's rows
// depend only on which channels are legal and on their order by distance
// to the LCA, channel ID breaking ties, and subtracting the common
// d(at, lca) keeps both; so LCAs with equal vectors get the same rows. An
// LCA whose vector equals the previous LCA's takes its class directly;
// otherwise the vector is hashed into a per-switch memo, so each
// equivalence class pays one row construction.
func (c *compiler) compile(lab *updown.Labeling) {
	t := c.t
	s := t.numSwitches
	lab.AllSwitchDistances(c.dist, c.reach, c.queue)
	lab.ExtendedDescendantRows(c.ext, c.queue)
	ppc := t.pagesPerCol()
	t.arena = t.arena[:0]
	t.pages = append(t.pages[:0], 0) // the zero word one-class switches read
	t.numPages = 0
	t.colPages = t.colPages[:0]
	t.classes = t.classes[:0]
	t.rows = 1 // the empty row
	t.naiveArena = 0
	clear(c.rowSeen)
	clear(c.pageSeen)
	clear(c.tableSeen)
	clear(c.colSeen)
	for at := 0; at < s; at++ {
		// Split the switch's live inter-switch channels by class
		// (consumption channels are distribution-only, never candidates).
		// The class-0 row of a cell is up ∪ legal(down-cross) ∪ legal(down-
		// tree), class 1 drops the ups, class 2 keeps only down-tree; the
		// final sort by (dist, channel) makes append order irrelevant.
		for k := range c.live {
			c.live[k] = c.live[k][:0]
		}
		for port, ch := range lab.Net.Out(topology.NodeID(at)) {
			end := lab.Net.Chan(ch).Dst
			if !lab.Net.IsSwitch(end) || lab.IsDown(ch) {
				continue
			}
			var k int
			switch lab.ClassOf[ch] {
			case updown.Up:
				k = 0
			case updown.DownCross:
				k = 1
			default:
				k = 2
			}
			c.live[k] = append(c.live[k], liveChan{c: ch, end: end, port: uint32(port)})
		}
		nLive := len(c.live[0]) + len(c.live[1]) + len(c.live[2])
		nw := (2*nLive + 63) / 64
		if need := pageSize * nw; cap(c.packBuf) < need {
			c.packBuf = make([]uint64, need)
		} else {
			c.packBuf = c.packBuf[:need]
		}
		clear(c.sigSeen)
		clear(c.classSeen)
		c.memo = c.memo[:0]
		c.packArena = c.packArena[:0]
		classBase := len(t.classes)
		atDist := c.distRow(topology.NodeID(at))
		for base := 0; base < s; base += pageSize {
			lim := min(pageSize, s-base)
			wb := base >> pageBits
			pb := c.packBuf[:lim*nw]
			clear(pb)
			ar := atDist[base : base+lim]
			// Stream each live endpoint across the whole block, adding its
			// code to every LCA's vector. Ups are always legal; down-cross
			// legality is one word of the extended-descendant transpose;
			// down-tree legality is the LCA's preorder number falling in
			// the endpoint's subtree interval.
			ei := 0
			for _, lc := range c.live[0] {
				dr := c.distRow(lc.end)[base : base+lim]
				w, sh := ei>>5, uint(ei&31)<<1
				for j := 0; j < lim; j++ {
					pb[j*nw+w] |= uint64(2+dr[j]-ar[j]) << sh
				}
				ei++
			}
			for _, lc := range c.live[1] {
				x := c.ext[int(lc.end)*ppc+wb]
				dr := c.distRow(lc.end)[base : base+lim]
				w, sh := ei>>5, uint(ei&31)<<1
				for j := 0; j < lim; j++ {
					pb[j*nw+w] |= uint64(2+dr[j]-ar[j]) * (x >> uint(j) & 1) << sh
				}
				ei++
			}
			for _, lc := range c.live[2] {
				lo, hi := lab.Interval(lc.end)
				dr := c.distRow(lc.end)[base : base+lim]
				w, sh := ei>>5, uint(ei&31)<<1
				for j := 0; j < lim; j++ {
					if pre, _ := lab.Interval(topology.NodeID(base + j)); lo <= pre && pre < hi {
						pb[j*nw+w] |= uint64(2+dr[j]-ar[j]) << sh
					}
				}
				ei++
			}
			var m memoEntry
			for j := 0; j < lim; j++ {
				pk := pb[j*nw : (j+1)*nw]
				if j == 0 || !slices.Equal(pk, pb[(j-1)*nw:j*nw]) {
					m = c.resolveClass(pk)
				}
				c.col[base+j] = m.class
				t.naiveArena += int(m.naive)
			}
		}
		b := classBits(len(c.classSeen))
		t.sw[at] = switchRef{
			col:  c.internColumn(c.col, b),
			base: c.internClassTable(classBase),
			bits: b,
		}
	}
}

// classBits returns the class-index width of a switch with n classes: the
// smallest power of two that holds n−1, or 0 for one class.
func classBits(n int) uint8 {
	b := bits.Len(uint(n - 1))
	if b <= 1 {
		return uint8(b)
	}
	return uint8(1 << bits.Len(uint(b-1)))
}

// internColumn interns one finished class column at b bits per entry: pages
// first, then the page-offset vector. Two switches whose LCAs partition
// into classes alike end up sharing one colPages range.
func (c *compiler) internColumn(col []uint16, b uint8) uint32 {
	for p := range c.colScratch {
		c.colScratch[p] = c.internPage(col[p*pageSize:(p+1)*pageSize], b)
	}
	return c.internCol(c.colScratch)
}

// internClassTable interns the class table the current switch appended at
// t.classes[base:]: when an earlier switch's classes carry the same rows in
// the same order, the copy is dropped and the earlier table's offset is
// returned.
func (c *compiler) internClassTable(base int) uint32 {
	t := c.t
	tab := t.classes[base:]
	h := fnvBasis
	for _, r := range tab {
		h = (h ^ uint64(r.off)) * fnvPrime
		h = (h ^ uint64(r.n)) * fnvPrime
	}
	if ref, ok := c.tableSeen[h]; ok && slices.Equal(t.classes[ref.off:ref.off+ref.n], tab) {
		t.classes = t.classes[:base]
		return ref.off
	}
	c.tableSeen[h] = tableRow{off: uint32(base), n: uint32(len(tab))}
	return uint32(base)
}

// resolveClass returns the memo entry for an LCA whose code vector is pk,
// building its rows and class on a memo miss. Hash hits are verified against
// the stored vector, so a collision only costs a rebuild, never a wrong row.
func (c *compiler) resolveClass(pk []uint64) memoEntry {
	h := hashWords(fnvBasis, pk)
	if idx, ok := c.sigSeen[h]; ok {
		m := c.memo[idx]
		if slices.Equal(c.packArena[m.packOff:int(m.packOff)+len(pk)], pk) {
			return m
		}
	}
	m := c.buildClass(pk)
	m.packOff = uint32(len(c.packArena))
	c.packArena = append(c.packArena, pk...)
	c.sigSeen[h] = int32(len(c.memo))
	c.memo = append(c.memo, m)
	return m
}

// buildClass constructs and interns the class rows of one LCA-equivalence
// class from its code vector, then numbers the class at the current switch.
// The codes replay the legality tests and distance reads, so no labeling
// state is touched here.
func (c *compiler) buildClass(pk []uint64) memoEntry {
	row := c.row[:0]
	off1 := len(c.live[0])
	off2 := off1 + len(c.live[1])
	for i, lc := range c.live[1] {
		if p := code(pk, off1+i); p != 0 {
			row = append(row, lc.cand(p))
		}
	}
	downCross := len(row)
	var refs [numClasses + 1]tableRow
	if c.t.policy != PolicyBaseline {
		// The extras row: the channels that fail the up*/down* legality
		// test for (arrival, LCA) but whose use provably preserves the
		// deadlock certificate — within the paper's rules exactly one
		// class (see Router.referenceExtras for the argument): the legal
		// down-cross channels above, offered to *down-tree* arrivals.
		//
		// A distance-productivity filter was considered and rejected:
		// under a BFS up*/down* labeling a productive extra is *provably
		// unreachable* — any switch a worm can legally occupy with a down-tree arrival
		// is a tree ancestor of its LCA, whose tree descent is already a
		// shortest path, and the BFS discovery order forces every
		// strictly-shorter sidestep's subtree to capture the LCA's parent
		// pointer first (see ARCHITECTURE.md). Unbounded-budget worms
		// terminate without the filter because every extra is a down-cross
		// channel, and down channels strictly ascend the labeling's
		// (level, id) order.
		refs[numClasses] = c.internRow(row)
	}
	for i, lc := range c.live[2] {
		if p := code(pk, off2+i); p != 0 {
			row = append(row, lc.cand(p))
		}
	}
	downAny := len(row)
	// Class 2 (down-tree arrival): down-tree candidates only.
	c.row = row
	refs[2] = c.internRow(row[downCross:downAny])
	// Class 1 (down-cross arrival): down-cross ∪ down-tree.
	refs[1] = c.internRow(row[:downAny])
	// Class 0 (up/injection arrival): everything plus the ups.
	for i, lc := range c.live[0] {
		row = append(row, lc.cand(code(pk, i)))
	}
	c.row = row
	refs[0] = c.internRow(row)
	// The dense index of the MemStats model holds the legality rows once
	// each and the extras row twice (see planes).
	naive := refs[0].n + refs[1].n + refs[2].n + 2*refs[numClasses].n
	return memoEntry{class: c.internClass(refs), naive: naive}
}

// code returns live channel i's 2-bit code in the code vector pk.
func code(pk []uint64, i int) uint64 {
	return pk[i>>5] >> (uint(i&31) << 1) & 3
}

// cand turns a legal live channel's code k into a row candidate. The code
// stands in for the distance to the LCA: it differs from it by the same
// offset on every channel of the switch, so it sorts the row alike.
func (lc liveChan) cand(k uint64) portCand {
	return portCand{Candidate{Channel: lc.c, DistToLCA: int32(k)}, lc.port}
}

// internClass returns the current switch's class index for a row-reference
// tuple, appending a class to the switch's class table on its first
// occurrence. It panics rather than truncate when a switch needs more
// classes than a uint16 index can name, which a network within
// topology.MaxAdmittedSwitches never does.
func (c *compiler) internClass(refs [numClasses + 1]tableRow) uint16 {
	if idx, ok := c.classSeen[refs]; ok {
		return idx
	}
	t := c.t
	n := len(c.classSeen)
	if n >= maxClasses {
		panic(fmt.Sprintf("core: a switch needs more than %d LCA classes, the uint16 class-index bound; networks of at most %d switches never do", maxClasses, maxClasses))
	}
	t.classes = append(t.classes, refs[:t.width]...)
	c.classSeen[refs] = uint16(n)
	return uint16(n)
}

// internRow sorts a candidate row into selection order and returns the
// (deduplicated) arena reference of its port sequence. The row slice is
// scratch owned by the caller; interning copies the ports out.
func (c *compiler) internRow(row []portCand) tableRow {
	t := c.t
	if len(row) == 0 {
		return tableRow{}
	}
	slices.SortFunc(row, func(a, b portCand) int { return compareCandidates(a.Candidate, b.Candidate) })
	h := fnvBasis
	for _, cand := range row {
		h = (h ^ uint64(cand.port)) * fnvPrime
	}
	if ref, ok := c.rowSeen[h]; ok && t.rowEqual(ref, row) {
		return ref
	}
	// New row, or hash collision (store separately).
	ref := tableRow{off: uint32(len(t.arena)), n: uint32(len(row))}
	for _, cand := range row {
		t.arena = append(t.arena, cand.port)
	}
	c.rowSeen[h] = ref
	t.rows++
	return ref
}

// internPage packs a 64-entry class-index page at b bits per entry and
// returns its pages-pool offset, deduplicated by content. A one-class
// switch's page (b = 0) is the zero word at offset 0.
func (c *compiler) internPage(pg []uint16, b uint8) uint32 {
	if b == 0 {
		return 0
	}
	t := c.t
	var buf [16]uint64
	words := buf[:b]
	for j, v := range pg {
		bit := j * int(b)
		words[bit>>6] |= uint64(v) << (bit & 63)
	}
	h := hashWords((fnvBasis^uint64(b))*fnvPrime, words)
	if off, ok := c.pageSeen[h]; ok && slices.Equal(t.pages[off:int(off)+len(words)], words) {
		return off
	}
	off := uint32(len(t.pages))
	t.pages = append(t.pages, words...)
	c.pageSeen[h] = off
	t.numPages++
	return off
}

// hashWords folds words into the FNV-1a hash h. Each word enters as two
// 32-bit halves: a whole 64-bit step would leave its high bits unmixed, so
// words that differ only in their top bits would collide.
func hashWords(h uint64, words []uint64) uint64 {
	for _, w := range words {
		h = (h ^ w&0xffffffff) * fnvPrime
		h = (h ^ w>>32) * fnvPrime
	}
	return h
}

// internCol returns the colPages-pool offset of a column's page-offset
// vector, deduplicated by content.
func (c *compiler) internCol(col []uint32) uint32 {
	t := c.t
	h := fnvBasis
	for _, v := range col {
		h = (h ^ uint64(v)) * fnvPrime
	}
	if off, ok := c.colSeen[h]; ok && slices.Equal(t.colPages[off:int(off)+len(col)], col) {
		return off
	}
	off := uint32(len(t.colPages))
	t.colPages = append(t.colPages, col...)
	c.colSeen[h] = off
	return off
}

// rowEqual reports whether the arena range ref holds exactly the ports of
// row, in order.
func (t *Tables) rowEqual(ref tableRow, row []portCand) bool {
	if int(ref.n) != len(row) {
		return false
	}
	for i, cand := range row {
		if t.arena[int(ref.off)+i] != cand.port {
			return false
		}
	}
	return true
}

// sortCandidates orders candidates by the paper's selection priority:
// ascending (DistToLCA, ChannelID). The key is a total order (channel IDs
// are unique), so any sort produces the identical unique ordering on lists
// of any origin.
func sortCandidates(cands []Candidate) {
	slices.SortFunc(cands, compareCandidates)
}

func compareCandidates(a, b Candidate) int {
	if a.DistToLCA != b.DistToLCA {
		return cmp.Compare(a.DistToLCA, b.DistToLCA)
	}
	return cmp.Compare(a.Channel, b.Channel)
}

// rowAt resolves the compressed index for row k (a legality class, or
// numClasses for extras) of one (at, lca) cell: switch ref, page base, page
// word, class row — four dependent loads. The class index is the switch's
// bits-wide entry lca%64 of the page; a one-class switch (bits 0) reads the
// zero word under an empty mask.
func (t *Tables) rowAt(k, at, lca int) tableRow {
	sw := t.sw[at]
	pb := t.colPages[int(sw.col)+lca>>pageBits]
	bit := (lca & (pageSize - 1)) * int(sw.bits)
	cls := int(t.pages[int(pb)+bit>>6]>>(bit&63)) & (1<<sw.bits - 1)
	return t.classes[int(sw.base)+cls*t.width+k]
}

// appendRow appends row k of the (at, lca) cell to dst as channels: out is
// Net.Out(at), which the row's ports index.
func (t *Tables) appendRow(dst, out []topology.ChannelID, k, at, lca int) []topology.ChannelID {
	ref := t.rowAt(k, at, lca)
	for _, p := range t.arena[ref.off : ref.off+ref.n] {
		dst = append(dst, out[p])
	}
	return dst
}

// MemStats is the byte-level accounting of one compiled table set, exposed
// through the facade, /healthz and campaign reports. Cells, NaiveChannels
// and NaiveIndexBytes describe the dense layout — one 8-byte (offset,
// length) reference and one copy of the row per (plane, at, lca) cell, with
// two extras planes per arrival class on policy tables (see planes);
// CompressionX is the ratio of that naive structure (dense index + per-cell
// arena) to the compressed one.
type MemStats struct {
	Switches        int     `json:"switches"`
	Cells           int     `json:"cells"`
	DistinctRows    int     `json:"distinct_rows"`
	DistinctPages   int     `json:"distinct_pages"`
	DistinctColumns int     `json:"distinct_columns"`
	ArenaChannels   int     `json:"arena_channels"`
	NaiveChannels   int     `json:"naive_channels"`
	IndexBytes      int64   `json:"index_bytes"`
	ArenaBytes      int64   `json:"arena_bytes"`
	TableBytes      int64   `json:"table_bytes"`
	NaiveIndexBytes int64   `json:"naive_index_bytes"`
	CompressionX    float64 `json:"compression_x"`
}

// MemStats reports the compressed table memory accounting.
func (t *Tables) MemStats() MemStats {
	s := t.numSwitches
	m := MemStats{
		Switches:        s,
		Cells:           t.planes() * s * s,
		DistinctRows:    t.rows,
		DistinctPages:   t.numPages,
		DistinctColumns: len(t.colPages) / t.pagesPerCol(),
		ArenaChannels:   len(t.arena),
		NaiveChannels:   t.naiveArena,
	}
	// A switchRef is two uint32s and a byte, padded to 12 bytes.
	m.IndexBytes = 12*int64(len(t.sw)) + 4*int64(len(t.colPages)) + 8*int64(len(t.pages)) + 8*int64(len(t.classes))
	m.ArenaBytes = 4 * int64(len(t.arena))
	m.TableBytes = m.IndexBytes + m.ArenaBytes
	m.NaiveIndexBytes = 8 * int64(m.Cells)
	naive := m.NaiveIndexBytes + 4*int64(t.naiveArena)
	if m.TableBytes > 0 {
		m.CompressionX = float64(naive) / float64(m.TableBytes)
	}
	return m
}

// EqualContent reports whether two tables answer every (arrival class, at,
// lca) query with the identical candidate list — the bit-identical hot-swap
// criterion the fault property tests pin (pool layout may differ; contents
// may not). Both tables are compiled over one network, so equal port rows
// are equal channel rows. Policy tables compare their extras rows too, so
// two tables with different policies are never content-equal.
func (t *Tables) EqualContent(o *Tables) bool {
	if t.numSwitches != o.numSwitches || t.policy != o.policy {
		return false
	}
	s := t.numSwitches
	for at := 0; at < s; at++ {
		for lca := 0; lca < s; lca++ {
			for k := 0; k < t.width; k++ {
				ra := t.rowAt(k, at, lca)
				rb := o.rowAt(k, at, lca)
				if !slices.Equal(t.arena[ra.off:ra.off+ra.n], o.arena[rb.off:rb.off+rb.n]) {
					return false
				}
			}
		}
	}
	return true
}
