package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/updown"
)

// poolGoldenCase is one compiled system of TestTablePoolsGolden.
type poolGoldenCase struct {
	spec string
	seed uint64
	pol  Policy
	root updown.RootStrategy
}

// poolGoldenCases lists the systems whose pools the golden pins: the twelve
// systems of the serve-zoo benchmark catalog with their catalog policy
// (misroute and duato both compile the misroute tables) and root, the
// random families again under a second seed, two fat-trees whose switches
// have more than 32 live channels, and a long-diameter mesh.
var poolGoldenCases = []poolGoldenCase{
	{"lattice:1024", 1, PolicyBaseline, updown.RootMinID},
	{"gnm:1024+256", 1, PolicyMisroute, updown.RootMaxDegree},
	{"mesh:32x32", 1, PolicyMisroute, updown.RootMinID},
	{"torus:32x32", 1, PolicyBaseline, updown.RootMaxDegree},
	{"hypercube:10", 1, PolicyMisroute, updown.RootMinID},
	{"fattree:8x4", 1, PolicyMisroute, updown.RootMaxDegree},
	{"lattice:256", 1, PolicyMisroute, updown.RootCenter},
	{"gnm:128+48", 1, PolicyMisroute, updown.RootCenter},
	{"mesh:16x16", 1, PolicyBaseline, updown.RootCenter},
	{"torus:8x8", 1, PolicyMisroute, updown.RootMinID},
	{"hypercube:6", 1, PolicyBaseline, updown.RootCenter},
	{"fattree:4x4", 1, PolicyMisroute, updown.RootMaxDegree},
	{"lattice:1024", 7, PolicyBaseline, updown.RootMinID},
	{"gnm:1024+256", 7, PolicyMisroute, updown.RootMaxDegree},
	{"lattice:256", 7, PolicyMisroute, updown.RootCenter},
	{"gnm:128+48", 7, PolicyMisroute, updown.RootCenter},
	{"fattree:33x2", 1, PolicyMisroute, updown.RootMinID},
	{"fattree:17x3", 1, PolicyBaseline, updown.RootMaxDegree},
	{"mesh:2x512", 1, PolicyBaseline, updown.RootMinID},
}

// TestTablePoolsGolden pins the compiled tables byte for byte: per system a
// sha256 over every pool a built table holds (sw, colPages, pages, classes,
// arena) and its counters (rows, numPages, naiveArena), plus the MemStats
// JSON, compared with testdata/table_pools.golden. The twelve catalog
// systems are pinned a second time after Relabel under one failed link and a
// Recompile into the same table. Any change to the compiler that moves a
// pool, a row or a class number shows here.
func TestTablePoolsGolden(t *testing.T) {
	var got strings.Builder
	for i, c := range poolGoldenCases {
		sp, err := topology.ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		net, err := sp.Build(c.seed)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := updown.New(net, c.root)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s seed=%d %v %v", c.spec, c.seed, c.pol, c.root)
		tab := compileTables(lab, c.pol)
		writePoolLine(t, &got, name, tab)
		if i >= 12 { // only the catalog systems relabel
			continue
		}
		mask, ok := maskableLink(lab)
		if !ok {
			t.Fatalf("%s: no link can fail without disconnecting the switches", name)
		}
		if err := lab.Relabel(mask); err != nil {
			t.Fatal(err)
		}
		tab.Recompile(lab)
		ch := net.Chan(topology.ChannelID(mask.NextSet(0)))
		writePoolLine(t, &got, fmt.Sprintf("%s down=%d-%d", name, ch.Src, ch.Dst), tab)
	}
	want, err := os.ReadFile("testdata/table_pools.golden")
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("golden line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

// writePoolLine appends one golden line: the table's pool hash and its
// MemStats JSON.
func writePoolLine(t *testing.T, out *strings.Builder, name string, tab *Tables) {
	t.Helper()
	ms, err := json.Marshal(tab.MemStats())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(out, "%s sha256=%x memstats=%s\n", name, poolHash(tab), ms)
}

// poolHash hashes every pool of a built table, each section prefixed by its
// length so that no two layouts share an encoding.
func poolHash(tab *Tables) []byte {
	var b []byte
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u64(uint64(len(tab.sw)))
	for _, r := range tab.sw {
		u32(r.col)
		u32(r.base)
		b = append(b, r.bits)
	}
	u64(uint64(len(tab.colPages)))
	for _, v := range tab.colPages {
		u32(v)
	}
	u64(uint64(len(tab.pages)))
	for _, v := range tab.pages {
		u64(v)
	}
	u64(uint64(len(tab.classes)))
	for _, r := range tab.classes {
		u32(r.off)
		u32(r.n)
	}
	u64(uint64(len(tab.arena)))
	for _, v := range tab.arena {
		u32(v)
	}
	u64(uint64(tab.rows))
	u64(uint64(tab.numPages))
	u64(uint64(tab.naiveArena))
	sum := sha256.Sum256(b)
	return sum[:]
}
