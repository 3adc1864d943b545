package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// A hand-built tree:
//
//	1 request  [0,100]
//	├─ 2 http  [10,30]
//	│  └─ 5 decode [15,20]
//	├─ 3 trial [20,50]   overlaps 2 (parallel trials)
//	└─ 4 trial [90,120]  runs past its parent; only [90,100] counts
//	6 other root [200,210]
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "http", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "trial", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "trial", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "decode", Start: 15, End: 20},
		{ID: 6, Name: "other", Start: 200, End: 210},
	}
	want := map[int]int64{
		1: 100 - (40 + 10), // children cover [10,50] and [90,100]
		2: 20 - 5,
		3: 30,
		4: 30,
		5: 5,
		6: 10,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	tot := totalsByName(spans)
	if lt := tot["trial"]; lt.Count != 2 || lt.TotalNs != 60 || lt.SelfNs != 60 {
		t.Errorf("trial totals = %+v, want 2 spans, 60 ns total and self", lt)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0, 0); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	off.end(0)

	tr := newTracer()
	root := tr.begin("request", 0, 7)
	child := tr.begin("serve.http", root, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Req != 7 || spans[0].End < spans[1].End {
		t.Fatalf("recorded spans %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans", "run.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		back = append(back, s)
	}
	if len(back) != 2 || back[0] != spans[0] || back[1] != spans[1] {
		t.Errorf("spans read back %+v, wrote %+v", back, spans)
	}
}
