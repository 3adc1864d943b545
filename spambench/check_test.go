package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The output check must accept the service's genuine replies and reject a
// corrupted one: the negative control for every "correct": true.
func TestOutputCheckRejectsCorruptedReply(t *testing.T) {
	env, err := startServeEnv(2)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	st, _ := newStream("serve-paper", 3)
	req := st.at(0)
	req.Run.Params.Messages = 60
	req.Run.WarmupMessages = 6
	req.Body, _ = json.Marshal(req.Run)
	status, body, err := env.post(req.Body)
	if err != nil || status != 200 {
		t.Fatalf("POST /run: %d %v %s", status, err, body)
	}
	refs, err := references([]request{req}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ok := outcome{req: req, status: status, body: body}

	var c checker
	c.checkOutcomes([]outcome{ok, ok}, refs)
	if c.failed != 0 {
		t.Fatalf("genuine replies failed the check: %v", c.problems)
	}

	var resp map[string]any
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	resp["mean_us"] = resp["mean_us"].(float64) * (1 + 1e-12)
	corrupt, _ := json.Marshal(resp)
	for name, bad := range map[string]outcome{
		"corrupted mean": {req: req, status: 200, body: corrupt},
		"HTTP 500":       {req: req, status: 500, body: []byte(`{"error":"boom"}`)},
		"truncated":      {req: req, status: 200, body: body[:len(body)/2]},
	} {
		var c checker
		c.checkOutcomes([]outcome{bad}, refs)
		if c.failed != 1 {
			t.Errorf("%s: check recorded %d failures, want 1", name, c.failed)
		}
	}

	// A repeat whose bytes differ only in elapsed_ms passes; any other byte
	// difference fails even when the decoded fields agree.
	again := outcome{req: req, status: 200, body: elapsedRE.ReplaceAll(body, []byte(`"elapsed_ms": 123.456`))}
	spaced := outcome{req: req, status: 200, body: bytes.Replace(body, []byte(`"count"`), []byte(`"count" `), 1)}
	c = checker{}
	c.checkOutcomes([]outcome{ok, again}, refs)
	if c.failed != 0 {
		t.Errorf("an elapsed_ms-only difference failed the check: %v", c.problems)
	}
	c = checker{}
	c.checkOutcomes([]outcome{ok, spaced}, refs)
	if c.failed != 1 {
		t.Errorf("differing bytes for the same request: %d failures, want 1", c.failed)
	}
}

// BENCHMARK.json must declare exactly the metrics this program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if strings.Join(bj.Command, " ") != "bash spambench/run.sh" || strings.Join(bj.Paths, ",") != "spambench" {
		t.Errorf("BENCHMARK.json runs %v over %v", bj.Command, bj.Paths)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "serve-paper,serve-zoo,campaign-paper" {
		t.Errorf("BENCHMARK.json workloads %s", got)
	}
}
