package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"sync"
	"sync/atomic"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// detFields are the deterministic fields of a /run response: everything the
// in-process reference computes, without wall-clock time.
type detFields struct {
	Scenario  string
	Topology  string
	Trials    int
	Seed      uint64
	Warmup    int
	Count     int64
	CISamples int64
	MeanUs    float64
	CI95Us    float64
	MinUs     float64
	MaxUs     float64
	P50Us     float64
	P90Us     float64
	P99Us     float64
	QErr      float64
	PoolSize  int
	Counters  sim.Counters
}

func detOf(r *serve.RunResponse) detFields {
	return detFields{
		Scenario: r.Scenario, Topology: r.Topology, Trials: r.Trials, Seed: r.Seed, Warmup: r.Warmup,
		Count: r.Count, CISamples: r.CISamples, MeanUs: r.MeanUs, CI95Us: r.CI95Us,
		MinUs: r.MinUs, MaxUs: r.MaxUs, P50Us: r.P50Us, P90Us: r.P90Us, P99Us: r.P99Us,
		QErr: r.QuantileErrBound, PoolSize: r.PoolSize, Counters: r.Counters,
	}
}

var elapsedRE = regexp.MustCompile(`"elapsed_ms":\s*[-+0-9.eE]+`)

// normalizeBody blanks the one non-deterministic field of a /run reply.
func normalizeBody(b []byte) []byte {
	return elapsedRE.ReplaceAll(b, []byte(`"elapsed_ms": 0`))
}

// checker collects output-check failures.
type checker struct {
	failed   int
	problems []string
}

const maxProblems = 8

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// checkReply checks one reply: HTTP 200, a decodable body, and deterministic
// fields equal to the reference. It returns false after recording a failure.
func (c *checker) checkReply(req request, status int, body []byte, err error, ref *serve.RunResponse) bool {
	switch {
	case err != nil:
		c.fail("request %d: transport error: %v", req.Pos, err)
		return false
	case status != http.StatusOK:
		c.fail("request %d: HTTP %d: %s", req.Pos, status, bytes.TrimSpace(body))
		return false
	case ref == nil:
		c.fail("request %d: no reference", req.Pos)
		return false
	}
	var got serve.RunResponse
	if err := decodeReply(body, &got); err != nil {
		c.fail("request %d: undecodable reply: %v", req.Pos, err)
		return false
	}
	if g, w := detOf(&got), detOf(ref); g != w {
		c.fail("request %d (%s): reply differs from the in-process reference:\n  got  %+v\n  want %+v", req.Pos, req.Body, g, w)
		return false
	}
	return true
}

// checkOutcomes checks every outcome against the references and checks that
// identical requests got identical bytes apart from elapsed_ms.
func (c *checker) checkOutcomes(outs []outcome, refs map[string]*serve.RunResponse) {
	first := map[string][]byte{}
	for _, o := range outs {
		if !c.checkReply(o.req, o.status, o.body, o.err, refs[string(o.req.Body)]) {
			continue
		}
		norm := normalizeBody(o.body)
		if prev, ok := first[string(o.req.Body)]; !ok {
			first[string(o.req.Body)] = norm
		} else if !bytes.Equal(prev, norm) {
			c.fail("request %d: reply bytes differ from an earlier reply to the same request", o.req.Pos)
		}
	}
}

// references replays each distinct request once in process, `workers` at a
// time on a fresh default system, and returns the responses keyed by
// request body. Each worker runs its trials in order on one warm runner.
func references(reqs []request, workers int) (map[string]*serve.RunResponse, error) {
	sys, err := newDefaultSystem()
	if err != nil {
		return nil, err
	}
	// Distinct requests never share a system (a system's seed is its
	// request's seed), so the reference keeps only as many as serve does.
	rp := newReplayer(sys, workers, altCacheSize)
	var distinct []request
	seen := map[string]bool{}
	for _, r := range reqs {
		if !seen[string(r.Body)] {
			seen[string(r.Body)] = true
			distinct = append(distinct, r)
		}
	}
	resps := make([]*serve.RunResponse, len(distinct))
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runner, err := rp.newDefaultRunner()
			if err != nil {
				errs[w] = err
				return
			}
			runners := []*workload.Runner{runner}
			for i := int(next.Add(1) - 1); i < len(distinct); i = int(next.Add(1) - 1) {
				resp, _, err := rp.replay(distinct[i].Run, runners, nil, 0, 0)
				if err != nil {
					errs[w] = fmt.Errorf("reference for request %d: %w", distinct[i].Pos, err)
					return
				}
				resps[i] = resp
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string]*serve.RunResponse, len(distinct))
	for i, r := range distinct {
		out[string(r.Body)] = resps[i]
	}
	return out, nil
}

func requestsOf(outs []outcome) []request {
	reqs := make([]request, len(outs))
	for i, o := range outs {
		reqs[i] = o.req
	}
	return reqs
}

// digestOutcomes hashes the normalized replies to stream positions [0, n)
// in order. It reports false when the run did not reach position n−1.
func digestOutcomes(outs []outcome, n int) (string, bool) {
	if len(outs) < n {
		return "", false
	}
	h := sha256.New()
	for _, o := range outs[:n] {
		h.Write(normalizeBody(o.body))
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

func decodeReply(body []byte, resp *serve.RunResponse) error { return json.Unmarshal(body, resp) }
