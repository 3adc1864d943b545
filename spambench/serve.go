package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	spamnet "repro"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// newDefaultSystem builds the system spamserve serves by default:
// lattice:128, seed 1998, min-id root, baseline routing, 128-flit worms,
// 1-flit input buffers, one-hour simulated-time horizon.
func newDefaultSystem() (*spamnet.System, error) {
	params := spamnet.PaperParams()
	params.MessageFlits = 128
	return spamnet.NewLattice(128,
		spamnet.WithSeed(1998),
		spamnet.WithRootStrategy(spamnet.RootMinID),
		spamnet.WithRoutingPolicy(spamnet.PolicyBaseline),
		spamnet.WithInputBufferFlits(1),
		spamnet.WithLatencyParams(params),
		spamnet.WithMaxSimTime(time.Hour),
	)
}

// newService configures a service like spamserve's defaults: the given pool,
// default clamps, telemetry on, and info-level structured logs written to a
// discarding sink (formatted, then dropped).
func newService(sys *spamnet.System, pool int) (*serve.Service, error) {
	return serve.New(serve.Config{
		System:      sys,
		PoolSize:    pool,
		MaxTrials:   64,
		MaxMessages: 20000,
		Metrics:     telemetry.NewRegistry(),
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
}

// serveEnv is one service behind a loopback HTTP listener, with a client
// limited to pool connections.
type serveEnv struct {
	sys    *spamnet.System
	svc    *serve.Service
	srv    *http.Server
	url    string
	client *http.Client
	served chan error
}

func startServeEnv(pool int) (*serveEnv, error) {
	sys, err := newDefaultSystem()
	if err != nil {
		return nil, fmt.Errorf("building the default system: %w", err)
	}
	svc, err := newService(sys, pool)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	e := &serveEnv{
		sys:    sys,
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		url:    "http://" + ln.Addr().String() + "/run",
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     pool,
			MaxIdleConnsPerHost: pool,
			DisableCompression:  true,
		}},
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

// close stops the listener, waits for the server goroutine, then drains
// and stops the service's pool.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // a failed graceful shutdown still closes the listener
	<-e.served
	e.client.CloseIdleConnections()
	e.svc.Close()
}

// post sends one POST /run and reads the whole reply.
func (e *serveEnv) post(body []byte) (int, []byte, error) {
	resp, err := e.client.Post(e.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// warmUp sends one untimed default-system request per pool worker, all at
// once, so every pooled simulator and client connection is warm.
func (e *serveEnv) warmUp(seed uint64, pool int) error {
	errs := make([]error, pool)
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			status, body, err := e.post(warmupRequest(seed, w).Body)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("warm-up request: HTTP %d: %s", status, body)
			}
			errs[w] = err
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// outcome is one completed request of a closed loop.
type outcome struct {
	req        request
	start, end time.Duration // since the loop started
	status     int
	body       []byte
	err        error
}

func (o outcome) latencyMs() float64 { return float64(o.end-o.start) / 1e6 }

// closedLoop runs `clients` closed-loop clients over the stream from
// position 0 until dur has elapsed: each client takes the next position,
// sends it and waits for the reply before it takes another. Requests whose
// position traced selects are recorded as spans on tr. Outcomes come back in
// stream order; positions are contiguous because every taken position
// completes.
func (e *serveEnv) closedLoop(st *stream, clients int, dur time.Duration, tr *tracer, traced func(pos int) bool) []outcome {
	var next atomic.Int64
	per := make([][]outcome, clients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(t0) < dur {
				pos := int(next.Add(1) - 1)
				req := st.at(pos)
				var root, hid int
				if tr != nil && traced(pos) {
					root = tr.begin("request", 0, pos)
					hid = tr.begin("serve.http", root, pos)
				}
				start := time.Since(t0)
				status, body, err := e.post(req.Body)
				end := time.Since(t0)
				tr.end(hid)
				tr.end(root)
				per[c] = append(per[c], outcome{req: req, start: start, end: end, status: status, body: body, err: err})
			}
		}(c)
	}
	wg.Wait()
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].req.Pos < outs[j].req.Pos })
	return outs
}

// loopStats are the end-to-end figures of one closed loop.
type loopStats struct {
	latMs     []float64 // per request
	passS     []float64 // wall-clock of each complete pass
	wallS     float64
	completed int
}

func summarizeLoop(outs []outcome, passLen int) loopStats {
	var ls loopStats
	var wall time.Duration
	for _, o := range outs {
		ls.latMs = append(ls.latMs, o.latencyMs())
		wall = max(wall, o.end)
	}
	ls.wallS = wall.Seconds()
	ls.completed = len(outs)
	for p := 0; (p+1)*passLen <= len(outs); p++ {
		lo, hi := outs[p*passLen].start, time.Duration(0)
		for _, o := range outs[p*passLen : (p+1)*passLen] {
			lo, hi = min(lo, o.start), max(hi, o.end)
		}
		ls.passS = append(ls.passS, (hi - lo).Seconds())
	}
	return ls
}
