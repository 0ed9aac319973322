package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"realhf"
	"realhf/internal/serve"
)

// Header names that carry an op's trace context from the client to the
// server's handler, so the handler span nests under the client's call.
const (
	hdrOp     = "X-Perfbench-Op"
	hdrParent = "X-Perfbench-Parent"
)

// serveConns caps connections and load threads at the benchmark's nproc.
const serveConns = 2

// serveRig is an in-process plan server on a loopback listener and the
// typed client that talks to it.
type serveRig struct {
	server *serve.Server
	http   *http.Server
	client *serve.Client
	hc     *http.Client
	tr     *tracer
	done   chan error

	respBytes, responses atomic.Int64
}

type traceKey struct{}

// traceCtx is the trace context a request carries to the RoundTripper.
type traceCtx struct {
	op, parent int
}

// headerTransport stamps traced requests with their op and parent span.
type headerTransport struct{ inner http.RoundTripper }

func (h headerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if tc, ok := req.Context().Value(traceKey{}).(traceCtx); ok {
		req = req.Clone(req.Context())
		req.Header.Set(hdrOp, strconv.Itoa(tc.op))
		req.Header.Set(hdrParent, strconv.Itoa(tc.parent))
	}
	return h.inner.RoundTrip(req)
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// openServe starts a plan server over p. With tr set, the handler records a
// span for every request that carries a trace context.
func openServe(p *realhf.Planner, tr *tracer) (*serveRig, error) {
	srv, err := serve.New(serve.Config{Planner: p})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &serveRig{server: srv, tr: tr, done: make(chan error, 1)}
	handler := srv.Handler()
	r.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		handler.ServeHTTP(cw, req)
		r.respBytes.Add(cw.n)
		r.responses.Add(1)
		if op, err := strconv.Atoi(req.Header.Get(hdrOp)); err == nil {
			parent, _ := strconv.Atoi(req.Header.Get(hdrParent))
			r.tr.lookup(op).add(parent, "serve", "serve.Server.Handler", start, time.Now())
		}
	})}
	go func() { r.done <- r.http.Serve(ln) }()
	base := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	r.hc = &http.Client{Transport: headerTransport{inner: base}}
	r.client = serve.NewClient("http://"+ln.Addr().String(), serve.WithHTTPClient(r.hc))
	return r, nil
}

// close drains the plan server, stops the HTTP server and waits for it.
func (r *serveRig) close() error {
	ctx, cancel := context.WithTimeout(ctxBG, 30*time.Second)
	defer cancel()
	err := r.server.Shutdown(ctx)
	if herr := r.http.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-r.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	r.hc.CloseIdleConnections()
	return err
}

// loadResult is what one open-loop phase measured.
type loadResult struct {
	Sent      int
	Ops       []opSample    // successful requests, timed from their due time less generator lateness
	HitRTT    []float64     // send to answer, plan-cache hits
	MissRTT   []float64     // send to answer, solves and coalesced answers
	GenLateMS []float64     // the generator's own lateness past a request's due time
	Elapsed   time.Duration // from the first due time to the last answer
}

// respCheck validates one answer and returns a failure cause, or "".
type respCheck func(q serveRequest, resp *serve.PlanResponse) string

// openLoop sends reqs on a fixed schedule (rate per second, for window)
// from serveConns load threads and records every answer. Latency is timed
// from each request's due time, less the generator's own lateness, so a
// stall also charges the requests queued behind it. A thread that is free
// before a request is due sleeps until then; how late it wakes is the
// generator's lateness, recorded apart.
func (r *serveRig) openLoop(reqs []serveRequest, rate float64, window, limit time.Duration, tr *tracer, opBase int,
	out *outcome, check respCheck) *loadResult {
	res := &loadResult{}
	var mu sync.Mutex
	var next atomic.Int64
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				due := start.Add(time.Duration(i) * interval)
				if i >= len(reqs) || due.Sub(start) >= window {
					return
				}
				free := time.Now()
				if d := due.Sub(free); d > 0 {
					time.Sleep(d)
				}
				send := time.Now()
				// The generator's own lateness is how late it woke past the
				// moment the request could go out: its due time, or when a
				// connection came free if both were busy past it. Waiting for
				// a connection is the server's doing and stays in the latency;
				// the generator's lateness is reported on its own.
				ready := due
				if free.After(due) {
					ready = free
				}
				late := send.Sub(ready)
				q := reqs[i]
				ot := tr.startOp(opBase+i, due)
				ctx := ctxBG
				if ot != nil {
					if free.After(due) {
						ot.add(0, "serve", "serve.backlog", due, free)
					}
					ot.add(0, benchLayer, "bench.late", ready, send)
					ctx = context.WithValue(ctx, traceKey{}, traceCtx{op: opBase + i, parent: ot.begin("serve", "serve.Client.Do")})
				}
				resp, err := r.client.Do(ctx, &serve.PlanRequest{Config: q.Cfg, Calibration: q.Calib})
				doneAt := time.Now()
				if ot != nil {
					ot.end(ot.current())
					ot.finish(time.Now())
				}

				cause := ""
				if err != nil {
					cause = "request error: " + errorClass(err)
				} else {
					cause = check(q, resp)
				}
				mu.Lock()
				res.Sent++
				res.GenLateMS = append(res.GenLateMS, ms(late))
				if cause != "" {
					out.fail(cause)
				} else {
					lat := doneAt.Sub(due) - late
					res.Ops = append(res.Ops, opSample{at: doneAt.Sub(start), lat: ms(lat), good: lat <= limit})
					rtt := ms(doneAt.Sub(send))
					if resp.Cached {
						res.HitRTT = append(res.HitRTT, rtt)
					} else {
						res.MissRTT = append(res.MissRTT, rtt)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	out.Attempted += int64(res.Sent)
	return res
}

// errorClass names an error by the realhf or serve sentinel it wraps, so
// failure causes group instead of listing every message.
func errorClass(err error) string {
	var se *serve.ServerError
	if errors.As(err, &se) {
		return fmt.Sprintf("HTTP %d %s", se.StatusCode, se.Code)
	}
	for _, s := range []struct {
		err  error
		name string
	}{
		{realhf.ErrInfeasibleMemory, "infeasible memory"},
		{realhf.ErrInvalidConfig, "invalid config"},
		{realhf.ErrSolveCanceled, "solve canceled"},
		{realhf.ErrWorkerLost, "worker lost"},
		{context.DeadlineExceeded, "deadline exceeded"},
	} {
		if errors.Is(err, s.err) {
			return s.name
		}
	}
	return err.Error()
}

// reportServe sets the serve-layer metrics from one traced phase and the
// server's counters.
func reportServe(r *serveRig, res *loadResult, m metrics) {
	m.set("serve.hit_rtt_ms", median(res.HitRTT))
	m.set("serve.miss_rtt_ms", median(res.MissRTT))
	m.set("serve.gen_late_ms", quantile(res.GenLateMS, tailQuantile(len(res.GenLateMS), 0.99)))
	if n := r.responses.Load(); n > 0 {
		m.set("serve.response_bytes", float64(r.respBytes.Load())/float64(n))
	}
	st := r.server.Stats()
	m.set("serve.queue_high_water", float64(st.QueueHighWater))
	m.set("serve.coalesced", float64(st.Coalesced))
	rej := 0.0
	if st.Requests > 0 {
		rej = float64(st.Rejected) / float64(st.Requests)
	}
	m.set("serve.rejected_frac", rej)
}

// serveProbe answers workloads that do not serve: it puts a plan server in
// front of the workload's Planner and replays the workload's configs
// through it twice (the second pass hits the plan cache), plus a few
// novel configs that solve.
func serveProbe(p *realhf.Planner, pl []payload, seed int64, out *outcome, m metrics) error {
	rig, err := openServe(p, nil)
	if err != nil {
		return err
	}
	var reqs []serveRequest
	for pass := 0; pass < 2; pass++ {
		for i, q := range pl {
			reqs = append(reqs, serveRequest{Kind: kindPopular, Index: i, Cfg: q.Exp.Config})
		}
	}
	for i, q := range coldStream(seed^0x9e1d, 3, popularGrid) {
		cfg := q.Cfg
		cfg.Seed += 9_000_000 + int64(i)
		reqs = append(reqs, serveRequest{Kind: kindNovel, Index: -1, Cfg: cfg})
	}
	probeOut := newOutcome()
	res := rig.openLoop(reqs, 50, time.Duration(len(reqs))*20*time.Millisecond+time.Millisecond, time.Minute, nil, 0, probeOut,
		func(q serveRequest, resp *serve.PlanResponse) string {
			if q.Kind == kindPopular && resp.Fingerprint != pl[q.Index].Exp.Plan.Fingerprint() {
				return "serve probe: served plan differs from the workload's"
			}
			return ""
		})
	reportServe(rig, res, m)
	for _, cause := range sortedKeys(probeOut.Failures) {
		out.Invalid = append(out.Invalid, fmt.Sprintf("serve probe: %s x%d", cause, probeOut.Failures[cause]))
	}
	return rig.close()
}
