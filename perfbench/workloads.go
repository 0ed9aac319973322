package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"realhf"
	"realhf/internal/serve"
)

// Traced runs split the measurement time: an untraced half, then a traced
// half over the same session. The difference of their median op times is
// the tracing overhead.

// retainOps is how many traced ops keep their spans for the Chrome trace.
const retainOps = 40

// minCoverage is the share of traced op wall time the layer spans must
// cover on each workload. What is left is the benchmark's own time: on
// serve-mixed, the load generator's wake-up lateness.
var minCoverage = map[string]float64{
	"cold-solve":       0.99,
	"serve-mixed":      0.50,
	"trainer-campaign": 0.95,
}

// opSample is one successful op: its index in the input stream, when it
// finished (since the phase started), how long it took, and whether it
// counts toward ops_per_s (on serve-mixed, only answers within the latency
// limit do).
type opSample struct {
	i    int
	at   time.Duration
	lat  float64 // ms
	good bool
}

func latencies(ops []opSample) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.lat
	}
	return out
}

// window is one stretch of a run: its successful ops and its length.
type window struct {
	ops []opSample
	dur time.Duration
}

// splitWindows cuts ops into n windows of equal length by completion time.
func splitWindows(ops []opSample, elapsed time.Duration, n int) []window {
	ws := make([]window, n)
	per := elapsed / time.Duration(n)
	for i := range ws {
		ws[i].dur = per
	}
	for _, o := range ops {
		k := min(n-1, int(o.at/per))
		ws[k].ops = append(ws[k].ops, o)
	}
	return ws
}

// reportOps sets op_p50_ms and ops_per_s and notes the tail percentiles. With fasterHalf,
// they come from the faster half of the windows, ranked by median op time:
// the benchmark machine is shared, other tenants slow whole stretches of a
// run by up to threefold, and a change to the program moves every window
// of a closed loop alike. An open loop's windows differ in how many cold
// solves they drew, so ranking them would keep the ones with fewest; it
// uses every window. The percentiles are taken over the kept windows' ops
// together; each tail is the highest that keeps ten samples beyond it.
func reportOps(out *outcome, ws []window, fasterHalf bool) {
	kept := ws
	if fasterHalf {
		sort.SliceStable(ws, func(i, j int) bool { return median(latencies(ws[i].ops)) < median(latencies(ws[j].ops)) })
		kept = ws[:(len(ws)+1)/2]
	}
	var ops []opSample
	var dur time.Duration
	good := 0
	for _, w := range kept {
		ops = append(ops, w.ops...)
		dur += w.dur
		for _, o := range w.ops {
			if o.good {
				good++
			}
		}
	}
	lat := latencies(ops)
	q90, q99 := tailQuantile(len(lat), 0.9), tailQuantile(len(lat), 0.99)
	m := out.Metrics
	m.set("op_p50_ms", median(lat))
	m.set("ops_per_s", float64(good)/dur.Seconds())
	out.notef("op times: %d samples in %d of %d windows; p%.4g %.4f ms, p%.4g %.4f ms (each with ten samples beyond it; not gated)",
		len(lat), len(kept), len(ws), 100*q90, quantile(lat, q90), 100*q99, quantile(lat, q99))
}

// windowsFor is how many equal windows to cut n samples into so that the
// faster half of them still holds 1000 samples: at most eight, at least
// two.
func windowsFor(n int) int { return max(2, min(8, n/500)) }

// reportTrace sets the trace.* metrics and writes the Chrome trace.
func reportTrace(opt options, out *outcome, tr *tracer, baseOps, tracedOps []opSample) error {
	base, traced := latencies(baseOps), latencies(tracedOps)
	s := tr.summary()
	out.Trace = &s
	m := out.Metrics
	m.set("trace.coverage_frac", s.Coverage)
	m.set("trace.overhead_ms", median(traced)-median(base))
	m.set("trace.spans_per_op", s.SpansPerOp)
	for _, layer := range tracedLayers {
		m.set("trace.self_frac."+layer, s.selfFrac(layer))
	}
	if err := checkNesting(s.KeptSpans); err != nil {
		out.Invalid = append(out.Invalid, "trace spans do not nest: "+err.Error())
	}
	if s.Coverage < minCoverage[opt.Workload] {
		out.Invalid = append(out.Invalid, fmt.Sprintf("layer spans cover %.3f of op time, below the stated %.2f", s.Coverage, minCoverage[opt.Workload]))
	}
	path := filepath.Join(opt.Dir, "trace.json")
	if err := writeChrome(path, s.KeptSpans); err != nil {
		return err
	}
	out.notef("tracing overhead %.4f ms/op (traced median %.4f ms, untraced %.4f ms); Chrome trace of %d ops in %s",
		median(traced)-median(base), median(traced), median(base), min(s.Ops, retainOps), path)
	return nil
}

// layerProbes runs the estimator, realloc, runtime and codec probes on a
// workload's payloads. rf carries runtime figures the workload measured
// itself; the probe fills in the rest.
func layerProbes(pl []payload, rf *runtimeFigures, m metrics) error {
	if err := probeEstimator(pl, m); err != nil {
		return err
	}
	probeRealloc(pl, m)
	var probe runtimeFigures
	if err := probeRuntime(pl, &probe); err != nil {
		return err
	}
	if rf != nil {
		probe.sends, probe.sendUS, probe.estErr = rf.sends, rf.sendUS, rf.estErr
	}
	probe.report(m)
	return probeCodec(pl, m)
}

// plannerHitFrac is the Planner's plan-cache hit share.
func plannerHitFrac(p *realhf.Planner) float64 {
	st := p.Stats()
	if st.PlanRequests == 0 {
		return 0
	}
	return float64(st.PlanCacheHits) / float64(st.PlanRequests)
}

// timeSetups runs setup reps times, timing each, and reports the median.
// setup returns a closer for the session it built; every session but the
// last is closed between repetitions, outside the timing, and the garbage
// collector runs before each repetition and before the timed ops, so each
// starts from the same heap. The caller owns the last session.
func timeSetups(reps int, out *outcome, setup func() (func() error, error)) error {
	times := make([]float64, reps)
	var closePrev func() error
	for i := range times {
		if closePrev != nil {
			if err := closePrev(); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
		goruntime.GC()
		t0 := time.Now()
		c, err := setup()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times[i] = time.Since(t0).Seconds()
		closePrev = c
	}
	goruntime.GC()
	out.Metrics.set("setup_s", median(times))
	out.notef("setup %d times: median %.4fs", reps, median(times))
	return nil
}

// ---- cold-solve ----

// smallColdGrid is the smoke test's cold-solve grid.
var smallColdGrid = []coldStratum{{"ppo", "7b", 1, ""}, {"dpo", "7b", 1, "offload"}, {"grpo", "7b", 1, "overlap"}}

// warmCosters builds the Planner's per-model costers for every cluster
// shape and architecture the grid plans on, by pricing a tiny heuristic
// plan for each.
func warmCosters(p *realhf.Planner, grid []coldStratum) error {
	seen := map[string]bool{}
	for _, s := range grid {
		key := fmt.Sprint(s.nodes, s.actor)
		if seen[key] {
			continue
		}
		seen[key] = true
		cfg := realhf.ExperimentConfig{Nodes: s.nodes, BatchSize: 8 * s.nodes, PromptLen: 64, GenLen: 64,
			RPCs: mustRPCs("ppo", s.actor)}
		if _, err := p.Heuristic(cfg); err != nil {
			return err
		}
	}
	return nil
}

// coldRun is the state of one cold-solve run.
type coldRun struct {
	p     *realhf.Planner
	reqs  []coldRequest
	next  int
	first []payload // the first cycle's ops, for the speedup and probes
	iters []float64 // the first cycle's modelled iteration times
	last  []payload // the most recent ops, still in the plan cache
	agg   searchAgg // traced ops' search figures
	out   *outcome
	cycle int
}

// phase runs cold-solve ops until d has passed, then finishes the current
// cycle of the grid, so every phase plans each stratum equally often. It
// returns the ops that succeeded.
func (c *coldRun) phase(d time.Duration, tr *tracer) []opSample {
	var ops []opSample
	start := time.Now()
	deadline := start.Add(d)
	for c.next < len(c.reqs) && (time.Now().Before(deadline) || c.next%c.cycle != 0) {
		i := c.next
		c.next++
		q := c.reqs[i]
		opts := q.opts()
		var rec progressRecorder
		if tr != nil {
			opts = append(opts, rec.option())
		}
		t0 := time.Now()
		ot := tr.startOp(i, t0)
		pid := ot.begin("realhf", "realhf.Planner.Plan")
		exp, err := c.p.Plan(ctxBG, q.Cfg, opts...)
		planWall := time.Since(t0)
		rec.spans(ot, pid)
		ot.end(pid)
		var rep *realhf.RunReport
		if err == nil {
			rid := ot.begin("runtime", "realhf.Experiment.Run")
			rep, err = exp.Run()
			ot.end(rid)
		}
		t1 := time.Now()
		ot.finish(t1)

		c.out.Attempted++
		if cause := checkSolve(exp, rep, err); cause != "" {
			c.out.fail(cause)
			continue
		}
		ops = append(ops, opSample{i: i, at: t1.Sub(start), lat: ms(t1.Sub(t0)), good: true})
		if tr != nil {
			c.agg.add(exp, &rec, planWall)
		}
		pl := payload{Cfg: q.Cfg, Opts: q.opts(), Exp: exp}
		if i < c.cycle {
			c.first = append(c.first, pl)
			c.iters = append(c.iters, rep.IterationTime)
		}
		c.last = append(c.last, pl)
		if len(c.last) > c.cycle {
			c.last = c.last[1:]
		}
	}
	return ops
}

// cycles groups ops into windows of one grid cycle each. A window's length
// runs from the previous cycle's last completion to its own.
func (c *coldRun) cycles(ops []opSample) []window {
	var ws []window
	var prev time.Duration
	for _, o := range ops {
		k := o.i / c.cycle
		for len(ws) <= k {
			ws = append(ws, window{})
		}
		ws[k].ops = append(ws[k].ops, o)
	}
	for k := range ws {
		if n := len(ws[k].ops); n > 0 {
			end := ws[k].ops[n-1].at
			ws[k].dur = end - prev
			prev = end
		}
	}
	return ws
}

// checkSolve returns a failure cause for one solve-and-run op, or "".
func checkSolve(exp *realhf.Experiment, rep *realhf.RunReport, err error) string {
	switch {
	case err != nil:
		return "plan or run error: " + errorClass(err)
	case exp.Cached:
		return "a distinct config was answered from the plan cache"
	case exp.Plan.Validate() != nil:
		return "plan fails Plan.Validate: " + exp.Plan.Validate().Error()
	case exp.Estimate.OOM || exp.FeasibleMemory() != nil:
		return "searched plan exceeds device memory"
	case rep.OOM:
		return "plan ran out of memory in the runtime"
	case !(rep.IterationTime > 0) || math.IsInf(rep.IterationTime, 0):
		return "non-positive iteration time"
	}
	return ""
}

// planDigest hashes the payloads' plan fingerprints in op order.
func planDigest(pl []payload) string {
	h := sha256.New()
	for _, q := range pl {
		fmt.Fprintln(h, q.Exp.Plan.Fingerprint())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func runColdSolve(opt options, out *outcome) error {
	grid, reps := coldGrid, 9
	if opt.Small {
		grid, reps = smallColdGrid, 1
	}
	c := &coldRun{reqs: coldStream(opt.Seed, 5000, grid), out: out, cycle: len(grid)}
	if err := timeSetups(reps, out, func() (func() error, error) {
		c.p = realhf.NewPlanner(realhf.ClusterConfig{})
		return func() error { return nil }, warmCosters(c.p, grid)
	}); err != nil {
		return err
	}

	var ops, base []opSample
	var tr *tracer
	var alloc uint64
	start := time.Now()
	if opt.Trace {
		a0 := totalAlloc()
		n0 := c.next
		base = c.phase(secs(opt.Seconds/2), nil)
		alloc = (totalAlloc() - a0) / uint64(max(1, c.next-n0))
		tr = newTracer(retainOps)
		ops = c.phase(secs(opt.Seconds/2), tr)
	} else {
		ops = c.phase(secs(opt.Seconds), nil)
	}
	elapsed := time.Since(start)
	rss := peakRSSMB() // the workload's own peak, before the checks below
	out.notef("cold-solve: %d ops in %.2fs; plan digest of the first cycle %s", c.next, elapsed.Seconds(), planDigest(c.first))

	// Determinism: the first configs re-solved on a fresh Planner must
	// reproduce the run's plans.
	fresh := realhf.NewPlanner(realhf.ClusterConfig{})
	for _, q := range c.first[:min(3, len(c.first))] {
		exp, err := fresh.Plan(ctxBG, q.Cfg, q.Opts...)
		if err != nil || exp.Plan.Fingerprint() != q.Exp.Plan.Fingerprint() {
			out.Invalid = append(out.Invalid, "a re-solved config did not reproduce its plan")
			break
		}
	}
	if err := withHeuristics(c.first); err != nil {
		return err
	}

	if !opt.Trace {
		// A window is one cycle of the grid, so every window plans the
		// same mix.
		reportOps(out, c.cycles(ops), true)
		out.Metrics.set("plan_speedup_vs_heuristic", geomean(speedups(c.first)))
		var total float64
		for _, t := range c.iters {
			total += t
		}
		out.Metrics.set("campaign_makespan_s", total)
		out.Metrics.set("peak_rss_mb", rss)
		return nil
	}

	m := out.Metrics
	m.set("realhf.alloc_kb_per_op", float64(alloc)/1024)
	c.agg.report(m)
	m.set("realhf.plan_cache_hit_frac", plannerHitFrac(c.p))
	probePlanHit(c.p, c.last, m)
	if err := layerProbes(c.first, nil, m); err != nil {
		return err
	}
	if err := trainerProbe(opt.Seed, opt.Dir, m); err != nil {
		return err
	}
	if err := serveProbe(c.p, c.last[max(0, len(c.last)-8):], opt.Seed, out, m); err != nil {
		return err
	}
	return reportTrace(opt, out, tr, base, ops)
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ---- serve-mixed ----

// serveRate is the serve-mixed request rate and serveLimit the latency an
// answer must meet to count in ops_per_s. With serveMixDefault about 1% of
// requests solve, under a tenth of a core, and the admission queue never
// rejects. With more solves, hits slowed by solves running beside them
// decided the 90th-percentile latency, which then spread by 0.3 to 0.7 of
// its median from run to run.
const (
	serveRate  = 100.0
	serveLimit = 2 * time.Second
)

var serveMixDefault = serveMix{Popular: 80, ZipfS: 2.2, NovelFrac: 0.005, TenantFrac: 0.02, TenantSet: 4}

// serveWarm is what setup recorded: every popular and tenant plan.
type serveWarm struct {
	popular []payload
	tenant  map[int]string // popular index -> calibrated plan fingerprint
}

// warmServe solves the popular set and the tenant's calibrated configs on
// p, from serveConns threads, least popular first so the most popular end
// up most recently used in the plan cache.
func warmServe(p *realhf.Planner, popular []coldRequest, tenant []int) (*serveWarm, error) {
	w := &serveWarm{popular: make([]payload, len(popular)), tenant: map[int]string{}}
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for t := 0; t < serveConns; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(popular) {
					return
				}
				i := len(popular) - 1 - k
				exp, err := p.Plan(ctxBG, popular[i].Cfg)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				w.popular[i] = payload{Cfg: popular[i].Cfg, Exp: exp}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	for _, i := range tenant {
		exp, err := p.Plan(ctxBG, popular[i].Cfg, realhf.WithCalibrationFactors(tenantCalibration))
		if err != nil {
			return nil, err
		}
		w.tenant[i] = exp.Plan.Fingerprint()
	}
	return w, nil
}

func runServeMixed(opt options, out *outcome) error {
	mix, rate, reps := serveMixDefault, serveRate, 3
	if opt.Small {
		mix, rate, reps = serveMix{Popular: 8, ZipfS: 1.0, NovelFrac: 0.1, TenantFrac: 0.1, TenantSet: 2}, 40, 1
	}
	popular := popularSet(opt.Seed, mix.Popular)
	tenant := tenantIndices(popular, mix.TenantSet)
	reqs := serveStream(opt.Seed, int(rate*opt.Seconds)+1, mix, popular)
	var tr *tracer
	if opt.Trace {
		tr = newTracer(retainOps)
	}

	var p *realhf.Planner
	var rig *serveRig
	var warm *serveWarm
	if err := timeSetups(reps, out, func() (func() error, error) {
		p = realhf.NewPlanner(realhf.ClusterConfig{})
		var err error
		if rig, err = openServe(p, tr); err != nil {
			return nil, err
		}
		warm, err = warmServe(p, popular, tenant)
		return rig.close, err
	}); err != nil {
		return err
	}

	var mu sync.Mutex
	var novel []*serve.PlanResponse
	check := func(q serveRequest, resp *serve.PlanResponse) string {
		switch q.Kind {
		case kindPopular:
			if resp.Fingerprint != warm.popular[q.Index].Exp.Plan.Fingerprint() {
				return "popular answer differs from its warm-up plan"
			}
		case kindTenant:
			if resp.Fingerprint != warm.tenant[q.Index] {
				return "tenant answer differs from its warm-up plan"
			}
		case kindNovel:
			mu.Lock()
			novel = append(novel, resp)
			mu.Unlock()
		}
		return ""
	}

	window := secs(opt.Seconds)
	var res, base *loadResult
	var alloc uint64
	if opt.Trace {
		half := len(reqs) / 2
		a0 := totalAlloc()
		base = rig.openLoop(reqs[:half], rate, window/2, serveLimit, nil, 0, out, check)
		alloc = (totalAlloc() - a0) / uint64(max(1, base.Sent))
		res = rig.openLoop(reqs[half:], rate, window/2, serveLimit, tr, half, out, check)
	} else {
		res = rig.openLoop(reqs, rate, window, serveLimit, nil, 0, out, check)
	}
	rss := peakRSSMB() // the workload's own peak, before the checks below
	out.notef("serve-mixed: %d requests at %.0f/s; %d hits, %d solved or coalesced", res.Sent, rate, len(res.HitRTT), len(res.MissRTT))

	// Every novel answer must rebuild into a valid plan that runs.
	local := realhf.NewPlanner(realhf.ClusterConfig{})
	for _, resp := range novel {
		exp, err := resp.Experiment(local)
		var rep *realhf.RunReport
		if err == nil {
			rep, err = exp.Run()
		}
		if cause := checkSolve(exp, rep, err); cause != "" {
			out.fail("novel answer: " + cause)
		}
	}
	q := tailQuantile(len(res.GenLateMS), 0.99)
	late := quantile(res.GenLateMS, q)
	out.notef("generator lateness p%.4g %.3f ms", 100*q, late)
	if late > 20 {
		out.Invalid = append(out.Invalid, fmt.Sprintf("the load generator fell behind its schedule (p%.4g lateness %.1f ms)", 100*q, late))
	}

	if !opt.Trace {
		reportOps(out, splitWindows(res.Ops, res.Elapsed, 1), false)
		if err := withHeuristics(warm.popular); err != nil {
			return err
		}
		out.Metrics.set("plan_speedup_vs_heuristic", geomean(speedups(warm.popular)))
		var total float64
		for _, q := range warm.popular {
			total += q.Exp.Estimate.TimeCost
		}
		out.Metrics.set("campaign_makespan_s", total)
		out.Metrics.set("peak_rss_mb", rss)
		return rig.close()
	}

	m := out.Metrics
	reportServe(rig, res, m)
	m.set("realhf.plan_cache_hit_frac", plannerHitFrac(p))
	probePlanHit(p, warm.popular[:min(16, len(warm.popular))], m)
	if err := rig.close(); err != nil {
		return err
	}
	var solved []payload
	for _, q := range reqs {
		if q.Kind == kindNovel && len(solved) < 6 {
			solved = append(solved, payload{Cfg: q.Cfg})
		}
	}
	agg, _, err := searchProbe(solved)
	if err != nil {
		return err
	}
	agg.report(m)
	probed := warm.popular[:min(12, len(warm.popular))]
	if err := withHeuristics(probed); err != nil {
		return err
	}
	if err := layerProbes(probed, nil, m); err != nil {
		return err
	}
	if err := trainerProbe(opt.Seed, opt.Dir, m); err != nil {
		return err
	}
	m.set("realhf.alloc_kb_per_op", float64(alloc)/1024)
	return reportTrace(opt, out, tr, base.Ops, res.Ops)
}

// ---- trainer-campaign ----

// campaignIters is the fixed campaign prefix campaign_makespan_s and the
// speedup are measured over: four passes of the generation-length
// schedule, so every seed weighs each length equally.
const campaignIters = 64

// trainerRun is the state of one trainer-campaign run.
type trainerRun struct {
	s    *trainerSession
	reps []*realhf.IterationReport // the first campaignIters iterations
	agg  stepAgg
	n    int
	out  *outcome
	want int
	err  error
}

// phase runs Step+checkpoint ops until d has passed and the fixed campaign
// prefix is done. A failed op ends the run: the session cannot go on.
func (t *trainerRun) phase(d time.Duration, tr *tracer) []opSample {
	var ops []opSample
	start := time.Now()
	deadline := start.Add(d)
	for t.err == nil && (time.Now().Before(deadline) || len(t.reps) < t.want) {
		t0 := time.Now()
		ot := tr.startOp(t.n, t0)
		r, err := t.s.op(ot)
		t1 := time.Now()
		ot.finish(t1)
		t.n++
		t.out.Attempted++
		if err != nil {
			t.out.fail("trainer op: " + errorClass(err))
			t.err = err
			break
		}
		if cause := t.s.checkIteration(r.Rep); cause != "" {
			t.out.fail(cause)
			continue
		}
		ops = append(ops, opSample{at: t1.Sub(start), lat: ms(t1.Sub(t0)), good: true})
		if tr != nil {
			t.agg.add(r)
		}
		if len(t.reps) < t.want {
			t.reps = append(t.reps, r.Rep)
		}
	}
	return ops
}

// campaignTotal is the modelled virtual time of reps, switch costs
// included.
func campaignTotal(reps []*realhf.IterationReport) float64 {
	var total float64
	for _, r := range reps {
		total += r.MakespanV + r.ReallocSwitchCost
	}
	return total
}

// replayCampaign runs the first n iterations of in again on a fresh session
// over in-process workers and returns their modelled total.
func replayCampaign(in trainerInput, n int, dir string) (float64, error) {
	s, err := openTrainer(in, false, dir)
	if err != nil {
		return 0, err
	}
	defer s.close()
	var reps []*realhf.IterationReport
	for i := 0; i < n; i++ {
		rep, err := s.tr.Step(ctxBG)
		if err != nil {
			return 0, err
		}
		reps = append(reps, rep)
	}
	return campaignTotal(reps), nil
}

// genLenPayloads are the campaign's distinct configs, one per generation
// length, planned as the Trainer plans them.
func genLenPayloads(in trainerInput) []payload {
	var pl []payload
	for _, g := range in.Schedule {
		cfg := in.Cfg
		cfg.GenLen = g
		cfg.PlanForOverlap = true
		pl = append(pl, payload{Cfg: cfg})
	}
	return pl
}

func runTrainerCampaign(opt options, out *outcome) error {
	in, reps, want := trainerStream(opt.Seed), 3, campaignIters
	if opt.Small {
		in.Period, reps, want = 2, 1, 16
	}
	t := &trainerRun{out: out, want: want}
	if err := timeSetups(reps, out, func() (func() error, error) {
		var err error
		t.s, err = openTrainer(in, true, opt.Dir)
		if err != nil {
			return nil, err
		}
		return t.s.close, nil
	}); err != nil {
		return err
	}
	defer t.s.close()

	var ops, base []opSample
	var tr *tracer
	var alloc uint64
	start := time.Now()
	if opt.Trace {
		a0 := totalAlloc()
		n0 := t.n
		base = t.phase(secs(opt.Seconds/2), nil)
		alloc = (totalAlloc() - a0) / uint64(max(1, t.n-n0))
		tr = newTracer(retainOps)
		ops = t.phase(secs(opt.Seconds/2), tr)
	} else {
		ops = t.phase(secs(opt.Seconds), nil)
	}
	elapsed := time.Since(start)
	rss := peakRSSMB() // the workload's own peak, before the checks below
	if t.err != nil {
		return t.err
	}
	total := campaignTotal(t.reps)
	st := t.s.tr.Stats()
	out.notef("trainer-campaign: %d iterations in %.2fs, %d replans, %d switches; first %d iterations %.6fs modelled",
		st.Iterations, elapsed.Seconds(), st.Replans, st.Switches, len(t.reps), total)

	// Determinism: the campaign prefix replays to the same modelled total.
	replay, err := replayCampaign(in, len(t.reps), opt.Dir)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if replay != total {
		out.Invalid = append(out.Invalid, fmt.Sprintf("campaign replay modelled %.9fs, the run %.9fs", replay, total))
	}
	// Restore: the last checkpoint resumes at the same iteration and plan.
	resumed, err := realhf.NewPlanner(realhf.ClusterConfig{}).ResumeTrainFile(ctxBG, t.s.ckpt, in.Cfg,
		realhf.WithGenLenSchedule(in.genLen), realhf.WithTrainRunOptions(trainerRunOptions()))
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	rst := resumed.Stats()
	if err := resumed.Close(); err != nil {
		return err
	}
	if rst.Iterations != st.Iterations || rst.PlanFingerprint != st.PlanFingerprint {
		out.Invalid = append(out.Invalid, "the last checkpoint did not restore the session")
	}

	if !opt.Trace {
		reportOps(out, splitWindows(ops, elapsed, windowsFor(len(ops))), true)
		out.Metrics.set("campaign_makespan_s", total)
		sp, err := trainerSpeedups(in, t.reps)
		if err != nil {
			return err
		}
		out.Metrics.set("plan_speedup_vs_heuristic", geomean(sp))
		out.Metrics.set("peak_rss_mb", rss)
		return nil
	}

	m := out.Metrics
	m.set("realhf.alloc_kb_per_op", float64(alloc)/1024)
	t.agg.report(m)
	if err := probeCheckpoint(t.s, m); err != nil {
		return err
	}
	m.set("realhf.plan_cache_hit_frac", plannerHitFrac(t.s.planner))
	agg, pl, err := searchProbe(genLenPayloads(in))
	if err != nil {
		return err
	}
	agg.report(m)
	probePlanHit(t.s.planner, pl, m)
	if err := withHeuristics(pl); err != nil {
		return err
	}
	if err := layerProbes(pl, &t.agg.runtime, m); err != nil {
		return err
	}
	if err := serveProbe(t.s.planner, pl, opt.Seed, out, m); err != nil {
		return err
	}
	return reportTrace(opt, out, tr, base, ops)
}

// trainerSpeedups compares, per generation length, the heuristic plan's
// modelled iteration time on the campaign's cluster with the campaign's
// last iteration at that length.
func trainerSpeedups(in trainerInput, reps []*realhf.IterationReport) ([]float64, error) {
	last := map[int]float64{}
	for _, r := range reps {
		last[r.GenLen] = r.MakespanV
	}
	h := realhf.NewPlanner(realhf.ClusterConfig{})
	var out []float64
	for _, q := range genLenPayloads(in) {
		searched, ok := last[q.Cfg.GenLen]
		if !ok {
			continue
		}
		heur, err := h.Heuristic(q.Cfg)
		if err != nil {
			return nil, err
		}
		rep, err := heur.RunWith(trainerRunOptions())
		if err != nil {
			return nil, err
		}
		out = append(out, rep.IterationTime/searched)
	}
	return out, nil
}
