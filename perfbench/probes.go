package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"realhf"
	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/gpumodel"
	"realhf/internal/realloc"
	"realhf/internal/runtime"
	"realhf/internal/search"
)

// The probes time single layers on a workload's own payloads after its
// timed ops, in the traced run only. Each probe repeats a call and reports
// the median, since one call can be shorter than the timer's noise.

// payload is one planned config of a workload: its searched experiment and
// the heuristic baseline plan for the same config.
type payload struct {
	Cfg  realhf.ExperimentConfig
	Opts []realhf.AutoOption
	Exp  *realhf.Experiment
	Heur *realhf.Experiment
}

// medianOf runs fn reps times and returns the median duration of one call.
func medianOf(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// progressRecorder keeps the first and last search progress points of one
// solve, and when the first arrived.
type progressRecorder struct {
	n           int
	first, last search.ProgressPoint
	firstAt     time.Time
}

func (p *progressRecorder) record(pt search.ProgressPoint) {
	if p.n == 0 {
		p.first, p.firstAt = pt, time.Now()
	}
	p.last = pt
	p.n++
}

func (p *progressRecorder) option() realhf.AutoOption { return realhf.WithProgress(p.record) }

// spans adds the search setup and walk spans the progress points imply
// (the solve started first.Elapsed before the first point arrived).
func (p *progressRecorder) spans(o *opTrace, parent int) {
	if p.n == 0 {
		return
	}
	start := p.firstAt.Add(-p.first.Elapsed)
	o.add(parent, "search", "search.setup", start, p.firstAt)
	o.add(parent, "search", "search.walk", p.firstAt, start.Add(p.last.Elapsed))
}

// searchAgg accumulates the search layer's figures over solves.
type searchAgg struct {
	setupMS, walkMS, setupFrac, overheadMS, space []float64
	steps, accepted                               int
	walkSecs                                      float64
	hits, misses                                  int64
}

// add folds in one solve: its experiment, its progress and its Plan wall
// time.
func (a *searchAgg) add(exp *realhf.Experiment, p *progressRecorder, wall time.Duration) {
	if p.n == 0 || exp.Cached {
		return
	}
	solve := p.last.Elapsed
	walk := p.last.Elapsed - p.first.Elapsed
	a.setupMS = append(a.setupMS, ms(p.first.Elapsed))
	a.walkMS = append(a.walkMS, ms(walk))
	if solve > 0 {
		a.setupFrac = append(a.setupFrac, float64(p.first.Elapsed)/float64(solve))
	}
	a.overheadMS = append(a.overheadMS, ms(wall-solve))
	a.space = append(a.space, exp.SearchStats.SpaceLog10)
	a.steps += exp.SearchStats.Steps
	a.accepted += exp.SearchStats.Accepted
	a.walkSecs += walk.Seconds()
	a.hits += exp.SearchStats.CacheHits
	a.misses += exp.SearchStats.CacheMisses
}

func (a *searchAgg) report(m metrics) {
	m.set("search.setup_ms", median(a.setupMS))
	m.set("search.walk_ms", median(a.walkMS))
	m.set("search.setup_frac", median(a.setupFrac))
	m.set("realhf.plan_overhead_ms", median(a.overheadMS))
	m.set("search.space_log10", median(a.space))
	if a.walkSecs > 0 {
		m.set("search.proposals_per_s", float64(a.steps)/a.walkSecs)
	}
	if a.steps > 0 {
		m.set("search.accept_frac", float64(a.accepted)/float64(a.steps))
	}
	if a.hits+a.misses > 0 {
		m.set("search.cost_cache_hit_frac", float64(a.hits)/float64(a.hits+a.misses))
	}
}

// searchProbe solves cfgs on a fresh Planner with progress recording, for
// workloads whose ops hide the solver's figures (HTTP, Trainer replans).
func searchProbe(reqs []payload) (*searchAgg, []payload, error) {
	agg := &searchAgg{}
	p := realhf.NewPlanner(realhf.ClusterConfig{})
	out := make([]payload, 0, len(reqs))
	for _, q := range reqs {
		var rec progressRecorder
		t0 := time.Now()
		exp, err := p.Plan(ctxBG, q.Cfg, append(append([]realhf.AutoOption{}, q.Opts...), rec.option())...)
		if err != nil {
			return nil, nil, fmt.Errorf("search probe: %w", err)
		}
		agg.add(exp, &rec, time.Since(t0))
		q.Exp = exp
		out = append(out, q)
	}
	return agg, out, nil
}

// oracleEstimator builds a standalone estimator for a plan's problem from
// fresh oracles, as a caller outside the Planner would.
func oracleEstimator(exp *realhf.Experiment) *estimator.Estimator {
	costers := map[dfg.Role]gpumodel.ModelCoster{}
	for role, ms := range exp.Plan.Models {
		costers[role] = gpumodel.NewOracle(exp.Plan.Cluster, ms.Cfg)
	}
	est := estimator.New(exp.Plan.Cluster, costers)
	est.OverlapComm = exp.Config.PlanForOverlap
	return est
}

// probeEstimator times full and single-call-mutation delta evaluation of
// every payload plan and reports the modelled GPU idle share.
func probeEstimator(pl []payload, m metrics) error {
	var full, delta, recost, idle []float64
	for _, q := range pl {
		est := oracleEstimator(q.Exp)
		plan := q.Exp.Plan
		var res *estimator.Result
		var err error
		full = append(full, us(medianOf(5, func() { res, err = est.Evaluate(plan) })))
		if err != nil {
			return fmt.Errorf("estimator probe: %w", err)
		}
		// Idle share of device compute time: communication nodes run on
		// their own lane under overlap, so they do not count as busy.
		var compute []estimator.ScheduledNode
		for _, sn := range res.Timeline {
			if !sn.Node.Kind.CommLike() {
				compute = append(compute, sn)
			}
		}
		gpus := float64(plan.Cluster.NumGPUs())
		if span := estimator.Makespan(res.Timeline); span > 0 {
			idle = append(idle, 1-estimator.GPUSeconds(compute)/(span*gpus))
		}

		// Single-call mutation: move one call to its heuristic placement,
		// then back, on one session, as a search proposal and its undo do.
		mut := plan.Clone()
		for _, name := range plan.CallNames() {
			if h := q.Heur.Plan.Assign[name]; !h.Equal(plan.Assign[name]) || h.Offload != plan.Assign[name].Offload {
				mut.Assign[name] = h
				break
			}
		}
		sess := est.NewSession(nil)
		if _, err := sess.Evaluate(plan); err != nil {
			return fmt.Errorf("estimator probe: %w", err)
		}
		before := sess.Stats()
		flip := false
		d := medianOf(20, func() {
			flip = !flip
			target := plan
			if flip {
				target = mut
			}
			if _, e := sess.Evaluate(target); e != nil {
				err = e
			}
		})
		if err != nil {
			return fmt.Errorf("estimator probe: %w", err)
		}
		delta = append(delta, us(d))
		after := sess.Stats()
		if n := after.NodeLookups - before.NodeLookups; n > 0 {
			recost = append(recost, float64(after.NodeRecosts-before.NodeRecosts)/float64(n))
		}
	}
	m.set("estimator.full_eval_us", median(full))
	m.set("estimator.delta_eval_us", median(delta))
	m.set("estimator.recost_frac", mean(recost))
	m.set("estimator.gpu_idle_frac", mean(idle))
	return nil
}

// actorPair returns the actor's training and first generation placements,
// the reallocation every PPO-style iteration performs twice.
func actorPair(p *core.Plan) (train, gen core.Assignment, ok bool) {
	var haveT, haveG bool
	for _, n := range p.Graph.Nodes {
		if n.Role != dfg.Actor {
			continue
		}
		switch {
		case n.Type == dfg.Train && !haveT:
			train, haveT = p.Assign[n.Name], true
		case n.Type == dfg.Generate && !haveG:
			gen, haveG = p.Assign[n.Name], true
		}
	}
	return train, gen, haveT && haveG
}

// probeRealloc times the cost-only and the schedule-building pricing of the
// actor's train->generate reallocation, and prices the switch from the
// heuristic plan to the searched one.
func probeRealloc(pl []payload, m metrics) {
	var cost, sched, sw []float64
	var cs realloc.CostScratch
	for _, q := range pl {
		plan := q.Exp.Plan
		sw = append(sw, realloc.SwitchCost(q.Heur.Plan, plan, plan.Cluster))
		src, dst, ok := actorPair(plan)
		if !ok {
			continue
		}
		cfg := plan.Models[dfg.Actor].Cfg
		hw := plan.Cluster
		cost = append(cost, us(medianOf(50, func() {
			realloc.ParamsCost(&cs, cfg.NumLayers, cfg.LayerParamBytes(), src, dst, hw)
		})))
		sched = append(sched, us(medianOf(50, func() {
			realloc.PlanParams(cfg.NumLayers, cfg.LayerParamBytes(), src, dst, hw.GPUsPerNode).Cost(hw)
		})))
	}
	m.set("realloc.params_cost_us", median(cost))
	m.set("realloc.plan_params_us", median(sched))
	m.set("realloc.switch_cost_s", mean(sw))
}

// countingTransport wraps a runtime Transport, counting and timing sends.
// When an op whose spans are kept is attached, it records each send as a
// span under the op's dispatch span; for other ops the dispatch span alone
// carries the time, which keeps the tracing overhead per step small.
type countingTransport struct {
	inner runtime.Transport

	mu          sync.Mutex
	sends       int64
	sendTime    time.Duration
	first, last time.Time
	op          *opTrace
	parent      int
}

func (c *countingTransport) Send(gpu int, req runtime.Request) error {
	t0 := time.Now()
	err := c.inner.Send(gpu, req)
	t1 := time.Now()
	c.mu.Lock()
	c.sends++
	c.sendTime += t1.Sub(t0)
	if c.first.IsZero() {
		c.first = t0
	}
	c.last = t1
	op, parent := c.op, c.parent
	c.mu.Unlock()
	if op != nil && op.kept {
		op.add(parent, "runtime", "runtime.Transport.Send", t0, t1)
	}
	return err
}

func (c *countingTransport) Replies() <-chan runtime.Reply { return c.inner.Replies() }
func (c *countingTransport) Close() error                  { return c.inner.Close() }

// attach starts a counting window, recording send spans under parent of op
// (op may be nil).
func (c *countingTransport) attach(op *opTrace, parent int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sends, c.sendTime, c.first, c.last = 0, 0, time.Time{}, time.Time{}
	c.op, c.parent = op, parent
}

// detach ends the window and returns what it counted.
func (c *countingTransport) detach() (sends int64, sendTime time.Duration, first, last time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.op = nil
	return c.sends, c.sendTime, c.first, c.last
}

// runtimeFigures accumulates runtime-layer figures over executed plans or
// iterations.
type runtimeFigures struct {
	runMS, nodes, usPerNode, comm, peak, estErr, sends, sendUS []float64
}

func (f *runtimeFigures) report(m metrics) {
	m.set("runtime.run_ms", median(f.runMS))
	m.set("runtime.nodes_per_iter", median(f.nodes))
	m.set("runtime.us_per_node", median(f.usPerNode))
	m.set("runtime.comm_frac", mean(f.comm))
	m.set("runtime.peak_mem_frac", mean(f.peak))
	m.set("runtime.sends_per_step", median(f.sends))
	m.set("runtime.send_us", median(f.sendUS))
	m.set("estimator.est_error_frac", mean(f.estErr))
}

// probeRuntime executes every payload plan through runtime.Run over a
// counting in-process transport, under the cost semantics its estimate
// used, and compares the observed makespan with the estimate.
func probeRuntime(pl []payload, f *runtimeFigures) error {
	for _, q := range pl {
		plan := q.Exp.Plan
		static := estimator.StaticPerGPU(plan)
		workers := make([]*runtime.ModelWorker, plan.Cluster.NumGPUs())
		for i := range workers {
			workers[i] = runtime.NewModelWorker(i, plan.Cluster.GPU.MemoryBytes)
			workers[i].StaticBytes = static[i]
		}
		ct := &countingTransport{inner: runtime.NewChanTransport(workers)}
		ct.attach(nil, 0)
		t0 := time.Now()
		rep, err := runtime.Run(plan, runtime.Options{
			UseCUDAGraph: true, OverlapComm: q.Exp.Config.PlanForOverlap,
			Transport: ct, Workers: workers,
		})
		wall := time.Since(t0)
		sends, sendTime, _, _ := ct.detach()
		if cerr := ct.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("runtime probe: %w", err)
		}
		if rep.OOM {
			return fmt.Errorf("runtime probe: plan for %s runs out of memory", q.Cfg.Fingerprint())
		}
		n := len(rep.Timeline)
		f.runMS = append(f.runMS, ms(wall))
		f.nodes = append(f.nodes, float64(n)/float64(rep.Iterations))
		if n > 0 {
			f.usPerNode = append(f.usPerNode, us(wall)/float64(n))
		}
		f.comm = append(f.comm, rep.CommTimeV/rep.MakespanV)
		f.peak = append(f.peak, float64(rep.PeakBytes)/float64(plan.Cluster.GPU.MemoryBytes))
		f.estErr = append(f.estErr, abs(q.Exp.Estimate.TimeCost-rep.MakespanV)/rep.MakespanV)
		f.sends = append(f.sends, float64(sends))
		if sends > 0 {
			f.sendUS = append(f.sendUS, us(sendTime)/float64(sends))
		}
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// probeCodec times the wire codec on the payloads: config encode and
// decode, and plan marshalling.
func probeCodec(pl []payload, m metrics) error {
	var enc, dec, plan []float64
	for _, q := range pl {
		var data []byte
		var err error
		enc = append(enc, us(medianOf(20, func() { data, err = json.Marshal(q.Exp.Config) })))
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		var back realhf.ExperimentConfig
		dec = append(dec, us(medianOf(20, func() { err = json.Unmarshal(data, &back) })))
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		if back.Fingerprint() != q.Exp.Config.Fingerprint() {
			return fmt.Errorf("codec probe: config does not round-trip")
		}
		plan = append(plan, us(medianOf(10, func() { _, err = q.Exp.MarshalPlan() })))
		if err != nil {
			return fmt.Errorf("codec probe: marshal plan: %w", err)
		}
	}
	m.set("realhf.config_encode_us", median(enc))
	m.set("realhf.config_decode_us", median(dec))
	m.set("realhf.plan_marshal_us", median(plan))
	return nil
}

// probePlanHit times PlanCached on configs the workload's Planner has
// solved. Entries the LRU has evicted are skipped.
func probePlanHit(p *realhf.Planner, pl []payload, m metrics) {
	var hit []float64
	for _, q := range pl {
		if _, ok := p.PlanCached(q.Cfg, q.Opts...); !ok {
			continue
		}
		hit = append(hit, us(medianOf(20, func() { p.PlanCached(q.Cfg, q.Opts...) })))
	}
	m.set("realhf.plan_hit_us", median(hit))
}

// withHeuristics fills each payload's heuristic baseline from a separate
// Planner, so the workload's own caches are untouched.
func withHeuristics(pl []payload) error {
	h := realhf.NewPlanner(realhf.ClusterConfig{})
	for i := range pl {
		cfg := pl[i].Exp.Config // canonical: carries PlanForOverlap/OffloadSearch as planned
		cfg.OffloadSearch = false
		heur, err := h.Heuristic(cfg)
		if err != nil {
			return fmt.Errorf("heuristic for %s: %w", pl[i].Cfg.Fingerprint(), err)
		}
		pl[i].Heur = heur
	}
	return nil
}

// speedups is each payload's heuristic over searched modelled iteration
// time.
func speedups(pl []payload) []float64 {
	out := make([]float64, 0, len(pl))
	for _, q := range pl {
		out = append(out, q.Heur.Estimate.TimeCost/q.Exp.Estimate.TimeCost)
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
