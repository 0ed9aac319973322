package search

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/model"
)

// deltaVariants spans the cost-semantics matrix the incremental session must
// reproduce bit for bit: both overlap modes, with and without profile
// calibration.
func deltaVariants(t *testing.T, e *estimator.Estimator) map[string]*estimator.Estimator {
	t.Helper()
	calib := estimator.NewCalibration(map[string]float64{
		"ActorGen": 1.7, "CriticTrain": 0.8,
	})
	if calib == nil {
		t.Fatal("calibration unexpectedly nil")
	}
	out := map[string]*estimator.Estimator{}
	for _, overlap := range []bool{false, true} {
		for _, c := range []*estimator.Calibration{nil, calib} {
			ev := *e
			ev.OverlapComm = overlap
			ev.Calib = c
			name := "serial"
			if overlap {
				name = "overlap"
			}
			if c != nil {
				name += "+calib"
			}
			out[name] = &ev
		}
	}
	return out
}

// mutatePlans drives one incremental coster (an EvalSession or a
// planEvaluator over the estimator) through a randomized mutation walk:
// random full re-assignments followed by runs of single-call mutations,
// asserting after every step that the incremental evaluation equals a
// from-scratch Estimator.Evaluate field for field, bit for bit. Failures
// are reported with Errorf (never FailNow), so the walk is safe to run from
// spawned goroutines.
func mutatePlans(t *testing.T, e *estimator.Estimator, cost func(*core.Plan) (estimator.PlanCost, error),
	p *core.Plan, sets map[string][]core.Assignment, seed int64, trials, muts int) {
	t.Helper()
	names := p.CallNames()
	rng := rand.New(rand.NewSource(seed))
	plan := p.Clone()
	for trial := 0; trial < trials; trial++ {
		for _, n := range names {
			cs := sets[n]
			plan.Assign[n] = cs[rng.Intn(len(cs))]
		}
		for mut := 0; mut < muts; mut++ {
			if mut > 0 {
				n := names[rng.Intn(len(names))]
				cs := sets[n]
				plan.Assign[n] = cs[rng.Intn(len(cs))]
			}
			got, err := cost(plan)
			if err != nil {
				t.Errorf("trial %d mut %d: incremental: %v", trial, mut, err)
				return
			}
			full, err := e.Evaluate(plan)
			if err != nil {
				t.Errorf("trial %d mut %d: full: %v", trial, mut, err)
				return
			}
			if want := estimator.CostOf(full); got != want {
				t.Errorf("trial %d mut %d: delta re-costing diverged from full Evaluate:\n got %+v\nwant %+v\nplan %s",
					trial, mut, got, want, plan.Fingerprint())
				return
			}
		}
	}
}

// TestDeltaCostingMatchesFullEvaluate is the incremental-costing contract's
// differential property test: under every cost semantics, a session fed
// randomized plans and single-RPC mutations returns exactly what a
// from-scratch evaluation returns.
func TestDeltaCostingMatchesFullEvaluate(t *testing.T) {
	p, e := newProblem(t, 1, model.LLaMA7B, model.LLaMA7B, 64, 256, 256)
	sets, _, err := candidateSets(p, PruneNone, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, ev := range deltaVariants(t, e) {
		t.Run(name, func(t *testing.T) {
			sess := ev.NewSession(nil)
			mutatePlans(t, ev, sess.Evaluate, p, sets, 11, 6, 20)
			if st := sess.Stats(); st.NodeRecosts >= st.NodeLookups {
				t.Errorf("session never reused a node duration: %+v", st)
			}
		})
	}
}

// TestDeltaCostingOffloadFlips extends the differential property to the
// offload axis: with offload-aware candidate sets the mutation walk flips
// per-call host offload on frozen roles (same mesh and strategy, toggled
// Offload), exercising the session's offload-node re-costing and the
// role-residency static-memory memo under every cost semantics.
func TestDeltaCostingOffloadFlips(t *testing.T) {
	p, e := newProblem(t, 1, model.LLaMA7B, model.LLaMA7B, 64, 256, 256)
	sets, _, err := candidateSets(p, PruneNone, true)
	if err != nil {
		t.Fatal(err)
	}
	offloaded := 0
	for _, cs := range sets {
		for _, a := range cs {
			if a.Offload {
				offloaded++
			}
		}
	}
	if offloaded == 0 {
		t.Fatal("offload-aware candidate sets contain no offloaded assignment")
	}
	for name, ev := range deltaVariants(t, e) {
		t.Run(name, func(t *testing.T) {
			mutatePlans(t, ev, ev.NewSession(nil).Evaluate, p, sets, 23, 6, 20)
		})
	}
}

// TestDeltaCostingDirectFallback repeats the differential property on a
// second problem shape — two nodes, aggressively pruned candidates — with
// the session costing nodes through estimator.NodeDuration directly.
func TestDeltaCostingDirectFallback(t *testing.T) {
	p, e := newProblem(t, 2, model.LLaMA7B, model.LLaMA7B, 128, 256, 256)
	sets, _, err := candidateSets(p, PruneAggressive, false)
	if err != nil {
		t.Fatal(err)
	}
	mutatePlans(t, e, e.NewSession(nil).Evaluate, p, sets, 5, 4, 15)
}

// TestDeltaCostingConcurrentSharedCache runs several planEvaluators on
// concurrent goroutines against one shared CostCache — the parallel-mcmc
// topology — each verifying the differential property on a mutation walk.
// Every walk runs on two goroutines at once, so chains race to fill and
// read the same plan-cost entries. Run under -race this checks the
// evaluator/cache concurrency contract: sessions are chain-local, the
// cache underneath is shared.
func TestDeltaCostingConcurrentSharedCache(t *testing.T) {
	p, e := newProblem(t, 1, model.LLaMA7B, model.LLaMA7B, 64, 256, 256)
	sets, _, err := candidateSets(p, PruneModerate, false)
	if err != nil {
		t.Fatal(err)
	}
	const walks, trials, muts = 4, 3, 15
	cache := NewCostCache(e)
	var wg sync.WaitGroup
	for g := 0; g < 2*walks; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			ev := newPlanEvaluator(cache, p)
			mutatePlans(t, e, ev.cost, p, sets, seed, trials, muts)
		}(int64(g%walks + 1))
	}
	wg.Wait()
	if n := cache.Hits() + cache.Misses(); n != 2*walks*trials*muts {
		t.Errorf("cache saw %d plan-cost lookups, want %d", n, 2*walks*trials*muts)
	}
	// A replayed walk on a fresh evaluator is answered entirely from the
	// shared index, and still matches full evaluation.
	hits := cache.Hits()
	mutatePlans(t, e, newPlanEvaluator(cache, p).cost, p, sets, 1, trials, muts)
	if got := cache.Hits() - hits; got != trials*muts {
		t.Errorf("replayed walk hit the shared cache %d times, want %d", got, trials*muts)
	}
}

// walkHomeAndOffload drives cost through a mutation walk of the two moves
// the interned session must track beyond plain re-draws: moving a role's
// home call (every same-role call's realloc source and active-memory
// discount changes with it) and flipping a frozen call's host offload (the
// role's resting-memory verdict can change). Every step is checked against
// a from-scratch Estimator.Evaluate, bit for bit.
func walkHomeAndOffload(t *testing.T, e *estimator.Estimator, cost func(*core.Plan) (estimator.PlanCost, error),
	p *core.Plan, sets map[string][]core.Assignment, seed int64, steps int) {
	t.Helper()
	var homes, frozen []string
	for _, n := range p.Graph.Nodes {
		if n.Iter != 0 {
			continue
		}
		if n.Type == dfg.Train {
			homes = append(homes, n.Name)
		} else if !p.Models[n.Role].Trainable {
			frozen = append(frozen, n.Name)
		}
	}
	if len(homes) == 0 || len(frozen) == 0 {
		t.Fatalf("graph %s has no home or frozen calls to mutate", p.Graph.Algo)
	}
	rng := rand.New(rand.NewSource(seed))
	plan := p.Clone()
	for _, n := range plan.CallNames() {
		plan.Assign[n] = sets[n][rng.Intn(len(sets[n]))]
	}
	for step := 0; step < steps; step++ {
		switch step % 3 {
		case 0:
			n := homes[rng.Intn(len(homes))]
			plan.Assign[n] = sets[n][rng.Intn(len(sets[n]))]
		case 1:
			n := frozen[rng.Intn(len(frozen))]
			a := plan.Assign[n]
			a.Offload = !a.Offload
			plan.Assign[n] = a
		default:
			names := plan.CallNames()
			n := names[rng.Intn(len(names))]
			plan.Assign[n] = sets[n][rng.Intn(len(sets[n]))]
		}
		got, err := cost(plan)
		if err != nil {
			t.Fatalf("%s step %d: incremental: %v", p.Graph.Algo, step, err)
		}
		full, err := e.Evaluate(plan)
		if err != nil {
			t.Fatalf("%s step %d: full: %v", p.Graph.Algo, step, err)
		}
		if want := estimator.CostOf(full); got != want {
			t.Fatalf("%s step %d: session diverged from full Evaluate:\n got %+v\nwant %+v\nplan %s",
				p.Graph.Algo, step, got, want, plan.Fingerprint())
		}
	}
}

// TestDeltaCostingSessionRebind re-binds one EvalSession across dataflow
// graphs — a one-iteration PPO graph, a two-iteration PPO graph (same call
// names, twice the nodes and cross-iteration version edges) and a
// two-iteration GRPO graph (a different role set) — and back, under home-call
// moves and offload flips. Call and role indices mean different things per
// graph, so a rebind that kept any index-keyed memo would diverge from full
// evaluation; the assignment intern table, which survives rebinds, must not.
func TestDeltaCostingSessionRebind(t *testing.T) {
	p1, e := newProblem(t, 1, model.LLaMA7B, model.LLaMA7B, 64, 256, 256)
	spec := dfg.Spec{Batch: 64, PromptLen: 256, GenLen: 256, MiniBatches: 8, Iterations: 2}
	ppo2 := dfg.MustBuild("ppo", spec)
	// GRPO with groups of 4: the paper table with every call's BatchScale
	// halved.
	grpoCalls, err := dfg.Workflow("grpo")
	if err != nil {
		t.Fatal(err)
	}
	for i := range grpoCalls {
		grpoCalls[i].BatchScale = 4
	}
	grpo2, err := dfg.Lower("grpo", grpoCalls, spec)
	if err != nil {
		t.Fatal(err)
	}
	p2 := core.NewPlan(p1.Cluster, ppo2, p1.Models)
	p3 := core.NewPlan(p1.Cluster, grpo2, core.ModelsFor(grpo2, model.LLaMA7B, model.LLaMA7B))
	var sets []map[string][]core.Assignment
	for _, p := range []*core.Plan{p1, p2, p3} {
		s, _, err := candidateSets(p, PruneModerate, true)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, s)
	}
	for name, ev := range deltaVariants(t, e) {
		t.Run(name, func(t *testing.T) {
			sess := ev.NewSession(nil)
			for i, k := range []int{0, 1, 0, 2, 1, 0} {
				p := []*core.Plan{p1, p2, p3}[k]
				walkHomeAndOffload(t, ev, sess.Evaluate, p, sets[k], int64(31+i), 30)
			}
			if st := sess.Stats(); st.NodeRecosts >= st.NodeLookups {
				t.Errorf("session never reused a node duration: %+v", st)
			}
		})
	}
}

// TestCostCacheKeys pins the packed plan-cost key: plans differing only in
// one call's Mesh.First, MicroBatches, ZeRO3 or Offload get distinct keys,
// and one plan gets one key whichever evaluator (chain) or solve builds it
// and whatever order its assignment map was filled in.
func TestCostCacheKeys(t *testing.T) {
	p, e := newProblem(t, 2, model.LLaMA7B, model.LLaMA7B, 64, 256, 256)
	base := greedySeed(t, e, p)
	cache := NewCostCache(e)
	chainA, chainB := newPlanEvaluator(cache, p), newPlanEvaluator(cache, p)
	key := func(ev *planEvaluator, p *core.Plan) string { return string(ev.key(p)) }

	const call = "RefInf"
	variants := map[string]func(*core.Assignment){
		"Mesh.First":   func(a *core.Assignment) { a.Mesh.First += a.Mesh.Count },
		"MicroBatches": func(a *core.Assignment) { a.Strategy.MicroBatches++ },
		"ZeRO3":        func(a *core.Assignment) { a.Strategy.ZeRO3 = !a.Strategy.ZeRO3 },
		"Offload":      func(a *core.Assignment) { a.Offload = !a.Offload },
	}
	seen := map[string]string{key(chainA, base): "base"}
	for _, field := range []string{"Mesh.First", "MicroBatches", "ZeRO3", "Offload"} {
		q := base.Clone()
		a := q.Assign[call]
		variants[field](&a)
		q.Assign[call] = a
		k := key(chainA, q)
		if prev, dup := seen[k]; dup {
			t.Errorf("plan differing in %s has the same packed key as %s", field, prev)
		}
		seen[k] = field
		if kb := key(chainB, q); kb != k {
			t.Errorf("%s variant: chain B packed key %x, chain A %x", field, kb, k)
		}
	}
	// The same assignments inserted in reverse order, through a chain that
	// last keyed a different plan.
	names := base.CallNames()
	rev := core.NewPlan(base.Cluster, base.Graph, base.Models)
	for i := len(names) - 1; i >= 0; i-- {
		rev.Assign[names[i]] = base.Assign[names[i]]
	}
	if key(chainB, rev) != key(chainA, base) {
		t.Error("equal plans keyed differently by two chains")
	}
	// A later solve over the same cache builds fresh evaluators; its keys
	// must match, or it would miss every plan the first solve scored.
	if key(newPlanEvaluator(cache, p), base) != key(chainA, base) {
		t.Error("equal plans keyed differently by two solves")
	}
	prob := Problem{Est: e, Plan: p}
	opt := Options{Seed: 4, MaxSteps: 300, Cache: NewCostCache(e)}
	if _, _, err := Solve(context.Background(), "mcmc", prob, opt); err != nil {
		t.Fatal(err)
	}
	_, st, err := Solve(context.Background(), "mcmc", prob, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheMisses != 0 {
		t.Errorf("replayed solve over a shared cache missed %d times, want 0", st.CacheMisses)
	}
}

// TestParallelChainsShareCache runs two parallel-mcmc solves of four chains
// each at once over one CostCache, so eight chains race on its plan-cost
// index and its assignment intern table. Run under -race it checks the
// cache's locking; either way each solve must return exactly the plan and
// cost it returns alone on a fresh cache, and the cost must equal a full
// evaluation of that plan.
func TestParallelChainsShareCache(t *testing.T) {
	p, e := newProblem(t, 2, model.LLaMA7B, model.LLaMA7B, 128, 256, 256)
	prob := Problem{Est: e, Plan: p}
	opts := func(seed int64, cache *CostCache) Options {
		return Options{Seed: seed, MaxSteps: 400, Chains: 4, ExchangeEvery: 64, Cache: cache}
	}
	seeds := []int64{3, 8}
	solo := make([]Solution, len(seeds))
	for i, seed := range seeds {
		sol, _, err := Solve(context.Background(), "parallel-mcmc", prob, opts(seed, nil))
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = sol
	}
	shared := NewCostCache(e)
	got := make([]Solution, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			got[i], _, errs[i] = Solve(context.Background(), "parallel-mcmc", prob, opts(seed, shared))
		}(i, seed)
	}
	wg.Wait()
	for i := range seeds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i].Plan.Fingerprint() != solo[i].Plan.Fingerprint() || got[i].Cost != solo[i].Cost {
			t.Errorf("seed %d: shared-cache solve chose %s at %v, alone %s at %v", seeds[i],
				got[i].Plan.Fingerprint(), got[i].Cost, solo[i].Plan.Fingerprint(), solo[i].Cost)
		}
		full, err := e.Evaluate(got[i].Plan)
		if err != nil {
			t.Fatal(err)
		}
		if full.Cost != got[i].Cost {
			t.Errorf("seed %d: solve cost %v, full evaluation %v", seeds[i], got[i].Cost, full.Cost)
		}
	}
}
