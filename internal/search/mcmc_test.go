package search

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"realhf/internal/core"
	"realhf/internal/estimator"
	"realhf/internal/mesh"
	"realhf/internal/parallel"
)

// oomSeedPlan assigns every call to a single GPU, so the model states can
// never fit and the estimator returns a heavily OOM-penalized cost.
func oomSeedPlan(t *testing.T, prob Problem, sp *space) (*core.Plan, *estimator.Result) {
	t.Helper()
	m, err := mesh.New(0, 1, prob.Plan.Cluster.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	tiny := core.Assignment{Mesh: m, Strategy: parallel.Strategy{DP: 1, TP: 1, PP: 1, MicroBatches: 1}}
	p := prob.Plan.Clone()
	for _, name := range sp.names {
		p.Assign[name] = tiny
	}
	res, err := prob.Est.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OOM {
		t.Fatal("single-GPU seed plan must be OOM-penalized")
	}
	return p, res
}

// TestExchangeRescalesAdaptiveBeta: a chain seeded at an OOM-penalized cost
// carries β ≈ 10/hugeCost ≈ 0; when it adopts a far cheaper global-best
// plan at an exchange barrier, its temperature must be rescaled to the
// adopted cost scale — otherwise it accepts nearly every uphill proposal
// for the rest of the solve.
func TestExchangeRescalesAdaptiveBeta(t *testing.T) {
	prob := testProblem(t, 1, 64)
	opt := Options{Seed: 11, MaxSteps: 32, ExchangeEvery: 32}.withDefaults()
	sp, err := buildSpace(prob.Est, prob.Plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	ev := newPlanEvaluator(NewCostCache(prob.Est), prob.Plan)
	good, goodPC, err := startState(ev, prob.Est, prob.Plan, sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	goodCost := goodPC.Cost
	oom, oomRes := oomSeedPlan(t, prob, sp)

	mk := func(idx int, cur *core.Plan, cost float64) *chainState {
		seed := chainSeed(opt.Seed, idx)
		return &chainState{
			idx: idx, seed: seed, rng: rand.New(rand.NewSource(seed)),
			cur: cur.Clone(), curCost: cost,
			best: cur.Clone(), bestCost: cost,
			beta: betaFor(cost),
		}
	}
	cs := []*chainState{mk(0, good, goodCost), mk(1, oom, oomRes.Cost)}
	staleBeta := cs[1].beta
	exchangeBest(cs)

	if cs[1].curCost != goodCost || cs[1].bestCost != goodCost {
		t.Fatalf("OOM-seeded chain did not adopt the global best (cur %v best %v, want %v)",
			cs[1].curCost, cs[1].bestCost, goodCost)
	}
	want := 10 / math.Max(goodCost, 1e-9)
	if cs[1].beta != want {
		t.Errorf("adopting chain kept β %v, want %v (rescaled to the adopted cost scale)", cs[1].beta, want)
	}
	if cs[1].beta <= staleBeta {
		t.Errorf("β %v did not grow past the stale OOM-scale value %v", cs[1].beta, staleBeta)
	}
	// With the rescaled temperature, a proposal ~10% uphill of the adopted
	// cost is no longer a near-certain accept: exp(−β·Δ) must be clearly
	// below 1 (with the stale β it is ≈ 1 − 1e-3).
	if p := math.Exp(-cs[1].beta * 0.1 * goodCost); p > 0.5 {
		t.Errorf("uphill acceptance probability %v still near-certain after adoption", p)
	}
}

// TestParallelSolveRecoversFromOOMSeed: end-to-end regression for the
// stale-β bug — a multi-chain solve seeded from an OOM-penalized plan must
// still converge to a feasible plan no worse than the sequential walker's.
func TestParallelSolveRecoversFromOOMSeed(t *testing.T) {
	prob := testProblem(t, 1, 64)
	sp, err := buildSpace(prob.Est, prob.Plan, Options{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	oom, _ := oomSeedPlan(t, prob, sp)
	sol, st, err := parallelMCMCSolver{}.Solve(context.Background(), prob, Options{
		Seed: 6, MaxSteps: 400, Chains: 3, ExchangeEvery: 32, InitialPlan: oom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Estimate.OOM {
		t.Error("solve seeded at an OOM plan must escape the infeasible region")
	}
	for _, c := range st.Chains {
		if c.BestCost >= estimator.OOMPenalty*sol.Cost {
			t.Errorf("chain %d never left the OOM cost scale (best %v)", c.Chain, c.BestCost)
		}
	}
}

// TestMergeTracesStableTieBreak: points with equal elapsed times must merge
// in a chain-order-independent way — the old sort keyed only on Elapsed and
// produced goroutine-dependent curves.
func TestMergeTracesStableTieBreak(t *testing.T) {
	at := 10 * time.Millisecond
	c0 := &chainState{idx: 0, trace: []ProgressPoint{
		{Elapsed: at, Step: 5, BestCost: 8},
		{Elapsed: 2 * at, Step: 9, BestCost: 6},
	}}
	c1 := &chainState{idx: 1, trace: []ProgressPoint{
		{Elapsed: at, Step: 5, BestCost: 7},
		{Elapsed: 2 * at, Step: 9, BestCost: 6.5},
	}}
	initial := ProgressPoint{Step: 0, BestCost: 9}
	a := mergeTraces([]*chainState{c0, c1}, initial, 6, 3*at)
	b := mergeTraces([]*chainState{c1, c0}, initial, 6, 3*at)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("merged trace depends on chain order:\n  %v\n  %v", a, b)
	}
	for i := 1; i < len(a); i++ {
		if a[i].BestCost >= a[i-1].BestCost {
			t.Fatalf("merged trace not strictly improving at %d: %v", i, a)
		}
	}
}

// TestTimeBoundedParallelSolveCrossesBarriers: a SearchTime-bounded
// parallel solve must keep exchanging until the clock runs out and then
// terminate cleanly at a barrier, with consistent counters.
func TestTimeBoundedParallelSolveCrossesBarriers(t *testing.T) {
	prob := testProblem(t, 1, 64)
	sol, st, err := parallelMCMCSolver{}.Solve(context.Background(), prob, Options{
		TimeLimit: 300 * time.Millisecond, Chains: 4, ExchangeEvery: 16, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Plan.Validate(); err != nil {
		t.Fatalf("time-bounded solve returned an invalid plan: %v", err)
	}
	var sum, maxProposed int
	for _, c := range st.Chains {
		sum += c.Proposed
		if c.Proposed > maxProposed {
			maxProposed = c.Proposed
		}
	}
	if maxProposed <= 16 {
		t.Errorf("no chain crossed an exchange barrier (max proposed %d, ExchangeEvery 16)", maxProposed)
	}
	if st.Steps != sum {
		t.Errorf("Stats.Steps %d != sum of ChainStats.Proposed %d", st.Steps, sum)
	}
}

// TestParallelCancellationMidBarrier: cancellation that lands while chains
// are walking between exchange barriers must abort the solve promptly with
// a wrapped context error, never a truncated Solution.
func TestParallelCancellationMidBarrier(t *testing.T) {
	prob := testProblem(t, 1, 64)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := Solve(ctx, "parallel-mcmc", prob, Options{
		TimeLimit: 30 * time.Second, Chains: 4, ExchangeEvery: 8, Seed: 2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to land", elapsed)
	}
}

// realloHeavyPlan reshard's generation onto a half-cluster mesh so the plan
// carries parameter-reallocation traffic the overlapped schedule can hide.
func reallocHeavyPlan(t *testing.T, prob Problem) *core.Plan {
	t.Helper()
	seed := greedySeed(t, prob.Est, prob.Plan)
	half := prob.Plan.Cluster.NumGPUs() / 2
	m, err := mesh.New(0, half, prob.Plan.Cluster.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	seed.Assign["ActorGen"] = core.Assignment{
		Mesh:     m,
		Strategy: parallel.Strategy{DP: half / 2, TP: 2, PP: 1, MicroBatches: 1},
	}
	return seed
}

// TestCostCacheKeysBySchedule: a serialized and an overlapped estimator each
// get their own cache, so one plan's two makespans live in separate entries
// and a re-lookup reads back its own semantics' entry — never the other
// estimator's makespan (cache poisoning).
func TestCostCacheKeysBySchedule(t *testing.T) {
	prob := testProblem(t, 2, 256)
	plan := reallocHeavyPlan(t, prob)
	over := *prob.Est
	over.OverlapComm = true

	serial, overlapped := NewCostCache(prob.Est), NewCostCache(&over)
	rs, err := serial.Evaluate(plan)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := overlapped.Evaluate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !(ro.TimeCost < rs.TimeCost) {
		t.Errorf("overlapped makespan %.6f not below serialized %.6f on a realloc-heavy plan",
			ro.TimeCost, rs.TimeCost)
	}
	// Re-lookups must hit their own semantics' entry.
	if again, _ := serial.Evaluate(plan); again != rs {
		t.Error("serialized entry not cached/stable")
	}
	if again, _ := overlapped.Evaluate(plan); again != ro {
		t.Error("overlapped entry not cached/stable")
	}
	for name, c := range map[string]*CostCache{"serialized": serial, "overlapped": overlapped} {
		if c.Hits() != 1 || c.Misses() != 1 {
			t.Errorf("%s cache: want 1 hit / 1 miss, got %d/%d", name, c.Hits(), c.Misses())
		}
	}
}

// TestOverlapAwareSolveOptimizesOverlappedCost: with the serialized
// winner supplied as a warm start, the overlap-aware solve can never end
// with a worse overlapped cost than the serialized-searched plan scores
// under the overlapped semantics — search never returns worse than its
// seed.
func TestOverlapAwareSolveOptimizesOverlappedCost(t *testing.T) {
	prob := testProblem(t, 2, 256)
	serial, _, err := mcmcSolver{}.Solve(context.Background(), prob, Options{MaxSteps: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	over := *prob.Est
	over.OverlapComm = true
	overProb := Problem{Est: &over, Plan: prob.Plan}
	sol, _, err := mcmcSolver{}.Solve(context.Background(), overProb, Options{
		MaxSteps: 400, Seed: 7, SeedCandidates: []*core.Plan{serial.Plan},
	})
	if err != nil {
		t.Fatal(err)
	}
	serialUnderOverlap, err := over.Evaluate(serial.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost > serialUnderOverlap.Cost {
		t.Errorf("overlap-aware solve (%.6f) worse than its serialized warm start under overlapped costs (%.6f)",
			sol.Cost, serialUnderOverlap.Cost)
	}
	// The solution's estimate must carry the overlapped semantics: never
	// above the same plan's serialized makespan.
	serialOfChosen, err := prob.Est.Evaluate(sol.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Estimate.TimeCost > serialOfChosen.TimeCost {
		t.Errorf("overlap-aware estimate %.6f exceeds the serialized makespan %.6f of the same plan",
			sol.Estimate.TimeCost, serialOfChosen.TimeCost)
	}
}
