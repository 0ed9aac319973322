package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"realhf/internal/core"
	"realhf/internal/estimator"
)

// seedStride derives per-chain RNG seeds from Options.Seed: chain i runs on
// Seed + i·seedStride (a large odd constant, so chains never share streams),
// and chain 0 uses Options.Seed verbatim — a one-chain parallel run is
// therefore bit-identical to the sequential walker.
const seedStride uint64 = 0x9E3779B97F4A7C15

func chainSeed(base int64, chain int) int64 {
	return base + int64(uint64(chain)*seedStride)
}

// chainState is one Metropolis–Hastings chain. Between exchange barriers a
// chain is touched by exactly one goroutine; barriers are the only points
// where state crosses chains.
type chainState struct {
	idx  int
	seed int64
	rng  *rand.Rand

	// cur is mutated in place by proposals (one assignment re-drawn, undone
	// on reject); best is a snapshot plan whose assignment map is overwritten
	// — never reallocated — on improvement. Costs are compact scalars; the
	// winner's full estimator.Result is materialized once per solve.
	cur      *core.Plan
	curCost  float64
	best     *core.Plan
	bestCost float64
	// curOOM/bestOOM track feasibility alongside the costs; under hardMem
	// (Options.OffloadSearch) best tracking, exchange and the final winner
	// reduction order candidates feasibility-first.
	curOOM  bool
	bestOOM bool
	hardMem bool

	ev *planEvaluator

	// beta is the sampling temperature of P(p) ∝ exp(−β·cost), kept at
	// 10/bestCost so relative cost differences matter uniformly across
	// problem sizes.
	beta float64

	step      int // proposals attempted (including failed evaluations)
	accepted  int
	trace     []ProgressPoint
	progress  func(ProgressPoint)
	done      bool
	cancelled bool
}

// betaFor is the adaptive temperature for a chain whose best cost is cost.
func betaFor(cost float64) float64 { return 10 / math.Max(cost, 1e-9) }

// betterUnderHardMem orders (OOM, cost) pairs with the memory ledger as a
// hard constraint: any feasible plan beats any infeasible one, and cost
// breaks ties within a feasibility class. The OOM-penalized cost almost
// always agrees, but the lexicographic order makes the guarantee absolute —
// a search that saw a fitting plan can never return an over-memory one.
func betterUnderHardMem(oom bool, cost float64, bestOOM bool, bestCost float64) bool {
	if oom != bestOOM {
		return !oom
	}
	return cost < bestCost
}

// copyAssign overwrites dst's assignments with src's without reallocating the
// map. Both plans of a chain share the same key set (the problem's call
// names), so no deletion pass is needed.
func copyAssign(dst, src *core.Plan) {
	for k, v := range src.Assign {
		dst.Assign[k] = v
	}
}

// record appends a trace point and streams it to the progress callback.
func (c *chainState) record(pt ProgressPoint) {
	c.trace = append(c.trace, pt)
	if c.progress != nil {
		c.progress(pt)
	}
}

// run advances the chain until its per-chain budget (opt.MaxSteps or
// opt.TimeLimit, matching the sequential walker's termination rule), the
// round boundary `until` (0 = none), or ctx cancellation. The proposal loop
// and RNG consumption order replicate the pre-Solver engine exactly — one
// Intn per call pick, one per candidate pick, one Float64 only when the
// Metropolis test is reached — so a fixed seed reproduces its plan bit for
// bit. Proposals mutate cur in place and undo on reject/error instead of
// cloning the plan per step.
func (c *chainState) run(ctx context.Context, sp *space, opt Options, start time.Time, until int) {
	for {
		step := c.step + 1
		if opt.MaxSteps > 0 && step > opt.MaxSteps {
			c.done = true
			return
		}
		//lint:realvet wallclock -- TimeLimit mode is wall-clock by design; deterministic runs pin MaxSteps
		if opt.MaxSteps <= 0 && time.Since(start) > opt.TimeLimit {
			c.done = true
			return
		}
		if until > 0 && step > until {
			return
		}
		if ctx.Err() != nil {
			c.done, c.cancelled = true, true
			return
		}
		c.step = step
		// Propose: re-draw one call's assignment uniformly. With the offload
		// axis enabled, a quarter of the proposals on frozen-role calls are
		// dedicated single-offload-flip moves: they keep the layout and toggle
		// only the host-offload bit, the mutation the incremental evaluator
		// re-costs at a single augmented-graph node. (The gate draws RNG only
		// under OffloadSearch, so default solves keep their historical
		// streams.)
		ni := c.rng.Intn(len(sp.names))
		name := sp.names[ni]
		cands := sp.cands[ni]
		prev := c.cur.Assign[name]
		if opt.OffloadSearch && sp.frozen[ni] && c.rng.Intn(4) == 0 {
			next := prev
			next.Offload = !prev.Offload
			c.cur.Assign[name] = next
		} else {
			c.cur.Assign[name] = cands[c.rng.Intn(len(cands))]
		}
		pc, err := c.ev.cost(c.cur)
		if err != nil {
			c.cur.Assign[name] = prev
			continue
		}
		accept := pc.Cost <= c.curCost ||
			c.rng.Float64() < math.Exp(-c.beta*(pc.Cost-c.curCost))
		if accept {
			c.curCost = pc.Cost
			c.curOOM = pc.OOM
			c.accepted++
			better := pc.Cost < c.bestCost
			if c.hardMem {
				better = betterUnderHardMem(pc.OOM, pc.Cost, c.bestOOM, c.bestCost)
			}
			if better {
				c.bestCost = pc.Cost
				c.bestOOM = pc.OOM
				copyAssign(c.best, c.cur)
				// Keep the temperature matched to the current cost scale:
				// an OOM-penalized seed would otherwise leave β so small
				// that the chain random-walks forever.
				c.beta = betaFor(c.bestCost)
				c.record(ProgressPoint{ //lint:realvet wallclock -- Elapsed is observability-only, excluded from fingerprints
					Elapsed: time.Since(start), Step: step, BestCost: c.bestCost,
				})
			}
		} else {
			c.cur.Assign[name] = prev
		}
		if step%progressEvery == 0 {
			c.record(ProgressPoint{ //lint:realvet wallclock -- Elapsed is observability-only, excluded from fingerprints
				Elapsed: time.Since(start), Step: step, BestCost: c.bestCost,
			})
		}
	}
}

// startState resolves the shared initial plan: the caller-provided
// InitialPlan or the greedy seed (minimizing over the full pre-shortlist
// candidate sets, reusing the solver's enumeration), improved by any
// cheaper SeedCandidates. All seed evaluations route through the shared
// cost cache's compact index — a warm-started chain whose seed was already
// scored (by a previous solve or another solver) pays no re-evaluation.
// Seeds are Plan.Validated first: the compact path assumes individually
// legal assignments, and an illegal caller-provided plan must fail (for
// InitialPlan) or be skipped (for SeedCandidates) exactly as it did when
// the full evaluator re-validated every plan.
func startState(ev *planEvaluator, e *estimator.Estimator,
	p *core.Plan, sp *space, opt Options) (*core.Plan, estimator.PlanCost, error) {
	var cur *core.Plan
	var err error
	if opt.InitialPlan != nil {
		cur = opt.InitialPlan.Clone()
		if err := cur.Validate(); err != nil {
			return nil, estimator.PlanCost{}, err
		}
	} else {
		cur, err = greedyFromSets(e, p, sp.fullSets)
		if err != nil {
			return nil, estimator.PlanCost{}, err
		}
	}
	curPC, err := ev.cost(cur)
	if err != nil {
		return nil, estimator.PlanCost{}, err
	}
	// Warm starts: adopt the cheapest of the greedy seed and any candidate
	// plans the caller supplies.
	for _, seed := range opt.SeedCandidates {
		if seed == nil {
			continue
		}
		if err := seed.Validate(); err != nil {
			continue
		}
		sr, err := ev.cost(seed)
		if err != nil {
			continue
		}
		if sr.Cost < curPC.Cost {
			cur, curPC = seed.Clone(), sr
		}
	}
	return cur, curPC, nil
}

// mcmcSolver is the sequential single-chain Metropolis–Hastings walker —
// the paper's §5.2 search engine.
type mcmcSolver struct{}

func (mcmcSolver) Name() string { return "mcmc" }

func (mcmcSolver) Solve(ctx context.Context, prob Problem, opt Options) (Solution, Stats, error) {
	return solveMCMC(ctx, prob, opt, 1)
}

// parallelMCMCSolver runs K independent chains across goroutines with
// periodic best-plan exchange at deterministic step boundaries, all sharing
// one memoized cost cache. The reduction is deterministic: lowest best cost
// wins, ties broken by chain index.
type parallelMCMCSolver struct{}

func (parallelMCMCSolver) Name() string { return "parallel-mcmc" }

func (parallelMCMCSolver) Solve(ctx context.Context, prob Problem, opt Options) (Solution, Stats, error) {
	k := opt.Chains
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	return solveMCMC(ctx, prob, opt, k)
}

// solveMCMC is the shared engine behind both MCMC solvers.
func solveMCMC(ctx context.Context, prob Problem, opt Options, chains int) (Solution, Stats, error) {
	opt = opt.withDefaults()
	start := time.Now() //lint:realvet wallclock -- anchors the TimeLimit budget and Elapsed trace, never plan content
	e, p := prob.Est, prob.Plan
	cache, err := cacheFor(opt.Cache, e)
	if err != nil {
		return Solution{}, Stats{}, err
	}

	if err := ctx.Err(); err != nil {
		return Solution{}, Stats{}, fmt.Errorf("search: mcmc solve cancelled before candidate enumeration: %w", err)
	}
	sp, err := buildSpace(e, p, opt)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return Solution{}, Stats{}, fmt.Errorf("search: mcmc solve cancelled before the first proposal: %w", err)
	}
	hits0, misses0 := cache.Hits(), cache.Misses()
	// One incremental evaluator per chain: sessions are single-goroutine,
	// and all cross-chain reuse flows through the shared cache.
	evs := make([]*planEvaluator, chains)
	for i := range evs {
		evs[i] = newPlanEvaluator(cache, p)
	}

	cur, curPC, err := startState(evs[0], e, p, sp, opt)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	curCost := curPC.Cost

	// Serialize the caller's progress callback across chains: each chain
	// streams points as it records them, so WithProgress observers see the
	// search converge live without taking part in plan selection.
	progress := opt.Progress
	if progress != nil && chains > 1 {
		var pmu sync.Mutex
		cb := opt.Progress
		progress = func(pt ProgressPoint) {
			pmu.Lock()
			defer pmu.Unlock()
			cb(pt)
		}
	}

	cs := make([]*chainState, chains)
	for i := range cs {
		seed := chainSeed(opt.Seed, i)
		cs[i] = &chainState{
			idx: i, seed: seed, rng: rand.New(rand.NewSource(seed)),
			cur: cur.Clone(), curCost: curCost, curOOM: curPC.OOM,
			best: cur.Clone(), bestCost: curCost, bestOOM: curPC.OOM,
			hardMem:  opt.OffloadSearch,
			ev:       evs[i],
			beta:     betaFor(curCost),
			progress: progress,
		}
	}
	//lint:realvet wallclock -- Elapsed is observability-only, excluded from fingerprints
	initial := ProgressPoint{Elapsed: time.Since(start), Step: 0, BestCost: curCost}
	cs[0].record(initial)

	if chains == 1 {
		cs[0].run(ctx, sp, opt, start, 0)
	} else {
		runExchanging(ctx, cs, sp, opt, start)
	}

	// Cancellation is an error, not a truncated Solution: a caller that set
	// a deadline must not mistake a half-walked chain for a converged plan.
	// (Chains poll ctx every proposal, so this returns promptly.)
	for _, c := range cs {
		if c.cancelled {
			var steps int
			for _, cc := range cs {
				steps += cc.step
			}
			return Solution{}, Stats{}, fmt.Errorf("search: mcmc solve cancelled after %d proposals: %w",
				steps, context.Cause(ctx))
		}
	}

	// Deterministic reduction: best cost (feasibility-first under the
	// OffloadSearch hard memory constraint), ties broken by chain index.
	winner := cs[0]
	for _, c := range cs[1:] {
		if opt.OffloadSearch {
			if betterUnderHardMem(c.bestOOM, c.bestCost, winner.bestOOM, winner.bestCost) {
				winner = c
			}
		} else if c.bestCost < winner.bestCost {
			winner = c
		}
	}

	// The chains only ever tracked compact costs; materialize the winner's
	// full Result (timeline, call times) once. Its Cost is bit-identical to
	// the compact score the chain accepted on.
	winRes, err := cache.Evaluate(winner.best)
	if err != nil {
		return Solution{}, Stats{}, err
	}

	st := Stats{SpaceLog10: sp.spaceLog10,
		CacheHits:   cache.Hits() - hits0,
		CacheMisses: cache.Misses() - misses0,
	}
	for _, c := range cs {
		st.Steps += c.step
		st.Accepted += c.accepted
		st.Chains = append(st.Chains, ChainStats{
			Chain: c.idx, Seed: c.seed, Proposed: c.step,
			Accepted: c.accepted, BestCost: c.bestCost,
		})
	}
	if chains == 1 {
		st.Trace = cs[0].trace
	} else {
		//lint:realvet wallclock -- Elapsed is observability-only, excluded from fingerprints
		st.Trace = mergeTraces(cs, initial, winner.bestCost, time.Since(start))
	}
	return Solution{Plan: winner.best, Cost: winRes.Cost, Estimate: winRes}, st, nil
}

// runExchanging drives K chains in lockstep rounds of opt.ExchangeEvery
// steps: chains walk concurrently within a round, then meet at a barrier
// where laggards adopt the global best plan as their current state.
// Exchanges happen at deterministic step boundaries, so step-bounded runs
// remain reproducible regardless of goroutine scheduling.
func runExchanging(ctx context.Context, cs []*chainState,
	sp *space, opt Options, start time.Time) {
	for target := 0; ; {
		target += opt.ExchangeEvery
		var wg sync.WaitGroup
		live := 0
		for _, c := range cs {
			if c.done {
				continue
			}
			live++
			wg.Add(1)
			go func(c *chainState) {
				defer wg.Done()
				c.run(ctx, sp, opt, start, target)
			}(c)
		}
		wg.Wait()
		if live == 0 {
			return
		}
		exchangeBest(cs)
	}
}

// exchangeBest is the barrier body: the globally best plan (lowest cost,
// lowest chain index on ties; feasibility-first under the hard memory
// constraint) replaces the current state of any chain doing worse.
func exchangeBest(cs []*chainState) {
	hardMem := cs[0].hardMem
	g := cs[0]
	for _, c := range cs[1:] {
		if hardMem {
			if betterUnderHardMem(c.bestOOM, c.bestCost, g.bestOOM, g.bestCost) {
				g = c
			}
		} else if c.bestCost < g.bestCost {
			g = c
		}
	}
	for _, c := range cs {
		if c.done || c == g {
			continue
		}
		adopt := g.bestCost < c.curCost
		if hardMem {
			adopt = betterUnderHardMem(g.bestOOM, g.bestCost, c.curOOM, c.curCost)
		}
		if adopt {
			// The barrier is single-threaded, so adopting in place (no
			// clones) is safe: every chain goroutine has already joined.
			copyAssign(c.cur, g.best)
			c.curCost = g.bestCost
			c.curOOM = g.bestOOM
			// The adopted plan is the best this chain now knows: fold it
			// into the chain's best and rescale the temperature to the new
			// cost scale. Without the rescale a chain seeded at an
			// OOM-penalized cost keeps β ≈ 10/hugeCost ≈ 0 after adopting a
			// cheap plan and accepts nearly every uphill proposal for the
			// rest of the solve.
			fold := g.bestCost < c.bestCost
			if hardMem {
				fold = betterUnderHardMem(g.bestOOM, g.bestCost, c.bestOOM, c.bestCost)
			}
			if fold {
				copyAssign(c.best, g.best)
				c.bestCost = g.bestCost
				c.bestOOM = g.bestOOM
				c.beta = betaFor(c.bestCost)
			}
		}
	}
}

// mergeTraces folds per-chain improvement points into one monotone
// global-best curve ordered by elapsed time. Points with equal elapsed
// times are tie-broken by (Step, BestCost, chain index) — a total order —
// so the merged curve is stable regardless of goroutine scheduling.
func mergeTraces(cs []*chainState, initial ProgressPoint, finalCost float64, elapsed time.Duration) []ProgressPoint {
	type chainPoint struct {
		pt    ProgressPoint
		chain int
	}
	var all []chainPoint
	for _, c := range cs {
		for _, pt := range c.trace {
			all = append(all, chainPoint{pt: pt, chain: c.idx})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.pt.Elapsed != b.pt.Elapsed {
			return a.pt.Elapsed < b.pt.Elapsed
		}
		if a.pt.Step != b.pt.Step {
			return a.pt.Step < b.pt.Step
		}
		if a.pt.BestCost != b.pt.BestCost {
			return a.pt.BestCost < b.pt.BestCost
		}
		return a.chain < b.chain
	})
	out := []ProgressPoint{initial}
	best := initial.BestCost
	for _, cp := range all {
		if cp.pt.BestCost < best {
			best = cp.pt.BestCost
			out = append(out, cp.pt)
		}
	}
	if best > finalCost || len(out) == 1 {
		out = append(out, ProgressPoint{Elapsed: elapsed, Step: out[len(out)-1].Step, BestCost: finalCost})
	}
	return out
}
