package search

import (
	"context"
	"fmt"
	"math"

	"realhf/internal/core"
	"realhf/internal/estimator"
)

// greedyFromSets builds the paper's seed plan p₀ over precomputed candidate
// sets: every call independently takes the assignment minimizing its own
// estimated duration, ignoring overlap and memory (§5.2 notes this seed is
// usually sub-optimal for exactly those reasons).
func greedyFromSets(e *estimator.Estimator, p *core.Plan, sets map[string][]core.Assignment) (*core.Plan, error) {
	byName := nodesByName(p)
	out := p.Clone()
	for name, n := range byName {
		best := math.Inf(1)
		var bestA core.Assignment
		for _, a := range sets[name] {
			t, err := callTime(e, p, n, a)
			if err != nil {
				continue
			}
			if t < best {
				best, bestA = t, a
			}
		}
		if math.IsInf(best, 1) {
			return nil, fmt.Errorf("search: no costable assignment for %q", name)
		}
		out.Assign[name] = bestA
	}
	return out, nil
}

// greedySolver is the greedy seed as a Solver: it builds the per-call
// minimizing seed plan and reports its estimate, with no sampling.
// Deterministic and seed-independent.
type greedySolver struct{}

func (greedySolver) Name() string { return "greedy" }

func (greedySolver) Solve(ctx context.Context, prob Problem, opt Options) (Solution, Stats, error) {
	opt = opt.withDefaults()
	if err := ctx.Err(); err != nil {
		return Solution{}, Stats{}, fmt.Errorf("search: greedy solve cancelled: %w", err)
	}
	e := prob.Est
	cache, err := cacheFor(opt.Cache, e)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	sets, spaceLog10, err := candidateSets(prob.Plan, opt.Prune, opt.OffloadSearch)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	plan, err := greedyFromSets(e, prob.Plan, sets)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	hits0, misses0 := cache.Hits(), cache.Misses()
	res, err := cache.Evaluate(plan)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	st := Stats{
		SpaceLog10:  spaceLog10,
		CacheHits:   cache.Hits() - hits0,
		CacheMisses: cache.Misses() - misses0,
		Trace:       []ProgressPoint{{Step: 0, BestCost: res.Cost}},
	}
	if opt.Progress != nil {
		opt.Progress(st.Trace[0])
	}
	return Solution{Plan: plan, Cost: res.Cost, Estimate: res}, st, nil
}
