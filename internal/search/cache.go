package search

import (
	"errors"
	"sync"
	"sync/atomic"

	"realhf/internal/core"
	"realhf/internal/estimator"
)

// CostCache memoizes one estimator's plan-level results, safely shared by
// concurrent search chains and solver invocations: a plan revisited by any
// chain is never re-simulated. Entries are keyed by the plan's canonical
// Fingerprint alone. A cache is bound to the estimator it was built for, so
// the schedule semantics (OverlapComm) and calibration are fixed per cache
// and serialized, overlap-aware and calibrated problems can never read each
// other's entries. Node durations are memoized per chain by each
// estimator.EvalSession, not here.
//
// Cached Results are shared pointers and must be treated as immutable.
//
// A cache also assumes one problem: plan fingerprints name calls, not their
// (role, workload, model). Never share one across different problems.
type CostCache struct {
	est *estimator.Estimator

	mu    sync.RWMutex
	plans map[string]*estimator.Result
	// costs is the compact plan-cost index: the PlanCost summary of every
	// plan scored through the solvers' incremental sessions, keyed exactly
	// like plans. It is deliberately separate from plans — the hot path
	// never materializes timelines, and full Results are only built for
	// chosen plans — but both maps count into the same hit/miss statistics.
	costs map[string]estimator.PlanCost

	hits, misses atomic.Int64
}

// NewCostCache allocates an empty cache bound to e.
func NewCostCache(e *estimator.Estimator) *CostCache {
	return &CostCache{
		est:   e,
		plans: make(map[string]*estimator.Result),
		costs: make(map[string]estimator.PlanCost),
	}
}

// errForeignCache rejects an Options.Cache built for another estimator.
var errForeignCache = errors.New("search: Options.Cache was built for a different estimator than Problem.Est")

// cacheFor returns the cache a solve over e uses: c when it was built for e,
// a fresh cache when c is nil, and an error otherwise.
func cacheFor(c *CostCache, e *estimator.Estimator) (*CostCache, error) {
	if c == nil {
		return NewCostCache(e), nil
	}
	if c.est != e {
		return nil, errForeignCache
	}
	return c, nil
}

// Hits and Misses report plan-level lookup counters.
func (c *CostCache) Hits() int64   { return c.hits.Load() }
func (c *CostCache) Misses() int64 { return c.misses.Load() }

// Len returns the number of cached plan evaluations.
func (c *CostCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.plans)
}

// count records one plan-level lookup.
func (c *CostCache) count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// planCost looks up the compact plan-cost index. The key is a byte slice so
// chain-local evaluators can assemble it in a reusable buffer; the map
// lookup's string conversion does not allocate.
func (c *CostCache) planCost(key []byte) (estimator.PlanCost, bool) {
	c.mu.RLock()
	pc, ok := c.costs[string(key)]
	c.mu.RUnlock()
	c.count(ok)
	return pc, ok
}

// storePlanCost records a compact plan cost computed on miss. Concurrent
// chains may race to fill the same key; evaluation is deterministic, so the
// values are identical and the last write wins.
func (c *CostCache) storePlanCost(key []byte, pc estimator.PlanCost) {
	c.mu.Lock()
	c.costs[string(key)] = pc
	c.mu.Unlock()
}

// Evaluate returns the memoized estimate of the plan, computing and caching
// it on miss. Concurrent callers may race to fill the same fingerprint; the
// evaluation is deterministic, so either result is identical and the last
// write wins. Errors (e.g. unassigned calls) are not cached.
func (c *CostCache) Evaluate(p *core.Plan) (*estimator.Result, error) {
	fp := p.Fingerprint()
	c.mu.RLock()
	r, ok := c.plans[fp]
	c.mu.RUnlock()
	c.count(ok)
	if ok {
		return r, nil
	}
	r, err := c.est.Evaluate(p)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.plans[fp] = r
	c.mu.Unlock()
	return r, nil
}
