package search

import (
	"sync"
	"sync/atomic"

	"realhf/internal/core"
	"realhf/internal/estimator"
)

// CostCache memoizes the estimator at two granularities, safely shared by
// concurrent search chains:
//
//   - plan level: the full estimator.Result keyed by the plan's canonical
//     Fingerprint plus the estimator's schedule semantics (OverlapComm) and
//     profile calibration (CalibrationKey), so a plan revisited by any chain
//     is never re-simulated, and serialized, overlap-aware and calibrated
//     solves of one problem can share a cache without poisoning each
//     other's entries;
//   - node level: the duration of each augmented-graph node keyed by its
//     inputs — (call, mesh, strategy) for call nodes, (role/bytes, src, dst)
//     for transfer-style nodes — so even a brand-new plan only pays for the
//     assignments it actually changed.
//
// Cached Results are shared pointers and must be treated as immutable.
//
// A cache is scoped to one (problem, estimator) pair: node keys assume the
// problem's fixed mapping from call names to (role, workload, model) and the
// estimator's fixed cost tables. Never share one across different problems
// or estimators.
type CostCache struct {
	mu    sync.RWMutex
	plans map[string]*estimator.Result

	nodeMu sync.RWMutex
	nodes  map[string]float64

	// costs is the compact plan-cost index: the PlanCost summary of every
	// plan scored through the solvers' incremental sessions, keyed exactly
	// like plans (fingerprint plus semantics prefix). It is deliberately
	// separate from plans — the hot path never materializes timelines, and
	// full Results are only built for chosen plans — but both levels count
	// into the same hit/miss statistics.
	costMu sync.RWMutex
	costs  map[string]estimator.PlanCost

	hits, misses atomic.Int64
}

// NewCostCache allocates an empty cache.
func NewCostCache() *CostCache {
	return &CostCache{
		plans: make(map[string]*estimator.Result),
		nodes: make(map[string]float64),
		costs: make(map[string]estimator.PlanCost),
	}
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

// appendNodeKey canonically encodes one augmented-graph node's cost inputs
// into b. Node durations depend only on these inputs (the estimator's
// NodeDuration is pure), so the key is safe across plans and chains within
// one problem. Call nodes additionally key on the call's current assignment
// (the plan varies underneath a stable name) and on the estimator's
// calibration key — profile feedback rescales call durations, so a
// calibrated estimator must never read (or write) the uncalibrated entries.
func appendNodeKey(b []byte, e *estimator.Estimator, p *core.Plan, n *core.AugNode) []byte {
	b = append(b, byte('0'+int(n.Kind)))
	b = append(b, '|')
	switch n.Kind {
	case core.KindCall:
		// Within one problem a call name fixes (role, type, workload); the
		// duration is iteration-independent, so iterations share entries.
		b = append(b, n.Call.Name...)
		if a, ok := p.AssignmentOf(n.Call); ok {
			b = append(b, '@')
			b = a.AppendFingerprint(b)
		}
		if ck := e.CalibrationKey(); ck != "" {
			b = append(b, "|calib="...)
			b = append(b, ck...)
		}
	default:
		b = append(b, string(n.Role)...)
		b = append(b, '#')
		b = appendInt64(b, n.Bytes)
		b = append(b, '#')
		b = n.Src.AppendFingerprint(b)
		b = append(b, '>')
		b = n.Dst.AppendFingerprint(b)
	}
	return b
}

func appendInt64(b []byte, v int64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// nodeDuration memoizes one node's duration, delegating to the estimator on
// miss.
func (c *CostCache) nodeDuration(e *estimator.Estimator, p *core.Plan, n *core.AugNode) (float64, error) {
	d, _, err := c.nodeDurationBuf(e, p, n, nil)
	return d, err
}

// nodeDurationBuf is nodeDuration with a caller-owned key buffer: the key is
// assembled in buf (grown as needed and returned for reuse), the lookup's
// string conversion does not allocate, and a string is only materialized
// when a computed duration is stored. Chain-local DurationFunc closures use
// it so steady-state lookups stay allocation-free.
func (c *CostCache) nodeDurationBuf(e *estimator.Estimator, p *core.Plan, n *core.AugNode, buf []byte) (float64, []byte, error) {
	buf = appendNodeKey(buf[:0], e, p, n)
	c.nodeMu.RLock()
	d, ok := c.nodes[string(buf)]
	c.nodeMu.RUnlock()
	if ok {
		return d, buf, nil
	}
	d, err := e.NodeDuration(p, n)
	if err != nil {
		return 0, buf, err
	}
	c.nodeMu.Lock()
	c.nodes[string(buf)] = d
	c.nodeMu.Unlock()
	return d, buf, nil
}

// planCost looks up the compact plan-cost index. The key is a byte slice so
// chain-local evaluators can assemble it in a reusable buffer; the map
// lookup's string conversion does not allocate. Counts into the plan-level
// hit/miss statistics.
func (c *CostCache) planCost(key []byte) (estimator.PlanCost, bool) {
	c.costMu.RLock()
	pc, ok := c.costs[string(key)]
	c.costMu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return pc, ok
}

// storePlanCost records a compact plan cost computed on miss. Concurrent
// chains may race to fill the same key; evaluation is deterministic, so the
// values are identical and the last write wins.
func (c *CostCache) storePlanCost(key []byte, pc estimator.PlanCost) {
	c.costMu.Lock()
	c.costs[string(key)] = pc
	c.costMu.Unlock()
}

// DurationFunc adapts the cache's node-level memo to the estimator's
// DurationFunc shape — the shared fallback incremental EvalSessions consult
// on session-local misses, so node durations cross chains and solver
// invocations exactly as they do on the full evaluation path (including
// CalibrationKey isolation for call nodes). The returned closure owns a key
// buffer and is therefore single-goroutine, like the session it backs; the
// cache underneath remains safely shared.
func (c *CostCache) DurationFunc(e *estimator.Estimator) estimator.DurationFunc {
	var buf []byte
	return func(p *core.Plan, n *core.AugNode) (float64, error) {
		d, b, err := c.nodeDurationBuf(e, p, n, buf)
		buf = b
		return d, err
	}
}

// Evaluate returns the memoized estimate of the plan, computing and caching
// it on miss. Concurrent callers may race to fill the same fingerprint; the
// evaluation is deterministic, so either result is identical and the last
// write wins. Errors (e.g. unassigned calls) are not cached.
func (c *CostCache) Evaluate(e *estimator.Estimator, p *core.Plan) (*estimator.Result, error) {
	// Node durations are schedule-independent, but the simulated makespan is
	// not: the overlapped engine gives comm nodes their own lane. Key the
	// plan-level entry by the semantics — and by the estimator's calibration,
	// which rescales call durations — so differently-costed evaluations of
	// one plan never alias.
	fp := p.Fingerprint()
	if e.OverlapComm {
		fp = "overlap|" + fp
	}
	if ck := e.CalibrationKey(); ck != "" {
		fp = "calib=" + ck + "|" + fp
	}
	c.mu.RLock()
	r, ok := c.plans[fp]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return r, nil
	}
	c.misses.Add(1)
	r, err := e.EvaluateWith(p, func(pl *core.Plan, n *core.AugNode) (float64, error) {
		return c.nodeDuration(e, pl, n)
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.plans[fp] = r
	c.mu.Unlock()
	return r, nil
}
