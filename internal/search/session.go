package search

import (
	"encoding/binary"
	"sort"

	"realhf/internal/core"
	"realhf/internal/estimator"
)

// planEvaluator is a chain-local incremental scorer: an estimator.EvalSession
// for delta re-costing plus the shared CostCache's compact plan-cost index.
// Plans any chain has scored before are served from the cache without
// touching the estimator; brand-new plans pay only for the augmented-graph
// nodes their last mutation changed, memoized in the chain's own session.
//
// The index key packs one 4-byte assignment ID per call, in sorted call-name
// order, with IDs from the cache's shared intern table. The evaluator
// remembers each call's last assignment and ID, so building a key re-interns
// only the calls whose assignment changed since the previous key — after a
// single-call proposal, one.
//
// A planEvaluator is single-goroutine state (each chain owns one); all
// cross-chain sharing happens through the concurrency-safe cache underneath.
type planEvaluator struct {
	cache *CostCache
	sess  *estimator.EvalSession
	names []string          // sorted call names, fixed per problem
	last  []core.Assignment // per names index: assignment behind ids
	ids   []uint32          // per names index: interned ID, 0 = not yet interned
	buf   []byte            // reusable key buffer
}

func newPlanEvaluator(cache *CostCache, p *core.Plan) *planEvaluator {
	names := p.CallNames()
	sort.Strings(names)
	return &planEvaluator{
		cache: cache,
		sess:  cache.est.NewSession(nil),
		names: names,
		last:  make([]core.Assignment, len(names)),
		ids:   make([]uint32, len(names)),
		buf:   make([]byte, 4*len(names)),
	}
}

// key packs the plan's per-call assignment IDs into the reusable buffer,
// little-endian, 0 for an unassigned call.
func (ev *planEvaluator) key(p *core.Plan) []byte {
	for i, name := range ev.names {
		var id uint32
		if a, ok := p.Assign[name]; ok {
			if ev.ids[i] == 0 || ev.last[i] != a {
				ev.last[i], ev.ids[i] = a, ev.cache.intern(a)
			}
			id = ev.ids[i]
		}
		binary.LittleEndian.PutUint32(ev.buf[4*i:], id)
	}
	return ev.buf
}

// cost returns the plan's compact cost: served from the shared cache when
// any chain has scored this plan, delta re-costed through the session
// otherwise. Errors are not cached, mirroring CostCache.Evaluate.
func (ev *planEvaluator) cost(p *core.Plan) (estimator.PlanCost, error) {
	key := ev.key(p)
	if pc, ok := ev.cache.planCost(key); ok {
		return pc, nil
	}
	pc, err := ev.sess.Evaluate(p)
	if err != nil {
		return estimator.PlanCost{}, err
	}
	ev.cache.storePlanCost(key, pc)
	return pc, nil
}
