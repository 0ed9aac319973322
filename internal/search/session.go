package search

import (
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
// A planEvaluator is single-goroutine state (each chain owns one); all
// cross-chain sharing happens through the concurrency-safe cache underneath.
type planEvaluator struct {
	cache *CostCache
	sess  *estimator.EvalSession
	names []string // sorted call names, fixed per problem
	buf   []byte   // reusable key buffer
}

func newPlanEvaluator(cache *CostCache, p *core.Plan) *planEvaluator {
	names := p.CallNames()
	sort.Strings(names)
	return &planEvaluator{
		cache: cache,
		sess:  cache.est.NewSession(nil),
		names: names,
	}
}

// key writes the plan's canonical fingerprint (same encoding as
// core.Plan.Fingerprint) into the reusable buffer.
func (ev *planEvaluator) key(p *core.Plan) []byte {
	b := ev.buf[:0]
	for _, name := range ev.names {
		b = append(b, name...)
		b = append(b, '=')
		if a, ok := p.Assign[name]; ok {
			b = a.AppendFingerprint(b)
		} else {
			b = append(b, '!')
		}
		b = append(b, ';')
	}
	ev.buf = b
	return b
}

// cost returns the plan's compact cost: served from the shared cache when
// any chain has scored this fingerprint, delta re-costed through the session
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
