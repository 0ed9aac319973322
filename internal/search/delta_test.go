package search

import (
	"math/rand"
	"sync"
	"testing"

	"realhf/internal/core"
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
