// Package search implements the paper's execution-plan search (§5.2) behind
// a pluggable Solver interface: a greedy per-call seeder, a sequential
// Metropolis–Hastings MCMC walker, a parallel multi-chain MCMC solver with
// periodic best-plan exchange, and a bounded exhaustive search used as the
// optimality reference of Fig. 15. All solvers share a concurrency-safe
// memoized cost cache keyed by canonical plan fingerprints, so no plan is
// costed twice across chains or solves.
package search

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/gpumodel"
	"realhf/internal/memory"
	"realhf/internal/mesh"
	"realhf/internal/parallel"
)

// Problem bundles what every solver needs: the cost model and the plan
// template (cluster, graph, models; assignments may be empty). Solvers score
// candidates with Est exactly as given, so Est.OverlapComm selects the
// overlapped-engine cost semantics.
type Problem struct {
	Est  *estimator.Estimator
	Plan *core.Plan
}

// Solution is a solver's chosen plan with its estimate.
type Solution struct {
	Plan     *core.Plan
	Cost     float64
	Estimate *estimator.Result
}

// ChainStats reports one MCMC chain's work, for per-chain convergence
// reporting in cmd/realsearch.
type ChainStats struct {
	Chain    int
	Seed     int64
	Proposed int
	Accepted int
	BestCost float64
}

// Stats aggregates solver-side counters: step/acceptance totals, the
// convergence trace, the pruned-space size, cache effectiveness, and
// per-chain breakdowns for multi-chain solvers.
type Stats struct {
	// Steps counts solver steps. For the MCMC solvers it is the number of
	// proposals attempted, summed over chains — including proposals whose
	// evaluation failed — and always equals the sum of ChainStats.Proposed.
	// For the exhaustive solver it is the number of plans evaluated.
	Steps int
	// Accepted counts accepted Metropolis moves (summed over chains).
	Accepted int
	// Trace samples best-cost-so-far over search time. For multi-chain
	// solvers it is the merged global-best curve.
	Trace []ProgressPoint
	// SpaceLog10 is the log₁₀ size of the pruned joint candidate space.
	SpaceLog10 float64
	// CacheHits and CacheMisses count plan-level cost-cache lookups made
	// during this solve.
	CacheHits, CacheMisses int64
	// Chains carries per-chain counters for multi-chain solvers (one entry
	// for single-chain MCMC).
	Chains []ChainStats
}

// CacheHitRate is hits over total lookups (0 when no lookups happened).
func (s Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Solver finds an execution plan for a problem. Implementations must be
// deterministic for a fixed Options.Seed whenever the run is step-bounded
// (MaxSteps > 0): the same seed yields a byte-identical chosen plan.
type Solver interface {
	Name() string
	Solve(ctx context.Context, prob Problem, opt Options) (Solution, Stats, error)
}

// PruneLevel selects how aggressively the candidate space is cut before
// sampling (paper Fig. 14).
type PruneLevel int

const (
	// PruneNone keeps every legal mesh and factorization (tensor
	// parallelism is still capped at the node size — the paper prunes
	// cross-node TP unconditionally).
	PruneNone PruneLevel = iota
	// PruneModerate restricts multi-node meshes to power-of-two node spans
	// aligned to their size.
	PruneModerate
	// PruneAggressive additionally caps pipeline depth at 16 stages and
	// micro-batch counts at 8.
	PruneAggressive
)

// Options configures a search run.
type Options struct {
	// TimeLimit bounds wall-clock search time (default 5 s).
	TimeLimit time.Duration
	// MaxSteps bounds MCMC steps per chain (0 or negative = unbounded; the
	// time limit governs).
	MaxSteps int
	// Seed makes the chain deterministic. Multi-chain solvers derive each
	// chain's seed from it (chain 0 uses it verbatim, so a one-chain run
	// reproduces the sequential walker exactly).
	Seed int64
	// Prune selects the candidate-space pruning level.
	Prune PruneLevel
	// MaxCandidatesPerCall, when positive, shortlists each call's candidate
	// set to the N fastest individual assignments before sampling — the
	// knob behind the Fig. 14 pruning ablation (a cap of N yields a joint
	// space of ~N^calls plans). The exhaustive solver uses it as its
	// per-call shortlist width (default 6).
	MaxCandidatesPerCall int
	// Progress, when non-nil, streams every recorded ProgressPoint (periodic
	// samples and best-cost improvements) while the search runs — the hook
	// behind the public API's WithProgress option. Multi-chain solvers
	// serialize invocations, so the callback needs no locking of its own,
	// but it runs on the search's critical path and must be fast. Callback
	// order across chains is scheduling-dependent; the chosen plan is not.
	Progress func(ProgressPoint)
	// InitialPlan seeds the chain instead of the greedy plan. It must be
	// fully assigned.
	InitialPlan *core.Plan
	// SeedCandidates are additional fully-assigned plans evaluated alongside
	// the greedy seed; the chain starts from the cheapest. Warm-starting
	// from e.g. the symmetric heuristic lets short search budgets match the
	// paper's everywhere-better-than-baselines outcome.
	SeedCandidates []*core.Plan
	// RestrictCalls, when non-empty, limits MCMC moves to the named calls;
	// all other assignments stay frozen at the initial plan. Used by the
	// progressive-optimization breakdowns (paper Figs. 2 and 9).
	RestrictCalls []string
	// Chains is the number of parallel MCMC chains for the parallel-mcmc
	// solver: 0 means GOMAXPROCS-many, 1 runs a single chain (bit-identical
	// to the sequential walker), and the sequential solvers ignore it.
	Chains int
	// ExchangeEvery is the per-chain step interval between best-plan
	// exchanges in the parallel solver (default 256). Exchanges happen at
	// deterministic step boundaries so multi-chain runs stay reproducible.
	ExchangeEvery int
	// Cache optionally shares a cost cache across solver invocations (e.g.
	// re-planning the same problem with different solvers). When nil each
	// solve allocates its own. A non-nil cache must have been built for
	// Problem.Est (NewCostCache(prob.Est)); the solvers reject any other.
	Cache *CostCache
	// OffloadSearch makes host offload a searched plan dimension: candidate
	// enumeration emits an offloaded variant of every frozen-role assignment,
	// MCMC chains gain a dedicated offload-flip proposal move, and the
	// memory ledger becomes a hard constraint — a feasible plan beats any
	// infeasible one regardless of the OOM-penalized cost, so the search
	// cannot return an over-memory plan while a fitting one was seen. The
	// default (false) keeps every call device-resident (seed plans keep
	// their own per-call Offload bits), leaving existing solves, RNG streams
	// and golden plans byte-identical.
	OffloadSearch bool
}

func (o Options) withDefaults() Options {
	if o.TimeLimit == 0 {
		o.TimeLimit = 5 * time.Second
	}
	if o.ExchangeEvery == 0 {
		o.ExchangeEvery = 256
	}
	return o
}

// progressEvery is the step interval between periodic trace points.
const progressEvery = 64

// ProgressPoint is one sample of best-cost-so-far over search time.
type ProgressPoint struct {
	Elapsed  time.Duration
	Step     int
	BestCost float64
}

// --- solver registry ---

var solvers = map[string]func() Solver{
	"greedy":        func() Solver { return greedySolver{} },
	"mcmc":          func() Solver { return mcmcSolver{} },
	"parallel-mcmc": func() Solver { return parallelMCMCSolver{} },
	"exhaustive":    func() Solver { return exhaustiveSolver{} },
}

// New resolves a registered solver by name.
func New(name string) (Solver, error) {
	f, ok := solvers[name]
	if !ok {
		return nil, fmt.Errorf("search: unknown solver %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists the registered solver names, sorted.
func Names() []string {
	out := make([]string, 0, len(solvers))
	for name := range solvers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Solve resolves a solver by name and runs it.
func Solve(ctx context.Context, name string, prob Problem, opt Options) (Solution, Stats, error) {
	s, err := New(name)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	return s.Solve(ctx, prob, opt)
}

// --- candidate space construction, shared by every solver ---

// space is a solver's prepared move set: per-call candidate assignments,
// the movable call names (sorted for determinism), and the joint-space size.
// fullSets keeps the pre-shortlist enumeration: the greedy seed minimizes
// over it (as the original engine did) even when sampling is shortlisted.
// cands mirrors sets indexed by position in names, so the proposal loop
// draws candidates without a map lookup per step.
type space struct {
	sets       map[string][]core.Assignment
	fullSets   map[string][]core.Assignment
	names      []string
	cands      [][]core.Assignment
	spaceLog10 float64
	// frozen marks (per names index) calls of non-trainable roles — the
	// calls whose host-offload bit the OffloadSearch flip move may toggle.
	frozen []bool
}

// buildSpace enumerates (and optionally shortlists) the candidate sets and
// resolves the movable call names under opt.
func buildSpace(e *estimator.Estimator, p *core.Plan, opt Options) (*space, error) {
	full, spaceLog10, err := candidateSets(p, opt.Prune, opt.OffloadSearch)
	if err != nil {
		return nil, err
	}
	sets := full
	if opt.MaxCandidatesPerCall > 0 {
		sets, spaceLog10, err = shortlist(e, p, full, opt.MaxCandidatesPerCall, false)
		if err != nil {
			return nil, err
		}
	}
	names := make([]string, 0, len(sets))
	for name := range sets {
		if len(opt.RestrictCalls) > 0 && !contains(opt.RestrictCalls, name) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("search: no calls to search over")
	}
	cands := make([][]core.Assignment, len(names))
	frozen := make([]bool, len(names))
	byName := nodesByName(p)
	for i, name := range names {
		cands[i] = sets[name]
		if n := byName[name]; n != nil {
			frozen[i] = !p.Models[n.Role].Trainable
		}
	}
	return &space{sets: sets, fullSets: full, names: names, cands: cands, spaceLog10: spaceLog10, frozen: frozen}, nil
}

// enumMemo caches the pure enumeration helpers consulted while building
// candidate sets: parallel.Enumerate keyed by its (gpus, maxTP, maxPP)
// arguments and parallel.MicroBatchOptions keyed by the per-replica batch.
// Calls in one problem share meshes and mostly share model shapes, so the
// same enumerations recur across every (call, mesh) pair; memoizing them
// removes the bulk of candidate-set construction's allocations. A nil memo
// disables caching (each lookup recomputes).
type enumMemo struct {
	strategies map[[3]int][]parallel.Strategy
	microBatch map[int][]int
}

func newEnumMemo() *enumMemo {
	return &enumMemo{
		strategies: map[[3]int][]parallel.Strategy{},
		microBatch: map[int][]int{},
	}
}

func (m *enumMemo) enumerate(gpus, maxTP, maxPP int) []parallel.Strategy {
	if m == nil {
		return parallel.Enumerate(gpus, maxTP, maxPP)
	}
	key := [3]int{gpus, maxTP, maxPP}
	sts, ok := m.strategies[key]
	if !ok {
		sts = parallel.Enumerate(gpus, maxTP, maxPP)
		m.strategies[key] = sts
	}
	return sts
}

func (m *enumMemo) microBatchOptions(perDP int) []int {
	if m == nil {
		return parallel.MicroBatchOptions(perDP)
	}
	mbs, ok := m.microBatch[perDP]
	if !ok {
		mbs = parallel.MicroBatchOptions(perDP)
		m.microBatch[perDP] = mbs
	}
	return mbs
}

// candidates enumerates the legal assignments of one call under the pruning
// level. meshes is the cluster's mesh enumeration and memo caches the inner
// strategy/micro-batch enumerations; both are hoisted by the caller because
// they are identical (or heavily shared) across calls, and recomputing them
// per call dominated candidate-set construction.
//
// The offload axis: with offloadSearch set, every layout of a frozen role is
// emitted twice — device-resident and host-offloaded — so every solver
// (greedy seeding, MCMC redraws, the exhaustive cross product) explores the
// offload decision. Without it only the resident variant is emitted.
func candidates(p *core.Plan, call *dfg.Node, lvl PruneLevel, meshes []mesh.Mesh, memo *enumMemo, offloadSearch bool) []core.Assignment {
	ms := p.Models[call.Role]
	batch := call.Work.Batch
	if call.Type == dfg.Train && call.Work.MiniBatches > 1 {
		batch /= call.Work.MiniBatches
	}
	maxPP := ms.Cfg.NumLayers
	maxMB := 32
	if lvl >= PruneAggressive {
		if maxPP > 16 {
			maxPP = 16
		}
		maxMB = 8
	}
	var out []core.Assignment
	for _, m := range meshes {
		if lvl >= PruneModerate && m.Count > p.Cluster.GPUsPerNode {
			span := m.Count / p.Cluster.GPUsPerNode
			if span&(span-1) != 0 || m.FirstNode()%span != 0 {
				continue
			}
		}
		maxTP := p.Cluster.GPUsPerNode // the paper's unconditional TP prune
		if m.Count < maxTP {
			maxTP = m.Count
		}
		for _, st := range memo.enumerate(m.Count, maxTP, maxPP) {
			if batch > 0 && batch%st.DP != 0 {
				continue
			}
			perDP := batch / st.DP
			if perDP == 0 {
				perDP = 1
			}
			for _, mb := range memo.microBatchOptions(perDP) {
				if mb > maxMB {
					break
				}
				a := core.Assignment{Mesh: m, Strategy: st.WithMicroBatches(mb)}
				if err := a.Strategy.Validate(m, ms.Cfg, batch); err != nil {
					continue
				}
				// Drop candidates whose own working set cannot fit the
				// device even with nothing else resident: they can never be
				// part of a feasible plan.
				spec := gpumodel.CallSpec{
					Cfg: ms.Cfg, IsCritic: ms.IsCritic, Type: call.Type,
					Work: call.Work, Strategy: a.Strategy, Mesh: a.Mesh,
				}
				if memory.Active(spec) > p.Cluster.GPU.MemoryBytes {
					continue
				}
				out = append(out, a)
				if offloadSearch && !ms.Trainable {
					a.Offload = true
					out = append(out, a)
				}
			}
		}
	}
	return out
}

// candidateSets precomputes per-call candidate lists and the joint space
// size.
func candidateSets(p *core.Plan, lvl PruneLevel, offloadSearch bool) (map[string][]core.Assignment, float64, error) {
	sets := map[string][]core.Assignment{}
	var log10 float64
	meshes := mesh.Enumerate(p.Cluster)
	memo := newEnumMemo()
	for _, n := range p.Graph.Nodes {
		if _, ok := sets[n.Name]; ok {
			continue
		}
		c := candidates(p, n, lvl, meshes, memo, offloadSearch)
		if len(c) == 0 {
			return nil, 0, fmt.Errorf("search: call %q has no legal assignment", n.Name)
		}
		sets[n.Name] = c
		log10 += math.Log10(float64(len(c)))
	}
	return sets, log10, nil
}

// callTime estimates the standalone duration of one call under a candidate
// assignment, without constructing a full plan. Assignments whose working
// set cannot plausibly coexist with the role's static memory receive an
// infeasibility surcharge, so greedy seeding and shortlists prefer layouts
// that can actually run.
func callTime(e *estimator.Estimator, p *core.Plan, n *dfg.Node, a core.Assignment) (float64, error) {
	ms, ok := p.Models[n.Role]
	if !ok {
		return 0, fmt.Errorf("search: role %q has no model", n.Role)
	}
	mc, ok := e.Costers[n.Role]
	if !ok {
		return 0, fmt.Errorf("search: role %q has no coster", n.Role)
	}
	spec := gpumodel.CallSpec{
		Cfg: ms.Cfg, IsCritic: ms.IsCritic, Type: n.Type, Work: n.Work,
		Strategy: a.Strategy, Mesh: a.Mesh,
	}
	t := gpumodel.AssembleCall(mc, e.Comm, spec).Total()
	if a.Offload {
		// An offloaded call pays the PCIe reload of its parameter shard every
		// invocation — the time side of the memory it releases.
		t += e.Comm.OffloadTransfer(memory.ParamShardBytes(ms.Params(), a.Strategy))
	}
	static := memory.Static(ms.Params(), a.Strategy, memory.StaticOpts{
		Trainable: ms.Trainable, ShardOptimizerOverDP: true,
		OffloadParams: a.Offload && !ms.Trainable,
	})
	if memory.Active(spec)+static > p.Cluster.GPU.MemoryBytes {
		t *= estimator.OOMPenalty
	}
	return t, nil
}

// nodesByName returns a representative dfg node for each distinct call name.
func nodesByName(p *core.Plan) map[string]*dfg.Node {
	out := map[string]*dfg.Node{}
	for _, n := range p.Graph.Nodes {
		if _, ok := out[n.Name]; !ok {
			out[n.Name] = n
		}
	}
	return out
}

// shortlist keeps the topK individually fastest candidates of each call.
// With dedupeLayouts set, only the best micro-batch variant of each
// (mesh, dp, tp, pp) layout survives, so a small K still spans genuinely
// different memory/speed trade-offs — essential for the exhaustive search,
// where K same-layout variants would make every joint combination inherit
// the same static-memory footprint.
func shortlist(e *estimator.Estimator, p *core.Plan, sets map[string][]core.Assignment, topK int, dedupeLayouts bool) (map[string][]core.Assignment, float64, error) {
	byName := nodesByName(p)
	out := map[string][]core.Assignment{}
	var log10 float64
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cands := sets[name]
		n := byName[name]
		type scored struct {
			a core.Assignment
			t float64
		}
		all := make([]scored, 0, len(cands))
		for _, a := range cands {
			t, err := callTime(e, p, n, a)
			if err != nil {
				continue
			}
			all = append(all, scored{a, t})
		}
		if len(all) == 0 {
			return nil, 0, fmt.Errorf("search: no costable assignment for %q", name)
		}
		sort.Slice(all, func(x, y int) bool { return all[x].t < all[y].t })
		if dedupeLayouts {
			seen := map[core.Assignment]bool{}
			dedup := all[:0]
			for _, s := range all {
				key := s.a
				key.Strategy.MicroBatches = 0
				if seen[key] {
					continue
				}
				seen[key] = true
				dedup = append(dedup, s)
			}
			all = dedup
		}
		if topK > 0 && len(all) > topK {
			all = all[:topK]
		}
		list := make([]core.Assignment, len(all))
		for i, s := range all {
			list[i] = s.a
		}
		out[name] = list
		log10 += math.Log10(float64(len(list)))
	}
	return out, log10, nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
