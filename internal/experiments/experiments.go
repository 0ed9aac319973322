// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) on the simulated cluster: end-to-end baseline comparisons,
// heuristic comparisons across context lengths, progressive-optimization
// breakdowns, kernel traces, GPU-time decompositions, estimator/profiler
// studies, search ablations, beyond-PPO algorithms, and strong scaling.
// DESIGN.md maps each experiment to its paper artifact; EXPERIMENTS.md
// records paper-vs-measured outcomes.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"realhf/internal/baselines"
	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/model"
	"realhf/internal/runtime"
	"realhf/internal/search"
)

// Setting is one experiment instance: a cluster scale, a model pair, and a
// workload.
type Setting struct {
	Nodes       int
	Actor       model.Config
	Critic      model.Config
	Batch       int
	PromptLen   int
	GenLen      int
	MiniBatches int
	Algo        string // "ppo" (default), "dpo", "grpo", "remax"
	Iterations  int
}

// PaperSetting returns the paper's base configuration (Appendix A —
// InstructGPT-style: batch 512, prompt 1024, generation 1024, 8 PPO
// mini-batches) at the given scale. Weak-scaling settings scale the batch
// with the device count (512 per 16 GPUs).
func PaperSetting(nodes int, actor, critic model.Config) Setting {
	batch := 512 * nodes / 2
	if batch < 32 {
		batch = 32
	}
	return Setting{
		Nodes: nodes, Actor: actor, Critic: critic,
		Batch: batch, PromptLen: 1024, GenLen: 1024,
		MiniBatches: 8, Algo: "ppo", Iterations: 1,
	}
}

// WithContext rescales the setting to a different context length at a fixed
// token budget, as the paper does for the 8192-token experiments (batch
// shrinks by the same factor the context grows).
func (s Setting) WithContext(ctx int) Setting {
	oldCtx := s.PromptLen + s.GenLen
	s.Batch = s.Batch * oldCtx / ctx
	if s.Batch < 8 {
		s.Batch = 8
	}
	s.PromptLen = 1024
	s.GenLen = ctx - s.PromptLen
	return s
}

// Cluster returns the hardware model at this setting's scale.
func (s Setting) Cluster() hardware.Cluster { return hardware.DefaultCluster(s.Nodes) }

// Graph builds the setting's dataflow graph.
func (s Setting) Graph() (*dfg.Graph, error) {
	algo := s.Algo
	if algo == "" {
		algo = "ppo"
	}
	return dfg.Build(algo, dfg.Spec{
		Batch: s.Batch, PromptLen: s.PromptLen, GenLen: s.GenLen,
		MiniBatches: s.MiniBatches, Iterations: s.Iterations,
	})
}

// Problem bundles everything needed to plan and run a setting.
type Problem struct {
	Setting Setting
	Cluster hardware.Cluster
	Graph   *dfg.Graph
	Models  map[dfg.Role]core.ModelSpec
	Est     *estimator.Estimator
}

// NewProblem materializes a setting with ground-truth (oracle) costers.
func NewProblem(s Setting) (*Problem, error) {
	return s.problem(s.Cluster(), nil)
}

// problem is the one problem assembly: the setting's graph and cast on hw,
// with recast (if non-nil) editing the cast before the oracle costers are
// built.
func (s Setting) problem(hw hardware.Cluster, recast func(map[dfg.Role]core.ModelSpec)) (*Problem, error) {
	g, err := s.Graph()
	if err != nil {
		return nil, err
	}
	models := core.ModelsFor(g, s.Actor, s.Critic)
	if recast != nil {
		recast(models)
	}
	return &Problem{
		Setting: s, Cluster: hw, Graph: g, Models: models,
		Est: estimator.NewOracle(hw, models),
	}, nil
}

// EmptyPlan returns an unassigned plan for the problem.
func (pr *Problem) EmptyPlan() *core.Plan {
	return core.NewPlan(pr.Cluster, pr.Graph, pr.Models)
}

// WarmStarts builds the baseline placements (symmetric heuristic and the
// split-placement systems) used as SeedCandidates: all of them lie inside
// the search space, and starting from the cheapest lets the reduced step
// budgets of this reproduction match the paper's
// better-than-every-baseline outcome.
func (pr *Problem) WarmStarts() []*core.Plan {
	var seeds []*core.Plan
	for _, sys := range []baselines.System{baselines.Heuristic, baselines.NeMoAligner, baselines.OpenRLHF} {
		if p, err := baselines.Build(sys, pr.Cluster, pr.Graph, pr.Models); err == nil {
			seeds = append(seeds, p)
		}
	}
	return seeds
}

// Solve runs the named solver from the registry over this problem,
// warm-started with the baseline placements unless opt brings its own
// SeedCandidates. overlap=true scores candidates with the overlapped-engine
// estimator (estimator.Estimator.OverlapComm) — the schedule the runtime
// executes with communication streams enabled — instead of the serialized
// one.
func (pr *Problem) Solve(overlap bool, solver string, opt search.Options) (search.Solution, search.Stats, error) {
	if opt.SeedCandidates == nil {
		opt.SeedCandidates = pr.WarmStarts()
	}
	est := pr.Est
	if overlap {
		ov := *pr.Est
		ov.OverlapComm = true
		est = &ov
	}
	return search.Solve(context.Background(), solver, search.Problem{Est: est, Plan: pr.EmptyPlan()}, opt)
}

// SearchPlan runs the sequential MCMC planner under the serialized cost
// semantics with a fixed step budget and seed.
func (pr *Problem) SearchPlan(steps int, seed int64) (search.Solution, search.Stats, error) {
	return pr.Solve(false, "mcmc", search.Options{MaxSteps: steps, Seed: seed})
}

// SearchPlanOverlapWarm is the canonical overlap-aware solve of the
// ±overlap-search comparisons (Table 6, the ablation, the CI benchmark):
// MCMC under the overlapped cost semantics, warm-started from the
// serialized winner on top of the shared baseline seeds — which guarantees
// the result's overlapped-cost estimate never exceeds the serialized
// plan's. Keeping the seeding policy in one place keeps that invariant
// identical across every artifact that pins it.
func (pr *Problem) SearchPlanOverlapWarm(steps int, seed int64, serialized *core.Plan) (search.Solution, search.Stats, error) {
	return pr.Solve(true, "mcmc", search.Options{
		MaxSteps: steps, Seed: seed,
		SeedCandidates: append(pr.WarmStarts(), serialized),
	})
}

// HeuristicPlan builds the REAL-Heuristic baseline plan.
func (pr *Problem) HeuristicPlan() (*core.Plan, error) {
	return baselines.BuildHeuristic(pr.Cluster, pr.Graph, pr.Models)
}

// Measure executes a plan on the simulated cluster and returns the run
// report plus its per-iteration throughput in PFLOP/s. Runs that hit OOM
// report zero throughput — the paper plots such configurations as failures.
// The schedule is the serialized baseline; MeasureWith exposes the ±overlap
// knob.
func (pr *Problem) Measure(p *core.Plan) (*runtime.Report, float64, error) {
	return pr.MeasureWith(p, runtime.Options{UseCUDAGraph: true})
}

// MeasureWith is Measure under explicit runtime options (e.g. OverlapComm
// for the overlapped engine of §6).
func (pr *Problem) MeasureWith(p *core.Plan, opts runtime.Options) (*runtime.Report, float64, error) {
	rep, err := runtime.Run(p, opts)
	if err != nil {
		return nil, 0, err
	}
	if rep.OOM {
		return rep, 0, nil
	}
	tp := estimator.Throughput(p, rep.MakespanV)
	return rep, tp, nil
}

// row formatting helpers shared by the figure reports.

func header(title string) string {
	line := strings.Repeat("=", len(title))
	return fmt.Sprintf("%s\n%s\n", title, line)
}

func gb(b int64) float64 { return float64(b) / (1 << 30) }
