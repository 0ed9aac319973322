package experiments

import (
	"fmt"
	"strings"

	"realhf/internal/core"
	"realhf/internal/estimator"
	"realhf/internal/model"
	"realhf/internal/realloc"
	"realhf/internal/runtime"
	"realhf/internal/search"
)

// DriftRow is one iteration of the generation-length-drift campaign: the
// same workload executed under the frozen iteration-0 plan and under the
// replanning schedule.
type DriftRow struct {
	Iter   int
	GenLen int
	// FrozenV and ReplanV are the iteration makespans (virtual seconds) of
	// the two campaigns; SwitchCost is the §5-priced parameter-reallocation
	// charge the replanning campaign paid before this iteration (0 when the
	// incumbent plan was kept).
	FrozenV, ReplanV, SwitchCost float64
	// Switched reports the replanning campaign adopted a new plan.
	Switched bool
}

// DriftSummary totals a campaign comparison.
type DriftSummary struct {
	// FrozenTotalV and ReplanTotalV are whole-campaign virtual times; the
	// replanning total includes every switch charge.
	FrozenTotalV, ReplanTotalV float64
	// SwitchCostV is the reallocation charge alone; Switches counts adopted
	// plan changes.
	SwitchCostV float64
	Switches    int
	// Gain is (frozen − replan) / frozen.
	Gain float64
}

// driftGenLen is the §8 ramp the ablation executes: generation length
// halving from 1024 to 128 over the campaign (responses shortening as the
// policy sharpens). The iteration-0 plan stays memory-feasible throughout —
// pressure only decreases — but grows increasingly over-conservative, which
// is exactly the staleness replanning recovers.
func driftGenLen(iter int) int {
	g := 1024 >> iter
	if g < 128 {
		g = 128
	}
	return g
}

// AblationGenLenDrift quantifies the paper's §8 limitation from the
// system side: a plan chosen once is frozen forever even as the workload
// drifts. Both campaigns execute the same generation-length ramp over one
// persistent runtime.WorkerPool (reset between iterations, never rebuilt):
//
//   - frozen: the iteration-0 plan (searched at the initial length under
//     the overlapped cost semantics) executes every iteration;
//   - replanning: each time the scheduled length changes, the plan is
//     re-searched — warm-started from the incumbent re-attached to the new
//     workload, so the estimate never regresses — and adopted only when the
//     predicted gain covers the realloc.SwitchCost charged between
//     iterations.
//
// The returned summary includes the switch charges in the replanning total,
// so a positive Gain means replanning wins even after paying for every
// parameter move — the same accounting the public Trainer session applies
// and BenchmarkTrainerReplan gates in CI.
func AblationGenLenDrift(nodes, steps, iters int, seed int64) ([]DriftRow, DriftSummary, string, error) {
	base := Setting{
		Nodes: nodes, Actor: model.LLaMA7B, Critic: model.LLaMA7B,
		Batch: 128 * nodes, PromptLen: 256, GenLen: driftGenLen(0),
		MiniBatches: 8, Algo: "ppo", Iterations: 1,
	}
	pr0, err := NewProblem(base)
	if err != nil {
		return nil, DriftSummary{}, "", err
	}
	res0, _, err := pr0.Solve(true, "mcmc", search.Options{MaxSteps: steps, Seed: seed})
	if err != nil {
		return nil, DriftSummary{}, "", err
	}
	frozen := res0.Plan

	pool := runtime.NewWorkerPool(pr0.Cluster.NumGPUs(), pr0.Cluster.GPU.MemoryBytes)
	defer pool.Close()
	runIteration := func(p *core.Plan) (*runtime.Report, error) {
		if err := pool.Reset(estimator.StaticPerGPU(p)); err != nil {
			return nil, err
		}
		return pool.Run(p, runtime.Options{UseCUDAGraph: true, OverlapComm: true})
	}

	incumbent := frozen
	var rows []DriftRow
	var sum DriftSummary
	for iter := 0; iter < iters; iter++ {
		realized := base
		realized.GenLen = driftGenLen(iter)
		pr, err := NewProblem(realized)
		if err != nil {
			return nil, DriftSummary{}, "", err
		}
		// Overlapped cost semantics throughout: the campaigns execute on the
		// overlapped engine, so estimates must predict that schedule.
		est := *pr.Est
		est.OverlapComm = true

		reattach := func(src *core.Plan) (*core.Plan, *estimator.Result, error) {
			p := pr.EmptyPlan()
			for name, a := range src.Assign {
				p.Assign[name] = a
			}
			if err := p.Validate(); err != nil {
				return nil, nil, err
			}
			r, err := est.Evaluate(p)
			return p, r, err
		}

		frozenPlan, _, err := reattach(frozen)
		if err != nil {
			return nil, DriftSummary{}, "", err
		}
		frozenRep, err := runIteration(frozenPlan)
		if err != nil {
			return nil, DriftSummary{}, "", err
		}

		row := DriftRow{Iter: iter, GenLen: realized.GenLen, FrozenV: frozenRep.MakespanV}
		stalePlan, staleRes, err := reattach(incumbent)
		if err != nil {
			return nil, DriftSummary{}, "", err
		}
		if iter > 0 && realized.GenLen != driftGenLen(iter-1) {
			fresh, _, err := pr.Solve(true, "mcmc", search.Options{
				MaxSteps: steps, Seed: seed,
				SeedCandidates: append(pr.WarmStarts(), stalePlan),
			})
			if err != nil {
				return nil, DriftSummary{}, "", err
			}
			cost := realloc.SwitchCost(stalePlan, fresh.Plan, pr.Cluster)
			if fresh.Plan.Fingerprint() != stalePlan.Fingerprint() &&
				fresh.Cost+cost < staleRes.Cost {
				incumbent, stalePlan = fresh.Plan, fresh.Plan
				row.SwitchCost, row.Switched = cost, true
				sum.SwitchCostV += cost
				sum.Switches++
			}
		}
		replanRep, err := runIteration(stalePlan)
		if err != nil {
			return nil, DriftSummary{}, "", err
		}
		row.ReplanV = replanRep.MakespanV
		sum.FrozenTotalV += row.FrozenV
		sum.ReplanTotalV += row.ReplanV + row.SwitchCost
		rows = append(rows, row)
	}
	if sum.FrozenTotalV > 0 {
		sum.Gain = (sum.FrozenTotalV - sum.ReplanTotalV) / sum.FrozenTotalV
	}

	var b strings.Builder
	b.WriteString(header("Ablation: GenLen drift — frozen plan vs replanning campaign (switch costs charged)"))
	fmt.Fprintf(&b, "%-6s %8s %11s %11s %11s %9s\n",
		"Iter", "GenLen", "Frozen(s)", "Replan(s)", "Switch(s)", "Switched")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %8d %11.2f %11.2f %11.3f %9v\n",
			r.Iter, r.GenLen, r.FrozenV, r.ReplanV, r.SwitchCost, r.Switched)
	}
	fmt.Fprintf(&b, "%-6s %8s %11.2f %11.2f %11.3f %8.1f%%\n",
		"total", "", sum.FrozenTotalV, sum.ReplanTotalV, sum.SwitchCostV, 100*sum.Gain)
	b.WriteString("\nReplanning pays for its parameter moves and still finishes the campaign\n")
	b.WriteString("sooner; the frozen plan leaves the short-generation iterations on a\n")
	b.WriteString("layout sized for the long ones (the §8 staleness the Trainer closes).\n")
	return rows, sum, b.String(), nil
}
