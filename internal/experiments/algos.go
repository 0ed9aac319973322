package experiments

import (
	"fmt"
	"strings"

	"realhf/internal/model"
)

// Fig16Row compares ReaL against the heuristic for one RLHF algorithm.
type Fig16Row struct {
	Algo        string
	RealPFLOPs  float64
	HeurPFLOPs  float64
	Improvement float64
}

// Fig16 regenerates the beyond-PPO comparison: DPO, GRPO, and ReMax with a
// 70B actor and 7B reward-size models on 16 nodes (paper Fig. 16). The
// paper's shape: ReMax gains most (its two generation calls run
// concurrently under ReaL), GRPO least (its grouped batch is
// compute-bounded).
func Fig16(nodes, steps int, actor, small model.Config) ([]Fig16Row, string, error) {
	var rows []Fig16Row
	for i, algo := range []string{"dpo", "grpo", "remax"} {
		s := PaperSetting(nodes, actor, small)
		s.Algo = algo
		// GRPO generates dfg.GRPOGroupSize=8 responses per prompt,
		// multiplying the effective batch 8× — the paper notes this makes
		// its workload compute-bounded and shrinks ReaL's relative gain.
		pr, err := NewProblem(s)
		if err != nil {
			return nil, "", err
		}
		heur, err := pr.HeuristicPlan()
		if err != nil {
			return nil, "", err
		}
		_, heurTP, err := pr.Measure(heur)
		if err != nil {
			return nil, "", err
		}
		res, _, err := pr.SearchPlan(steps, int64(1000+i))
		if err != nil {
			return nil, "", err
		}
		_, realTP, err := pr.Measure(res.Plan)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, Fig16Row{
			Algo: algo, RealPFLOPs: realTP, HeurPFLOPs: heurTP,
			Improvement: (realTP - heurTP) / heurTP,
		})
	}
	var b strings.Builder
	b.WriteString(header("Figure 16: RLHF algorithms beyond PPO"))
	fmt.Fprintf(&b, "%-8s %14s %14s %12s\n", "Algo", "Heuristic PF/s", "ReaL PF/s", "Improvement")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %14.2f %14.2f %+11.1f%%\n",
			strings.ToUpper(r.Algo), r.HeurPFLOPs, r.RealPFLOPs, 100*r.Improvement)
	}
	return rows, b.String(), nil
}
