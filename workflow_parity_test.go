package realhf

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"realhf/internal/baselines"
	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/model"
	"realhf/internal/runtime"
)

// ppoPaperNames maps the PPO preset's default call names onto the paper
// table's; the other presets already use the paper's names.
var ppoPaperNames = map[string]string{
	"actor/GENERATE":    "ActorGen",
	"reward/INFERENCE":  "RewInf",
	"ref/INFERENCE":     "RefInf",
	"critic/INFERENCE":  "CriticInf",
	"actor/TRAIN_STEP":  "ActorTrain",
	"critic/TRAIN_STEP": "CriticTrain",
}

// presetOnlyEdges are the data edges the public presets wire and the paper
// tables do not (paper names, within one iteration): the presets also feed
// generation output straight into training. Every other edge is shared.
var presetOnlyEdges = map[string][][2]string{
	"ppo":   {{"ActorGen", "ActorTrain"}, {"ActorGen", "CriticTrain"}},
	"grpo":  {{"ActorGen", "ActorTrain"}},
	"remax": {{"SampleGen", "ActorTrain"}},
}

// TestPresetsMatchPaperTables lowers each public RPC preset and the paper
// table of the same algorithm at 1, 2 and 4 nodes over 1 and 2 iterations,
// and holds them equal call for call (name, role, type, workload,
// iteration), in their model casts, in their edges up to presetOnlyEdges,
// and in the estimate and runtime makespans of their heuristic plans. An
// edit to either table alone fails it.
func TestPresetsMatchPaperTables(t *testing.T) {
	for _, algo := range []string{"ppo", "dpo", "grpo", "remax"} {
		for _, nodes := range []int{1, 2, 4} {
			for _, iters := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%dnode/%diter", algo, nodes, iters), func(t *testing.T) {
					checkPresetParity(t, algo, nodes, iters)
				})
			}
		}
	}
}

func checkPresetParity(t *testing.T, algo string, nodes, iters int) {
	rpcs, err := AlgoRPCs(algo, "llama7b", "llama7b-critic")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExperimentConfig{
		Nodes: nodes, BatchSize: 64 * nodes, PromptLen: 256, GenLen: 256,
		Iterations: iters, RPCs: rpcs,
	}.withDefaults()
	pub, pubModels, err := buildGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := dfg.Build(algo, dfg.Spec{
		Batch: cfg.BatchSize, PromptLen: cfg.PromptLen, GenLen: cfg.GenLen,
		MiniBatches: cfg.MiniBatches, Iterations: iters,
	})
	if err != nil {
		t.Fatal(err)
	}
	paperModels := core.ModelsFor(paper, model.LLaMA7B, model.LLaMA7B)
	name := func(n *dfg.Node) string {
		if algo == "ppo" {
			return ppoPaperNames[n.Name]
		}
		return n.Name
	}

	if len(pub.Nodes) != len(paper.Nodes) {
		t.Fatalf("preset has %d calls, paper table %d", len(pub.Nodes), len(paper.Nodes))
	}
	for i, p := range pub.Nodes {
		q := paper.Nodes[i]
		if name(p) != q.Name || p.Role != q.Role || p.Type != q.Type || p.Iter != q.Iter || p.Work != q.Work {
			t.Errorf("call %d: preset %s(%s) %+v, paper %+v", i, p.Name, name(p), *p, *q)
		}
	}
	if !reflect.DeepEqual(pubModels, paperModels) {
		t.Errorf("model casts differ:\npreset %+v\npaper  %+v", pubModels, paperModels)
	}

	edges := func(g *dfg.Graph, name func(*dfg.Node) string) map[string]bool {
		out := map[string]bool{}
		for _, n := range g.Nodes {
			for _, p := range g.Parents(n) {
				out[fmt.Sprintf("%s@%d->%s@%d", name(p), p.Iter, name(n), n.Iter)] = true
			}
		}
		return out
	}
	want := edges(paper, func(n *dfg.Node) string { return n.Name })
	for it := 0; it < iters; it++ {
		for _, e := range presetOnlyEdges[algo] {
			want[fmt.Sprintf("%s@%d->%s@%d", e[0], it, e[1], it)] = true
		}
	}
	if got := edges(pub, name); !reflect.DeepEqual(got, want) {
		t.Errorf("edges differ beyond the allow-list:\npreset %v\nwant   %v", sortedKeys(got), sortedKeys(want))
	}

	// The extra edges never cost anything on a symmetric plan: every call
	// shares one mesh and layout, so they carry no transfer.
	hw := hardware.DefaultCluster(nodes)
	type outcome struct {
		cost, estimate, overlapEstimate, serial, overlap float64
		maxMem                                           int64
	}
	run := func(g *dfg.Graph, models map[dfg.Role]core.ModelSpec) outcome {
		plan, err := baselines.BuildHeuristic(hw, g, models)
		if err != nil {
			t.Fatal(err)
		}
		est := estimator.NewOracle(hw, models)
		res, err := est.Evaluate(plan)
		if err != nil {
			t.Fatal(err)
		}
		est.OverlapComm = true
		over, err := est.Evaluate(plan)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := runtime.Run(plan, runtime.Options{UseCUDAGraph: true})
		if err != nil {
			t.Fatal(err)
		}
		overlap, err := runtime.Run(plan, runtime.Options{UseCUDAGraph: true, OverlapComm: true})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{res.Cost, res.TimeCost, over.TimeCost, serial.MakespanV, overlap.MakespanV, res.MaxMem}
	}
	if a, b := run(pub, pubModels), run(paper, paperModels); a != b {
		t.Errorf("heuristic plans differ: preset %+v, paper %+v", a, b)
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
