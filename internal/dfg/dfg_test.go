package dfg

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func baseSpec() Spec {
	return Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, MiniBatches: 8, Iterations: 1}
}

func TestPPOShape(t *testing.T) {
	g := MustBuild("ppo", baseSpec())
	if len(g.Nodes) != 6 {
		t.Fatalf("PPO iteration has %d calls, want 6", len(g.Nodes))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("PPO graph invalid: %v", err)
	}
	byName := map[string]*Node{}
	for _, n := range g.Nodes {
		byName[n.Name] = n
	}
	gen := byName["ActorGen"]
	if len(g.Parents(gen)) != 0 {
		t.Error("ActorGen of iteration 0 must be a source")
	}
	if len(g.Children(gen)) != 3 {
		t.Errorf("ActorGen feeds %d calls, want 3 inferences", len(g.Children(gen)))
	}
	at := byName["ActorTrain"]
	if len(g.Parents(at)) != 3 {
		t.Errorf("ActorTrain has %d parents, want 3", len(g.Parents(at)))
	}
	if at.Work.MiniBatches != 8 {
		t.Errorf("ActorTrain mini-batches = %d, want 8", at.Work.MiniBatches)
	}
}

func TestPPOMultiIterationVersionEdges(t *testing.T) {
	s := baseSpec()
	s.Iterations = 3
	g := MustBuild("ppo", s)
	if len(g.Nodes) != 18 {
		t.Fatalf("3 iterations have %d calls, want 18", len(g.Nodes))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// ActorGen at iteration 1 must depend on ActorTrain at iteration 0.
	var gen1 *Node
	for _, n := range g.CallsOfIter(1) {
		if n.Name == "ActorGen" {
			gen1 = n
		}
	}
	found := false
	for _, p := range g.Parents(gen1) {
		if p.Name == "ActorTrain" && p.Iter == 0 {
			found = true
		}
	}
	if !found {
		t.Error("missing parameter-version edge ActorTrain(0) -> ActorGen(1)")
	}
}

func TestTopoSortRespectsDependencies(t *testing.T) {
	s := baseSpec()
	s.Iterations = 4
	g := MustBuild("ppo", s)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for i, n := range order {
		pos[n.ID] = i
	}
	for _, n := range g.Nodes {
		for _, p := range g.Parents(n) {
			if pos[p.ID] >= pos[n.ID] {
				t.Fatalf("topo order violates edge %s(%d) -> %s(%d)", p.Name, p.Iter, n.Name, n.Iter)
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewGraph("test")
	a := g.AddNode("A", Actor, Train, 0, Workload{Batch: 1})
	b := g.AddNode("B", Actor, Train, 0, Workload{Batch: 1})
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if err := g.Validate(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestDPOShape(t *testing.T) {
	g := MustBuild("dpo", baseSpec())
	if len(g.Nodes) != 2 {
		t.Fatalf("DPO has %d calls, want 2", len(g.Nodes))
	}
	roles := g.Roles()
	if len(roles) != 2 || roles[0] != Actor || roles[1] != Ref {
		t.Errorf("DPO roles = %v, want [actor ref]", roles)
	}
	for _, n := range g.Nodes {
		if n.Type == Generate {
			t.Error("DPO has no generation call")
		}
		if n.Work.Batch != 2*512 {
			t.Errorf("DPO processes chosen+rejected: batch %d, want 1024", n.Work.Batch)
		}
	}
}

func TestGRPOShape(t *testing.T) {
	g := MustBuild("grpo", baseSpec())
	if len(g.Nodes) != 4 {
		t.Fatalf("GRPO has %d calls, want 4", len(g.Nodes))
	}
	for _, r := range g.Roles() {
		if r == Critic {
			t.Error("GRPO must not use a critic")
		}
	}
	for _, n := range g.Nodes {
		if n.Work.Batch != 512*8 {
			t.Errorf("GRPO grouped batch = %d, want 4096", n.Work.Batch)
		}
	}
}

func TestReMaxConcurrentGenerations(t *testing.T) {
	g := MustBuild("remax", baseSpec())
	if len(g.Nodes) != 5 {
		t.Fatalf("ReMax has %d calls, want 5", len(g.Nodes))
	}
	var gens []*Node
	for _, n := range g.Nodes {
		if n.Type == Generate {
			gens = append(gens, n)
		}
	}
	if len(gens) != 2 {
		t.Fatalf("ReMax has %d generation calls, want 2", len(gens))
	}
	// The two generations must be mutually independent (this is what lets
	// ReaL run them concurrently, the paper's biggest Fig. 16 win).
	for _, a := range gens {
		for _, b := range g.Children(a) {
			if b.Type == Generate {
				t.Error("generation calls must not depend on each other")
			}
		}
	}
	if len(g.Sources()) != 2 {
		t.Errorf("ReMax iteration 0 has %d sources, want the 2 generations", len(g.Sources()))
	}
}

func TestBuildDispatch(t *testing.T) {
	for _, algo := range []string{"ppo", "dpo", "grpo", "remax"} {
		g, err := Build(algo, baseSpec())
		if err != nil {
			t.Errorf("Build(%q): %v", algo, err)
			continue
		}
		if g.Algo != algo {
			t.Errorf("Build(%q).Algo = %q", algo, g.Algo)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("Build(%q) invalid: %v", algo, err)
		}
	}
	if _, err := Build("a2c", baseSpec()); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestWorkloadArithmetic(t *testing.T) {
	w := Workload{Batch: 512, PromptLen: 1024, GenLen: 1024}
	if w.SeqLen() != 2048 {
		t.Errorf("SeqLen = %d", w.SeqLen())
	}
	if w.TotalTokens() != 512*2048 {
		t.Errorf("TotalTokens = %d", w.TotalTokens())
	}
}

// TestWorkflowParents pins every paper table's two-iteration parent lists,
// node order included. The lists are the ones the hand-wired builders that
// preceded the tables produced, kept verbatim; the lowering adds one
// transitive version edge to them, ActorTrain(0)→ActorTrain(1).
func TestWorkflowParents(t *testing.T) {
	builders := map[string][]string{
		"ppo": {
			"ActorGen@0 <-",
			"RewInf@0 <- ActorGen@0",
			"RefInf@0 <- ActorGen@0",
			"CriticInf@0 <- ActorGen@0",
			"ActorTrain@0 <- RewInf@0 RefInf@0 CriticInf@0",
			"CriticTrain@0 <- RewInf@0 RefInf@0 CriticInf@0",
			"ActorGen@1 <- ActorTrain@0",
			"RewInf@1 <- ActorGen@1",
			"RefInf@1 <- ActorGen@1",
			"CriticInf@1 <- ActorGen@1 CriticTrain@0",
			"ActorTrain@1 <- RewInf@1 RefInf@1 CriticInf@1",
			"CriticTrain@1 <- RewInf@1 RefInf@1 CriticInf@1 CriticTrain@0",
		},
		"dpo": {
			"RefInf@0 <-",
			"ActorTrain@0 <- RefInf@0",
			"RefInf@1 <-",
			"ActorTrain@1 <- RefInf@1 ActorTrain@0",
		},
		"grpo": {
			"ActorGen@0 <-",
			"RewInf@0 <- ActorGen@0",
			"RefInf@0 <- ActorGen@0",
			"ActorTrain@0 <- RewInf@0 RefInf@0",
			"ActorGen@1 <- ActorTrain@0",
			"RewInf@1 <- ActorGen@1",
			"RefInf@1 <- ActorGen@1",
			"ActorTrain@1 <- RewInf@1 RefInf@1",
		},
		"remax": {
			"SampleGen@0 <-",
			"GreedyGen@0 <-",
			"SampleRew@0 <- SampleGen@0",
			"GreedyRew@0 <- GreedyGen@0",
			"ActorTrain@0 <- SampleRew@0 GreedyRew@0",
			"SampleGen@1 <- ActorTrain@0",
			"GreedyGen@1 <- ActorTrain@0",
			"SampleRew@1 <- SampleGen@1",
			"GreedyRew@1 <- GreedyGen@1",
			"ActorTrain@1 <- SampleRew@1 GreedyRew@1",
		},
	}
	for algo, want := range builders {
		// DPO's builder already had the edge: its ActorTrain has no
		// generation call in front of it.
		if algo != "dpo" {
			want = append([]string(nil), want...)
			for i, line := range want {
				if strings.HasPrefix(line, "ActorTrain@1 ") {
					want[i] += " ActorTrain@0"
				}
			}
		}
		s := baseSpec()
		s.Iterations = 2
		if got := parentLines(MustBuild(algo, s)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s parents:\n got %q\nwant %q", algo, got, want)
		}
	}
}

// parentLines renders each node as "Name@iter <- parents..." in ID order.
func parentLines(g *Graph) []string {
	out := make([]string, len(g.Nodes))
	for i, n := range g.Nodes {
		line := fmt.Sprintf("%s@%d <-", n.Name, n.Iter)
		for _, p := range g.Parents(n) {
			line += fmt.Sprintf(" %s@%d", p.Name, p.Iter)
		}
		out[i] = line
	}
	return out
}

// TestLowerRejectsMalformedCalls: per-call fields that would corrupt a
// workload, a second producer of one key and a second call of one name are
// errors, not graphs.
func TestLowerRejectsMalformedCalls(t *testing.T) {
	gen := Call{Name: "gen", Role: Actor, Type: Generate, Outputs: []string{"seq"}}
	train := Call{Name: "train", Role: Actor, Type: Train, Inputs: []string{"seq"}}
	s := Spec{Batch: 64, PromptLen: 16, GenLen: 16}
	for _, tc := range []struct {
		name  string
		edit  func(gen, train *Call)
		valid bool
	}{
		{"negative BatchScale", func(_, tr *Call) { tr.BatchScale = -1 }, false},
		{"negative MiniBatches", func(_, tr *Call) { tr.MiniBatches = -1 }, false},
		{"overflowing BatchScale", func(g, _ *Call) { g.BatchScale = 1 << 62 }, false},
		{"MiniBatches above the batch", func(_, tr *Call) { tr.MiniBatches = 65 }, false},
		{"MiniBatches above the scaled batch", func(_, tr *Call) { tr.BatchScale, tr.MiniBatches = 2, 129 }, false},
		{"duplicate producer", func(_, tr *Call) { tr.Outputs = []string{"seq"} }, false},
		{"duplicate name", func(_, tr *Call) { tr.Name = "gen" }, false},
		{"unknown call type", func(g, _ *Call) { g.Type = 7 }, false},
		{"MiniBatches at the scaled batch", func(_, tr *Call) { tr.BatchScale, tr.MiniBatches = 2, 128 }, true},
		{"output listed twice by one call", func(g, _ *Call) { g.Outputs = []string{"seq", "seq"} }, true},
	} {
		g, tr := gen, train
		tc.edit(&g, &tr)
		_, err := Lower("test", []Call{g, tr}, s)
		if tc.valid != (err == nil) {
			t.Errorf("%s: err = %v, want valid=%v", tc.name, err, tc.valid)
		}
	}
}

// Property: all builders produce DAGs whose per-iteration call count is
// constant, for any iteration count.
func TestBuildersScaleWithIterations(t *testing.T) {
	perIter := map[string]int{"ppo": 6, "dpo": 2, "grpo": 4, "remax": 5}
	f := func(it uint8) bool {
		iters := int(it%5) + 1
		for algo, per := range perIter {
			s := baseSpec()
			s.Iterations = iters
			g, err := Build(algo, s)
			if err != nil || len(g.Nodes) != per*iters || g.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCallTypeString(t *testing.T) {
	if Generate.String() != "generate" || Inference.String() != "inference" || Train.String() != "train" {
		t.Error("CallType strings wrong")
	}
}
