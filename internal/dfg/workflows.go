package dfg

import "fmt"

// GRPOGroupSize is GRPO's per-prompt response-group size (8 in the paper).
const GRPOGroupSize = 8

// Workflow returns the call table of a paper algorithm: "ppo" (Fig. 4),
// "dpo", "grpo" or "remax" (Fig. 16). The tables name their calls as the
// paper's plan tables do, and their data keys wire exactly the paper's
// edges; the public RPC presets (realhf.AlgoRPCs) wire the same algorithms
// with extra generation→training data edges.
func Workflow(algo string) ([]Call, error) {
	switch algo {
	case "ppo":
		// ActorGen → {RewInf, RefInf, CriticInf} → {ActorTrain, CriticTrain}.
		train := []string{"r", "ref_logp", "v"}
		return []Call{
			{Name: "ActorGen", Role: Actor, Type: Generate, Inputs: []string{"prompts"}, Outputs: []string{"seq"}},
			{Name: "RewInf", Role: Reward, Type: Inference, Inputs: []string{"seq"}, Outputs: []string{"r"}},
			{Name: "RefInf", Role: Ref, Type: Inference, Inputs: []string{"seq"}, Outputs: []string{"ref_logp"}},
			{Name: "CriticInf", Role: Critic, Type: Inference, Inputs: []string{"seq"}, Outputs: []string{"v"}},
			{Name: "ActorTrain", Role: Actor, Type: Train, Inputs: train},
			{Name: "CriticTrain", Role: Critic, Type: Train, Inputs: train},
		}, nil
	case "dpo":
		// RefInf → ActorTrain over preference pairs: no generation, no
		// critic. Both the chosen and rejected sequence of every pair pass
		// through each call, and training runs over the full batch.
		return []Call{
			{Name: "RefInf", Role: Ref, Type: Inference, BatchScale: 2,
				Inputs: []string{"pairs"}, Outputs: []string{"ref_logp"}},
			{Name: "ActorTrain", Role: Actor, Type: Train, BatchScale: 2, MiniBatches: 1,
				Inputs: []string{"pairs", "ref_logp"}},
		}, nil
	case "grpo":
		// Grouped ActorGen → {RewInf, RefInf} → ActorTrain; no critic, as
		// advantages are group-normalized rewards.
		return []Call{
			{Name: "ActorGen", Role: Actor, Type: Generate, BatchScale: GRPOGroupSize,
				Inputs: []string{"prompts"}, Outputs: []string{"seq"}},
			{Name: "RewInf", Role: Reward, Type: Inference, BatchScale: GRPOGroupSize,
				Inputs: []string{"seq"}, Outputs: []string{"r"}},
			{Name: "RefInf", Role: Ref, Type: Inference, BatchScale: GRPOGroupSize,
				Inputs: []string{"seq"}, Outputs: []string{"ref_logp"}},
			{Name: "ActorTrain", Role: Actor, Type: Train, BatchScale: GRPOGroupSize,
				Inputs: []string{"r", "ref_logp"}},
		}, nil
	case "remax":
		// Two mutually independent generations (sampled and greedy) feed
		// two reward inferences; training consumes both rewards, the greedy
		// one as the variance-reduction baseline.
		return []Call{
			{Name: "SampleGen", Role: Actor, Type: Generate, Inputs: []string{"prompts"}, Outputs: []string{"sample_seq"}},
			{Name: "GreedyGen", Role: Actor, Type: Generate, Inputs: []string{"prompts"}, Outputs: []string{"greedy_seq"}},
			{Name: "SampleRew", Role: Reward, Type: Inference, Inputs: []string{"sample_seq"}, Outputs: []string{"sample_r"}},
			{Name: "GreedyRew", Role: Reward, Type: Inference, Inputs: []string{"greedy_seq"}, Outputs: []string{"greedy_r"}},
			{Name: "ActorTrain", Role: Actor, Type: Train, MiniBatches: 1, Inputs: []string{"sample_r", "greedy_r"}},
		}, nil
	}
	return nil, fmt.Errorf("dfg: unknown algorithm %q", algo)
}

// Build lowers the named paper workflow under s.
func Build(algo string, s Spec) (*Graph, error) {
	calls, err := Workflow(algo)
	if err != nil {
		return nil, err
	}
	return Lower(algo, calls, s)
}

// MustBuild is Build for fixed, known-good workflows; it panics on error.
func MustBuild(algo string, s Spec) *Graph {
	g, err := Build(algo, s)
	if err != nil {
		panic(err)
	}
	return g
}
