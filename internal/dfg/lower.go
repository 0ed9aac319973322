package dfg

import (
	"fmt"
	"math"
	"slices"
)

// Spec carries the workload knobs a call table is lowered under.
type Spec struct {
	// Batch is the global number of prompts per iteration.
	Batch int
	// PromptLen and GenLen are per-sequence token counts. The paper's base
	// setting uses prompt 1024, generation 1024 (context 2048).
	PromptLen int
	GenLen    int
	// MiniBatches is the PPO mini-batch count of Train calls (8 in the
	// paper's base setting, after InstructGPT).
	MiniBatches int
	// Iterations is how many consecutive RLHF iterations to concatenate.
	Iterations int
}

func (s Spec) withDefaults() Spec {
	if s.MiniBatches == 0 {
		s.MiniBatches = 8
	}
	if s.Iterations == 0 {
		s.Iterations = 1
	}
	return s
}

// Call declares one model function call of a workflow, in the shape of the
// paper's user interface (Fig. 18): calls on the same Role share parameters,
// and a call depends on whichever call of its iteration produces one of its
// Inputs. Inputs nobody produces (e.g. "prompts") come from outside the
// graph.
type Call struct {
	Name    string
	Role    Role
	Type    CallType
	Inputs  []string
	Outputs []string
	// BatchScale multiplies Spec.Batch for this call (0 or 1: unscaled):
	// GRPO's grouped generation and DPO's chosen+rejected pairs.
	BatchScale int
	// MiniBatches overrides Spec.MiniBatches for a Train call (0 keeps it).
	MiniBatches int
}

// workload resolves the call's data shape under s, rejecting per-call
// fields that would corrupt it: negative knobs, a scaled batch that
// overflows, and more mini-batches than the call has sequences.
func (c Call) workload(s Spec) (Workload, error) {
	if c.BatchScale < 0 || c.MiniBatches < 0 {
		return Workload{}, fmt.Errorf("dfg: call %q: BatchScale (%d) and MiniBatches (%d) must not be negative",
			c.Name, c.BatchScale, c.MiniBatches)
	}
	w := Workload{Batch: s.Batch, PromptLen: s.PromptLen, GenLen: s.GenLen}
	if c.BatchScale > 1 {
		if s.Batch > math.MaxInt/c.BatchScale {
			return Workload{}, fmt.Errorf("dfg: call %q: batch %d × BatchScale %d overflows", c.Name, s.Batch, c.BatchScale)
		}
		w.Batch *= c.BatchScale
	}
	switch c.Type {
	case Generate, Inference:
	case Train:
		w.MiniBatches = s.MiniBatches
		if c.MiniBatches > 0 {
			w.MiniBatches = c.MiniBatches
		}
		// Every mini-batch needs at least one sequence.
		if w.MiniBatches > w.Batch {
			return Workload{}, fmt.Errorf("dfg: call %q: MiniBatches (%d) exceeds its batch (%d)", c.Name, w.MiniBatches, w.Batch)
		}
	default:
		return Workload{}, fmt.Errorf("dfg: call %q: unknown call type %v", c.Name, c.Type)
	}
	return w, nil
}

// Lower builds the dataflow graph of a call table repeated over
// s.Iterations. It is the only graph builder: the paper workflows and the
// public RPC lists both come through it. Call names are unique, each output
// key has one producer, and a call gets one data edge per distinct producer
// of its inputs (self-inputs and unproduced keys add none). Across
// iterations, each call depends on its role's Train call of the previous
// iteration (the parameter-version edge; with several, the last in table
// order).
func Lower(algo string, calls []Call, s Spec) (*Graph, error) {
	s = s.withDefaults()
	works := make([]Workload, len(calls))
	producer := map[string]int{}
	named := map[string]bool{}
	for i, c := range calls {
		w, err := c.workload(s)
		if err != nil {
			return nil, err
		}
		works[i] = w
		// Plans assign and time calls by name.
		if named[c.Name] {
			return nil, fmt.Errorf("dfg: two calls are named %q", c.Name)
		}
		named[c.Name] = true
		for _, out := range c.Outputs {
			if j, dup := producer[out]; dup && j != i {
				return nil, fmt.Errorf("dfg: calls %q and %q both produce %q", calls[j].Name, c.Name, out)
			}
			producer[out] = i
		}
	}

	g := NewGraph(algo)
	nodes := make([]*Node, len(calls))
	var prevTrain map[Role]*Node
	for t := 0; t < s.Iterations; t++ {
		for i, c := range calls {
			nodes[i] = g.AddNode(c.Name, c.Role, c.Type, t, works[i])
		}
		for i, c := range calls {
			var wired []int
			for _, in := range c.Inputs {
				j, ok := producer[in]
				if !ok || j == i || slices.Contains(wired, j) {
					continue
				}
				wired = append(wired, j)
				g.AddEdge(nodes[j], nodes[i])
			}
		}
		for i, c := range calls {
			if prev := prevTrain[c.Role]; prev != nil {
				g.AddEdge(prev, nodes[i])
			}
		}
		prevTrain = map[Role]*Node{}
		for i, c := range calls {
			if c.Type == Train {
				prevTrain[c.Role] = nodes[i]
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
