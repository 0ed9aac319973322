package realhf

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestErrorTaxonomy pins the exported error taxonomy the plan service maps
// onto HTTP statuses: every rejection class is detectable with errors.Is —
// no string matching — and ErrInvalidRunOptions stays a sub-class of
// ErrInvalidConfig so existing callers keep working.
func TestErrorTaxonomy(t *testing.T) {
	if !errors.Is(ErrInvalidRunOptions, ErrInvalidConfig) {
		t.Error("ErrInvalidRunOptions must wrap ErrInvalidConfig")
	}

	p := NewPlanner(ClusterConfig{})
	ctx := context.Background()

	// Config validation failures.
	if _, err := p.Plan(ctx, ExperimentConfig{}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("empty config: %v, want wrapped ErrInvalidConfig", err)
	}
	bad := fastConfig()
	bad.Solver = "annealing"
	if _, err := p.Plan(ctx, bad); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("unknown solver: %v, want wrapped ErrInvalidConfig", err)
	}
	if _, err := AlgoRPCs("alignprop", "llama7b", "llama7b"); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("unknown algo: %v, want wrapped ErrInvalidConfig", err)
	}
	// A negative step bound is rejected up front; the solver never starts
	// (it would otherwise walk until the deadline).
	neg := fastConfig()
	neg.SearchSteps = -1
	bounded, cancelNeg := context.WithTimeout(ctx, 10*time.Second)
	if _, err := p.Plan(bounded, neg); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("negative SearchSteps: %v, want wrapped ErrInvalidConfig", err)
	}
	cancelNeg()
	// So are negative sizes and a negative time bound (withDefaults has
	// already filled the zeros): a negative GPUsPerNode would panic in the
	// estimator, other sizes would plan a nonsense workload.
	for _, tc := range []struct {
		field string
		set   func(*ExperimentConfig)
	}{
		{"GPUsPerNode", func(c *ExperimentConfig) { c.GPUsPerNode = -8 }},
		{"BatchSize", func(c *ExperimentConfig) { c.BatchSize = -5 }},
		{"PromptLen", func(c *ExperimentConfig) { c.PromptLen = -1 }},
		{"GenLen", func(c *ExperimentConfig) { c.GenLen = -100 }},
		{"MiniBatches", func(c *ExperimentConfig) { c.MiniBatches = -2 }},
		{"Iterations", func(c *ExperimentConfig) { c.Iterations = -1 }},
		{"SearchTime", func(c *ExperimentConfig) { c.SearchTime = -time.Second }},
	} {
		cfg := fastConfig()
		tc.set(&cfg)
		if _, err := p.Plan(ctx, cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("negative %s: %v, want wrapped ErrInvalidConfig", tc.field, err)
		}
	}
	if _, err := p.Plan(ctx, fastConfig(), WithCalibrationFactors(map[string]float64{"actor/GENERATE": -1})); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("negative calibration factor: %v, want wrapped ErrInvalidConfig", err)
	}

	// Cancellation, before and during the solve.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.Plan(canceled, fastConfig()); !errors.Is(err, ErrSolveCanceled) {
		t.Errorf("pre-canceled context: %v, want wrapped ErrSolveCanceled", err)
	}
	short, cancel2 := context.WithCancel(ctx)
	go cancel2()
	big := fastConfig()
	big.SearchSteps = 50_000_000
	if _, err := p.Plan(short, big); !errors.Is(err, ErrSolveCanceled) {
		t.Errorf("mid-solve cancel: %v, want wrapped ErrSolveCanceled", err)
	}

	// Memory feasibility: a 7B cast on a node fits; a 70B cast does not.
	fits, err := p.Plan(ctx, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fits.FeasibleMemory(); err != nil {
		t.Errorf("7B cast reported infeasible: %v", err)
	}
	// A stored plan that decodes on its own terms but does not validate once
	// re-attached to the config: the file marks actor frozen and offloads
	// its calls, while the config trains actor.
	data, err := fits.MarshalPlan()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc["models"].([]any) {
		if m := m.(map[string]any); m["role"] == "actor" {
			delete(m, "trainable")
		}
	}
	for name, a := range doc["assignments"].(map[string]any) {
		if strings.HasPrefix(name, "actor/") {
			a.(map[string]any)["offload"] = true
		}
	}
	mismatched, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadExperimentBytes(mismatched, fastConfig()); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("stored plan offloading a role the config trains: %v, want wrapped ErrInvalidConfig", err)
	}
	oomCfg := fastConfig()
	oomCfg.RPCs = PPORPCs("llama70b", "llama70b-critic")
	oomCfg.Solver = "greedy"
	oom, err := p.Plan(ctx, oomCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oom.FeasibleMemory(); !errors.Is(err, ErrInfeasibleMemory) {
		t.Errorf("70B-on-one-node cast: %v, want wrapped ErrInfeasibleMemory", err)
	}

	// The classes are disjoint.
	if errors.Is(ErrInvalidConfig, ErrInfeasibleMemory) || errors.Is(ErrInfeasibleMemory, ErrSolveCanceled) ||
		errors.Is(ErrSolveCanceled, ErrInvalidConfig) {
		t.Error("error taxonomy classes must be disjoint")
	}
}
