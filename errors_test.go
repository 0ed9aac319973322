package realhf

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"realhf/internal/search"
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

// TestConfigShapeValidation is the table of shape rules beyond sign checks:
// GPUsPerNode must be a modelled host size (legal meshes tile a node with
// power-of-two slices), MiniBatches must not exceed BatchSize, and each
// RPC's BatchScale and MiniBatches must give a workload that neither
// overflows nor has an empty mini-batch, with one producer per data key
// and one call per name.
// Every planning entry point rejects them with ErrInvalidConfig before any
// search runs; the boundary values plan.
func TestConfigShapeValidation(t *testing.T) {
	p := NewPlanner(ClusterConfig{})
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		set   func(*ExperimentConfig)
		valid bool
	}{
		{"GPUsPerNode=3", func(c *ExperimentConfig) { c.GPUsPerNode = 3 }, false},
		{"GPUsPerNode=6", func(c *ExperimentConfig) { c.GPUsPerNode = 6 }, false},
		{"GPUsPerNode=32", func(c *ExperimentConfig) { c.GPUsPerNode = 32 }, false},
		{"GPUsPerNode=16384", func(c *ExperimentConfig) { c.GPUsPerNode = 16384 }, false},
		{"MiniBatches>BatchSize", func(c *ExperimentConfig) { c.BatchSize, c.MiniBatches = 1, 8 }, false},
		{"MiniBatches=10000", func(c *ExperimentConfig) { c.BatchSize, c.MiniBatches = 512, 10000 }, false},
		{"default MiniBatches>BatchSize", func(c *ExperimentConfig) { c.BatchSize = 4 }, false},
		{"GPUsPerNode=4", func(c *ExperimentConfig) { c.GPUsPerNode = 4 }, true},
		{"MiniBatches=BatchSize", func(c *ExperimentConfig) { c.BatchSize, c.MiniBatches = 8, 8 }, true},
		// Per-call RPC fields (call 4 is actor/TRAIN_STEP): each of these
		// used to plan a wrong workload instead of failing.
		{"BatchScale<0", func(c *ExperimentConfig) { c.RPCs[0].BatchScale = -2 }, false},
		{"BatchScale overflows", func(c *ExperimentConfig) { c.RPCs[4].BatchScale = 1 << 62 }, false},
		{"call MiniBatches<0", func(c *ExperimentConfig) { c.RPCs[4].MiniBatches = -1 }, false},
		{"call MiniBatches=1000", func(c *ExperimentConfig) { c.RPCs[4].MiniBatches = 1000 }, false},
		{"call MiniBatches=1<<40", func(c *ExperimentConfig) { c.RPCs[4].MiniBatches = 1 << 40 }, false},
		{"call MiniBatches>scaled batch", func(c *ExperimentConfig) {
			c.RPCs[4].BatchScale, c.RPCs[4].MiniBatches = 2, 2*64+1
		}, false},
		{"duplicate producer", func(c *ExperimentConfig) { c.RPCs[3].OutputData = []string{"r"} }, false},
		{"duplicate call name", func(c *ExperimentConfig) { c.RPCs[3].Name = "ref/INFERENCE" }, false},
		{"call MiniBatches=scaled batch", func(c *ExperimentConfig) {
			c.RPCs[4].BatchScale, c.RPCs[4].MiniBatches = 2, 2*64
		}, true},
	} {
		cfg := fastConfig()
		cfg.SearchSteps = 20
		tc.set(&cfg)
		_, planErr := p.Plan(ctx, cfg)
		_, heurErr := p.Heuristic(cfg)
		for i, err := range []error{planErr, heurErr} {
			entry := [...]string{"Plan", "Heuristic"}[i]
			if tc.valid && err != nil {
				t.Errorf("%s: %s: %v, want a plan", tc.name, entry, err)
			}
			if !tc.valid && !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s: %s: %v, want wrapped ErrInvalidConfig", tc.name, entry, err)
			}
		}
	}
}

// TestNoLegalAssignmentIsInfeasible: a config whose generation call cannot
// fit any single device under any strategy is well-formed but infeasible,
// so Planner.Plan classifies the solver's typed error under
// ErrInfeasibleMemory and keeps it in the chain for errors.As.
func TestNoLegalAssignmentIsInfeasible(t *testing.T) {
	cfg := fastConfig()
	cfg.GenLen = 1 << 30
	_, err := NewPlanner(ClusterConfig{}).Plan(context.Background(), cfg)
	if !errors.Is(err, ErrInfeasibleMemory) || errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("GenLen=1<<30: %v, want wrapped ErrInfeasibleMemory only", err)
	}
	var noLegal *search.ErrNoLegalAssignment
	if !errors.As(err, &noLegal) || noLegal.Call == "" {
		t.Errorf("GenLen=1<<30: %v, want a *search.ErrNoLegalAssignment naming the call", err)
	}
}
