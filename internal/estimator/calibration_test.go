package estimator

import (
	"testing"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/gpumodel"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
)

func calibPlan(t *testing.T) (*core.Plan, *Estimator) {
	t.Helper()
	cluster := hardware.DefaultCluster(1)
	g := dfg.BuildPPO(dfg.Spec{Batch: 64, PromptLen: 256, GenLen: 256, Iterations: 1})
	p := core.NewPlan(cluster, g, core.PPOModels(model.LLaMA7B, model.LLaMA7B))
	full := mesh.Full(cluster)
	st := parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 1}
	for _, name := range p.CallNames() {
		p.Assign[name] = core.Assignment{Mesh: full, Strategy: st}
	}
	costers := map[dfg.Role]gpumodel.ModelCoster{}
	for role, ms := range p.Models {
		costers[role] = gpumodel.NewOracle(cluster, ms.Cfg)
	}
	return p, New(cluster, costers)
}

// TestCalibrationIdentity: a nil calibration, a unit-factor calibration and
// the historical estimator agree byte for byte.
func TestCalibrationIdentity(t *testing.T) {
	p, e := calibPlan(t)
	base, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if c := NewCalibration(map[string]float64{"ActorGen": 1}); c != nil {
		t.Fatalf("unit-factor calibration must collapse to nil, got %v", c.Factors())
	}
	e.Calib = NewCalibration(nil)
	calibrated, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if calibrated.TimeCost != base.TimeCost || calibrated.Cost != base.Cost {
		t.Fatalf("nil calibration changed the estimate: %v vs %v", calibrated.TimeCost, base.TimeCost)
	}
	if e.Calib.Key() != "" {
		t.Fatalf("nil calibration key = %q, want empty", e.Calib.Key())
	}
}

// TestCalibrationScalesCallDurations: a per-call factor rescales exactly that
// call's duration and flows into the simulated makespan.
func TestCalibrationScalesCallDurations(t *testing.T) {
	p, e := calibPlan(t)
	base, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Calib = NewCalibration(map[string]float64{"ActorGen": 2})
	scaled, err := e.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	wantGen := 2 * base.CallTimes["ActorGen"]
	if got := scaled.CallTimes["ActorGen"]; got < wantGen*0.999 || got > wantGen*1.001 {
		t.Fatalf("ActorGen duration = %v, want %v", got, wantGen)
	}
	if scaled.CallTimes["RefInf"] != base.CallTimes["RefInf"] {
		t.Fatalf("uncalibrated call rescaled: %v vs %v",
			scaled.CallTimes["RefInf"], base.CallTimes["RefInf"])
	}
	if scaled.TimeCost <= base.TimeCost {
		t.Fatalf("slowing generation must slow the plan: %v vs %v", scaled.TimeCost, base.TimeCost)
	}
}

// TestCalibrationCanonicalKey: key is order-independent, distinguishes
// factor sets, and With derives immutably.
func TestCalibrationCanonicalKey(t *testing.T) {
	a := NewCalibration(map[string]float64{"A": 1.5, "B": 0.5})
	b := NewCalibration(map[string]float64{"B": 0.5, "A": 1.5})
	if a.Key() != b.Key() || a.Key() == "" {
		t.Fatalf("equal factor sets must share a key: %q vs %q", a.Key(), b.Key())
	}
	c := a.With("A", 1.25)
	if c.Key() == a.Key() {
		t.Fatal("changed factor must change the key")
	}
	if a.Factor("A") != 1.5 {
		t.Fatalf("With mutated the receiver: Factor(A) = %v", a.Factor("A"))
	}
	if got := c.Factor("Z"); got != 1 {
		t.Fatalf("unknown call factor = %v, want 1", got)
	}
	if NewCalibration(map[string]float64{"A": -1}) != nil {
		t.Fatal("negative factor must be rejected")
	}
}
