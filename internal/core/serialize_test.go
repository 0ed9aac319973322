package core

import (
	"path/filepath"
	"strings"
	"testing"

	"realhf/internal/dfg"
	"realhf/internal/model"
)

func TestPlanSaveLoadRoundTrip(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	ms := p.Models[dfg.Ref]
	ms.OffloadWhenIdle = true
	p.Models[dfg.Ref] = ms

	path := filepath.Join(t.TempDir(), "plan.json")
	if err := SavePlan(p, path); err != nil {
		t.Fatal(err)
	}
	g := dfg.BuildPPO(dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
	q, err := LoadPlan(path, g)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded plan carries the hint mapped onto per-call Offload (see
	// below), so it must match the original with the hint applied.
	want := p.Clone()
	want.ApplyOffloadHints()
	if q.Fingerprint() != want.Fingerprint() {
		t.Errorf("round trip changed assignments:\n%s\nvs\n%s", want.Fingerprint(), q.Fingerprint())
	}
	if q.Cluster.Nodes != 2 || q.Cluster.GPUsPerNode != 8 {
		t.Errorf("cluster shape lost: %+v", q.Cluster)
	}
	if !q.Models[dfg.Ref].OffloadWhenIdle {
		t.Error("offload hint lost in round trip")
	}
	// Plans carrying only the legacy model-level hint get it mapped onto
	// every call of the hinted frozen role at load time.
	if !q.RoleOffloaded(dfg.Ref) {
		t.Error("legacy OffloadWhenIdle hint not mapped onto per-call Offload at load")
	}
	if !q.Models[dfg.Actor].Trainable || q.Models[dfg.Reward].Trainable {
		t.Error("trainability lost in round trip")
	}
	if q.Models[dfg.Critic].Cfg.Name != "7b" || !q.Models[dfg.Critic].IsCritic {
		t.Error("critic model spec lost in round trip")
	}
}

func TestPlanRoundTripPerCallOffload(t *testing.T) {
	// A per-call Offload decision (no model-level hint) must survive the
	// save/load cycle and reappear on exactly the calls that carried it.
	p := ppoPlan(t, 2, 1)
	a := p.Assign["RefInf"]
	a.Offload = true
	p.Assign["RefInf"] = a

	path := filepath.Join(t.TempDir(), "plan.json")
	if err := SavePlan(p, path); err != nil {
		t.Fatal(err)
	}
	g := dfg.BuildPPO(dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
	q, err := LoadPlan(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Assign["RefInf"].Offload {
		t.Error("per-call Offload lost in round trip")
	}
	if q.Assign["ActorGen"].Offload {
		t.Error("Offload leaked onto a call that never carried it")
	}
	if q.Fingerprint() != p.Fingerprint() {
		t.Errorf("round trip changed fingerprint:\n%s\nvs\n%s", p.Fingerprint(), q.Fingerprint())
	}
}

func TestLoadPlanRejectsOffloadedTrainable(t *testing.T) {
	// A stored plan that offloads a trainable role is invalid: optimizer
	// state pins trainable parameters on-device.
	p := ppoPlan(t, 2, 1)
	a := p.Assign["ActorTrain"]
	a.Offload = true
	p.Assign["ActorTrain"] = a
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := SavePlan(p, path); err != nil {
		t.Fatal(err)
	}
	g := dfg.BuildPPO(dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
	if _, err := LoadPlan(path, g); err == nil {
		t.Error("loading a plan that offloads a trainable role must fail")
	}
}

func TestLoadPlanRejectsMismatchedGraph(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := SavePlan(p, path); err != nil {
		t.Fatal(err)
	}
	// A DPO graph has different call names: validation must fail.
	g := dfg.BuildDPO(dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024})
	if _, err := LoadPlan(path, g); err == nil {
		t.Error("loading a PPO plan onto a DPO graph must fail")
	}
}

func TestLoadPlanRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := SavePlan(ppoPlan(t, 2, 1), bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(filepath.Join(dir, "missing.json"), nil); err == nil {
		t.Error("missing file must fail")
	}
}

func TestMarshalIsHumanReadable(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"\"version\": 1", "ActorGen", "\"tp\"", "\"arch\": \"7b\""} {
		if !strings.Contains(s, want) {
			t.Errorf("serialized plan missing %q", want)
		}
	}
	_ = model.LLaMA7B
}
