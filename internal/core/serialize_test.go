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
	a := p.Assign["RefInf"]
	a.Offload = true
	p.Assign["RefInf"] = a

	path := filepath.Join(t.TempDir(), "plan.json")
	if err := SavePlan(p, path); err != nil {
		t.Fatal(err)
	}
	g := dfg.MustBuild("ppo", dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
	q, err := LoadPlan(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if q.Fingerprint() != p.Fingerprint() {
		t.Errorf("round trip changed assignments:\n%s\nvs\n%s", p.Fingerprint(), q.Fingerprint())
	}
	if q.Cluster.Nodes != 2 || q.Cluster.GPUsPerNode != 8 {
		t.Errorf("cluster shape lost: %+v", q.Cluster)
	}
	if !q.RoleOffloaded(dfg.Ref) {
		t.Error("offloaded role lost in round trip")
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
	g := dfg.MustBuild("ppo", dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
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
	g := dfg.MustBuild("ppo", dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 1})
	if _, err := LoadPlan(path, g); err == nil {
		t.Error("loading a plan that offloads a trainable role must fail")
	}
}

// legacyPlanFile is a plan file in the format written before offload was a
// per-call decision: host offload is the model-level offload_when_idle flag
// (here on the frozen ref role) and no assignment carries "offload".
const legacyPlanFile = `{
  "version": 1,
  "nodes": 1,
  "gpus_per_node": 8,
  "algo": "ppo",
  "models": [
    {"role": "actor", "arch": "7b", "trainable": true},
    {"role": "critic", "arch": "7b", "is_critic": true, "trainable": true},
    {"role": "ref", "arch": "7b", "offload_when_idle": true},
    {"role": "reward", "arch": "7b", "is_critic": true}
  ],
  "assignments": {
    "ActorGen":    {"mesh_first": 0, "mesh_count": 8, "dp": 1, "tp": 8, "pp": 1, "micro_batches": 4},
    "ActorTrain":  {"mesh_first": 0, "mesh_count": 8, "dp": 1, "tp": 8, "pp": 1, "micro_batches": 4},
    "CriticInf":   {"mesh_first": 0, "mesh_count": 8, "dp": 1, "tp": 8, "pp": 1, "micro_batches": 4},
    "CriticTrain": {"mesh_first": 0, "mesh_count": 8, "dp": 1, "tp": 8, "pp": 1, "micro_batches": 4},
    "RefInf":      {"mesh_first": 0, "mesh_count": 8, "dp": 1, "tp": 8, "pp": 1, "micro_batches": 4},
    "RewInf":      {"mesh_first": 0, "mesh_count": 8, "dp": 1, "tp": 8, "pp": 1, "micro_batches": 4}
  }
}`

func TestUnmarshalLegacyOffloadFlag(t *testing.T) {
	g := dfg.MustBuild("ppo", dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024, Iterations: 2})
	p, err := UnmarshalPlan([]byte(legacyPlanFile), g)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if got, want := p.Assign[n.Name].Offload, n.Role == dfg.Ref; got != want {
			t.Errorf("%s (role %s): Offload = %v, want %v", n.Name, n.Role, got, want)
		}
	}
	if !p.RoleOffloaded(dfg.Ref) {
		t.Error("legacy offload_when_idle on ref did not offload the role")
	}
	// The flag is read, never written: re-encoding carries it per call.
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "offload_when_idle") {
		t.Error("re-encoded plan still writes the legacy model-level flag")
	}

	// The same flag on a trainable role is rejected: optimizer state pins
	// trainable parameters on-device.
	actor := `{"role": "actor", "arch": "7b", "trainable": true}`
	bad := strings.Replace(legacyPlanFile, actor,
		`{"role": "actor", "arch": "7b", "trainable": true, "offload_when_idle": true}`, 1)
	if bad == legacyPlanFile {
		t.Fatal("fixture edit did not apply")
	}
	if _, err := UnmarshalPlan([]byte(bad), g); err == nil || !strings.Contains(err.Error(), "trainable") {
		t.Errorf("offload_when_idle on the trainable actor: err = %v, want a trainable-role rejection", err)
	}
}

func TestLoadPlanRejectsMismatchedGraph(t *testing.T) {
	p := ppoPlan(t, 2, 1)
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := SavePlan(p, path); err != nil {
		t.Fatal(err)
	}
	// A DPO graph has different call names: validation must fail.
	g := dfg.MustBuild("dpo", dfg.Spec{Batch: 512, PromptLen: 1024, GenLen: 1024})
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
