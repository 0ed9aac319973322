package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realhf/internal/baselines"
	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/parallel"
	"realhf/internal/runtime"
)

type chromeDoc struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Phase string         `json:"ph"`
		TS    int64          `json:"ts"`
		Dur   int64          `json:"dur"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestExportChromeTrace(t *testing.T) {
	hw := hardware.DefaultCluster(2)
	g := dfg.MustBuild("ppo", dfg.Spec{Batch: 256, PromptLen: 512, GenLen: 512, Iterations: 1})
	models := core.PPOModels(model.LLaMA7B, model.LLaMA7B)
	plan, err := baselines.BuildHeuristic(hw, g, models)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runtime.RunDefault(plan)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := ExportChromeTrace(rep, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var complete, meta int
	lastTS := int64(-1)
	for i, e := range doc.TraceEvents {
		switch e.Phase {
		case "X":
			complete++
			if e.Dur < 0 || e.TS < 0 {
				t.Errorf("bad event %d: %+v", i, e)
			}
			if e.TS < lastTS {
				t.Error("complete events must be sorted by start time")
			}
			lastTS = e.TS
		case "M":
			meta++
			if e.Name != "thread_name" {
				t.Errorf("unexpected metadata event %q", e.Name)
			}
		default:
			t.Errorf("unexpected phase %q", e.Phase)
		}
	}
	if complete != len(rep.Timeline) {
		t.Errorf("%d complete events, want %d", complete, len(rep.Timeline))
	}
	if meta == 0 {
		t.Error("trace must name its lanes with thread_name metadata")
	}
}

// TestChromeTraceStreamLanes: an overlapped run with reallocation places
// comm spans on per-device comm lanes (odd tids), named distinctly from the
// compute lanes.
func TestChromeTraceStreamLanes(t *testing.T) {
	hw := hardware.DefaultCluster(2)
	g := dfg.MustBuild("ppo", dfg.Spec{Batch: 256, PromptLen: 512, GenLen: 512, Iterations: 1})
	p := core.NewPlan(hw, g, core.PPOModels(model.LLaMA7B, model.LLaMA7B))
	m0, _ := mesh.New(0, 8, 8)
	m1, _ := mesh.New(8, 8, 8)
	st := parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 2}
	stGen := parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1}
	p.Assign["ActorGen"] = core.Assignment{Mesh: m0, Strategy: stGen}
	p.Assign["RefInf"] = core.Assignment{Mesh: m0, Strategy: st}
	p.Assign["ActorTrain"] = core.Assignment{Mesh: m0, Strategy: st}
	p.Assign["RewInf"] = core.Assignment{Mesh: m1, Strategy: st}
	p.Assign["CriticInf"] = core.Assignment{Mesh: m1, Strategy: st}
	p.Assign["CriticTrain"] = core.Assignment{Mesh: m1, Strategy: st}

	rep, err := runtime.RunOverlapped(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := ExportChromeTrace(rep, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var commLane, computeLane, commNames int
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "X":
			if e.Cat == "call" {
				if e.TID%runtime.NumStreams != int(runtime.StreamCompute) {
					t.Errorf("call %q on tid %d, want a compute lane", e.Name, e.TID)
				}
				computeLane++
			} else {
				if e.TID%runtime.NumStreams != int(runtime.StreamComm) {
					t.Errorf("comm node %q on tid %d, want a comm lane", e.Name, e.TID)
				}
				commLane++
			}
		case "M":
			if name, _ := e.Args["name"].(string); strings.HasSuffix(name, " comm") {
				commNames++
			}
		}
	}
	if commLane == 0 || computeLane == 0 {
		t.Fatalf("want both lane kinds populated, got %d comm / %d compute", commLane, computeLane)
	}
	if commNames == 0 {
		t.Error("comm lanes must be named 'gpu N comm'")
	}
}
