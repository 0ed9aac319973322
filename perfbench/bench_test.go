package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json perfbench must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return bf
}

// TestCatalogueMatchesBenchmarkFile pins perfbench's metric names and units
// to BENCHMARK.json, and checks that perfbench runs every workload it
// names.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, perfbench emits %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, perfbench emits %v", layer, perLayer)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
}

// TestInputStreamsAreSeeded checks that one workload seed always yields the
// same input stream, and another seed a different one.
func TestInputStreamsAreSeeded(t *testing.T) {
	mix := serveMixDefault
	for _, seed := range []int64{1, 2, 99} {
		if a, b := coldStream(seed, 100, coldGrid), coldStream(seed, 100, coldGrid); !reflect.DeepEqual(a, b) {
			t.Errorf("cold-solve stream for seed %d differs between calls", seed)
		}
		pa, pb := popularSet(seed, mix.Popular), popularSet(seed, mix.Popular)
		if !reflect.DeepEqual(pa, pb) {
			t.Errorf("popular set for seed %d differs between calls", seed)
		}
		if a, b := serveStream(seed, 500, mix, pa), serveStream(seed, 500, mix, pb); !reflect.DeepEqual(a, b) {
			t.Errorf("serve-mixed stream for seed %d differs between calls", seed)
		}
		if a, b := trainerStream(seed), trainerStream(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("trainer-campaign input for seed %d differs between calls", seed)
		}
	}
	if reflect.DeepEqual(coldStream(1, 100, coldGrid), coldStream(2, 100, coldGrid)) {
		t.Error("cold-solve streams for seeds 1 and 2 are equal")
	}
	if reflect.DeepEqual(serveStream(1, 500, mix, popularSet(1, mix.Popular)), serveStream(2, 500, mix, popularSet(2, mix.Popular))) {
		t.Error("serve-mixed streams for seeds 1 and 2 are equal")
	}
	// A longer stream extends a shorter one: how long a run lasts never
	// changes the inputs it has already seen.
	if long := coldStream(5, 200, coldGrid); !reflect.DeepEqual(long[:100], coldStream(5, 100, coldGrid)) {
		t.Error("cold-solve stream is not prefix-stable")
	}
	seen := map[string]bool{}
	for _, q := range coldStream(7, 300, coldGrid) {
		fp := q.Cfg.Fingerprint()
		if seen[fp] {
			t.Fatalf("cold-solve stream repeats config %s: an op would hit the plan cache", fp)
		}
		seen[fp] = true
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each emits every named metric with its unit, that all checks
// pass, and that traced spans nest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			opt := options{Workload: w, Seed: 3, Seconds: 0.5, Trace: trace, Small: true, Dir: t.TempDir()}
			out, err := runWorkload(opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			res, err := buildResult(opt, out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failures=%v invalid=%v",
					w, trace, res.Correct, res.Attempted, out.Failures, out.Invalid)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.name, got, d.unit)
				}
			}
			if !trace {
				continue
			}
			spans := out.Trace.KeptSpans
			nested := 0
			for _, s := range spans {
				if s.Parent != 0 {
					nested++
				}
			}
			if nested == 0 {
				t.Errorf("%s: no traced span has a parent", w)
			}
			if err := checkNesting(spans); err != nil {
				t.Errorf("%s: %v", w, err)
			}
		}
	}
}
