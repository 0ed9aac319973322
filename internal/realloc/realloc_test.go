package realloc

import (
	"testing"
	"testing/quick"

	"realhf/internal/core"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/parallel"
)

func asgn(t *testing.T, first, count, M int, st parallel.Strategy) core.Assignment {
	t.Helper()
	m, err := mesh.New(first, count, M)
	if err != nil {
		t.Fatal(err)
	}
	if st.WorldSize() != count {
		t.Fatalf("strategy %v does not fill mesh of %d", st, count)
	}
	return core.Assignment{Mesh: m, Strategy: st}
}

func TestCoordsRankRoundTrip(t *testing.T) {
	s := parallel.Strategy{DP: 3, TP: 4, PP: 2, MicroBatches: 1}
	f := func(r uint8) bool {
		rank := int(r) % s.WorldSize()
		pp, dp, tp := Coords(s, rank)
		return RankOf(s, pp, dp, tp) == rank &&
			tp < s.TP && dp < s.DP && pp < s.PP
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStageLayersPartition(t *testing.T) {
	s := parallel.Strategy{DP: 1, TP: 1, PP: 3, MicroBatches: 1}
	covered := map[int]int{}
	for st := 0; st < 3; st++ {
		lo, hi := StageLayers(32, s, st)
		for l := lo; l < hi; l++ {
			covered[l]++
		}
	}
	for l := 0; l < 32; l++ {
		if covered[l] != 1 {
			t.Fatalf("layer %d covered %d times", l, covered[l])
		}
	}
}

// verifyCoverage checks the central invariant of Fig. 6: after running the
// schedule, every destination GPU holds exactly its required shard — pieces
// it received plus pieces already resident under the source layout.
func verifyCoverage(t *testing.T, layers int, src, dst core.Assignment, sched Schedule) {
	t.Helper()
	den := lcm(src.Strategy.TP, dst.Strategy.TP)

	type piece struct{ layer, chunk int }
	have := map[int]map[piece]int{} // dst gpu -> piece -> count
	mark := func(gpu, layerLo, layerHi, cLo, cHi, opDen int) {
		scale := den / opDen
		if have[gpu] == nil {
			have[gpu] = map[piece]int{}
		}
		for l := layerLo; l < layerHi; l++ {
			for c := cLo * scale; c < cHi*scale; c++ {
				have[gpu][piece{l, c}]++
			}
		}
	}

	// Pieces already resident: the destination GPU also appears in the
	// source layout holding an overlapping fragment.
	srcShards := ShardsOf(src, layers)
	for _, dsh := range ShardsOf(dst, layers) {
		for _, ssh := range srcShards {
			if ssh.GPU != dsh.GPU {
				continue
			}
			lLo, lHi := maxInt(dsh.LayerLo, ssh.LayerLo), minInt(dsh.LayerHi, ssh.LayerHi)
			if lLo >= lHi {
				continue
			}
			cLo := maxInt(dsh.Num*(den/dsh.Den), ssh.Num*(den/ssh.Den))
			cHi := minInt((dsh.Num+1)*(den/dsh.Den), (ssh.Num+1)*(den/ssh.Den))
			if cLo >= cHi {
				continue
			}
			mark(dsh.GPU, lLo, lHi, cLo, cHi, den)
		}
	}
	for _, op := range sched.Ops {
		for _, d := range op.DstGPUs {
			mark(d, op.LayerLo, op.LayerHi, op.ChunkLo, op.ChunkHi, op.ChunkDen)
		}
		if op.Bytes <= 0 {
			t.Errorf("op with non-positive payload: %+v", op)
		}
		for _, d := range op.DstGPUs {
			if d == op.SrcGPU {
				t.Errorf("op broadcasts to its own source GPU %d", d)
			}
		}
	}

	for _, dsh := range ShardsOf(dst, layers) {
		w := den / dsh.Den
		for l := dsh.LayerLo; l < dsh.LayerHi; l++ {
			for c := dsh.Num * w; c < (dsh.Num+1)*w; c++ {
				got := have[dsh.GPU][piece{l, c}]
				if got != 1 {
					t.Fatalf("dst GPU %d piece (layer %d, chunk %d/%d) covered %d times, want 1",
						dsh.GPU, l, c, den, got)
				}
			}
		}
	}
}

func TestPlanParamsIdentityIsFree(t *testing.T) {
	a := asgn(t, 0, 16, 8, parallel.Strategy{DP: 2, TP: 2, PP: 4, MicroBatches: 1})
	sched := PlanParams(32, 1<<20, a, a, 8)
	if len(sched.Ops) != 0 {
		t.Errorf("identity redistribution issued %d ops, want 0", len(sched.Ops))
	}
	if sched.Cost(hardware.DefaultCluster(2)) != 0 {
		t.Error("identity redistribution must be free")
	}
}

func TestPlanParamsCoverageAcrossLayouts(t *testing.T) {
	cases := []struct {
		name     string
		layers   int
		src, dst core.Assignment
	}{
		{"tp-split", 32,
			asgn(t, 0, 8, 8, parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1}),
			asgn(t, 0, 8, 8, parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 1})},
		{"tp-merge", 32,
			asgn(t, 0, 8, 8, parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 1}),
			asgn(t, 0, 8, 8, parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1})},
		{"pp-reshape", 80,
			asgn(t, 0, 16, 8, parallel.Strategy{DP: 1, TP: 2, PP: 8, MicroBatches: 1}),
			asgn(t, 0, 16, 8, parallel.Strategy{DP: 2, TP: 4, PP: 2, MicroBatches: 1})},
		{"disjoint-meshes", 32,
			asgn(t, 0, 8, 8, parallel.Strategy{DP: 2, TP: 4, PP: 1, MicroBatches: 1}),
			asgn(t, 8, 8, 8, parallel.Strategy{DP: 1, TP: 2, PP: 4, MicroBatches: 1})},
		{"shrink-mesh", 32,
			asgn(t, 0, 16, 8, parallel.Strategy{DP: 2, TP: 8, PP: 1, MicroBatches: 1}),
			asgn(t, 0, 4, 8, parallel.Strategy{DP: 1, TP: 4, PP: 1, MicroBatches: 1})},
		{"grow-mesh", 32,
			asgn(t, 0, 4, 8, parallel.Strategy{DP: 1, TP: 4, PP: 1, MicroBatches: 1}),
			asgn(t, 0, 16, 8, parallel.Strategy{DP: 2, TP: 8, PP: 1, MicroBatches: 1})},
		{"uneven-pp", 30, // 30 layers over pp=4: stages of 8,8,8,6
			asgn(t, 0, 8, 8, parallel.Strategy{DP: 2, TP: 1, PP: 4, MicroBatches: 1}),
			asgn(t, 0, 8, 8, parallel.Strategy{DP: 1, TP: 4, PP: 2, MicroBatches: 1})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := PlanParams(tc.layers, 1<<22, tc.src, tc.dst, 8)
			verifyCoverage(t, tc.layers, tc.src, tc.dst, sched)
		})
	}
}

func TestCheapestSourcePreference(t *testing.T) {
	// Source: dp=2 replicas on nodes 0 and 1 (tp=8 each). Destination on
	// node 1 must fetch from the node-1 replica.
	src := asgn(t, 0, 16, 8, parallel.Strategy{DP: 2, TP: 8, PP: 1, MicroBatches: 1})
	dst := asgn(t, 8, 8, 8, parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 1})
	sched := PlanParams(32, 1<<22, src, dst, 8)
	for _, op := range sched.Ops {
		if op.SrcGPU < 8 {
			t.Errorf("op from node-0 GPU %d; node-1 replica was cheaper", op.SrcGPU)
		}
	}
	// In fact the node-1 replica IS the destination layout: no ops at all.
	if len(sched.Ops) != 0 {
		t.Errorf("expected fully local redistribution, got %d ops", len(sched.Ops))
	}
	if sched.LocalBytes <= 0 {
		t.Error("local bytes should be accounted")
	}
}

func TestCostOrdering(t *testing.T) {
	hw := hardware.DefaultCluster(4)
	src := asgn(t, 0, 8, 8, parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 1})
	dstNear := asgn(t, 0, 8, 8, parallel.Strategy{DP: 2, TP: 4, PP: 1, MicroBatches: 1})
	dstFar := asgn(t, 24, 8, 8, parallel.Strategy{DP: 2, TP: 4, PP: 1, MicroBatches: 1})
	near := PlanParams(32, 1<<22, src, dstNear, 8).Cost(hw)
	far := PlanParams(32, 1<<22, src, dstFar, 8).Cost(hw)
	if near <= 0 || far <= 0 {
		t.Fatal("redistribution across layouts must cost time")
	}
	if far <= near {
		t.Errorf("cross-node realloc (%.6fs) should cost more than intra-node (%.6fs)", far, near)
	}
}

func TestReallocCostSmallVsCompute(t *testing.T) {
	// The paper (Fig. 11) finds reallocation negligible next to compute.
	// Moving a 7B model across nodes should take well under a second.
	hw := hardware.DefaultCluster(2)
	layerBytes := int64(218112000 * 2) // 7B per-layer params × bf16
	src := asgn(t, 0, 8, 8, parallel.Strategy{DP: 1, TP: 4, PP: 2, MicroBatches: 1})
	dst := asgn(t, 8, 8, 8, parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1})
	cost := PlanParams(32, layerBytes, src, dst, 8).Cost(hw)
	if cost <= 0 || cost > 1.0 {
		t.Errorf("7B cross-node realloc cost = %.3fs, want (0, 1s]", cost)
	}
}

func TestPlanDataCoverage(t *testing.T) {
	src := asgn(t, 0, 8, 8, parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1})
	dst := asgn(t, 8, 8, 8, parallel.Strategy{DP: 2, TP: 2, PP: 2, MicroBatches: 1})
	total := int64(1 << 20)
	sched := PlanData(total, src, dst, 8)

	den := lcm(src.Strategy.DP, dst.Strategy.DP)
	have := map[int]map[int]int{}
	for _, op := range sched.Ops {
		for _, d := range op.DstGPUs {
			if have[d] == nil {
				have[d] = map[int]int{}
			}
			for c := op.ChunkLo; c < op.ChunkHi; c++ {
				have[d][c]++
			}
		}
	}
	// Every (first-stage) destination GPU must receive its DP chunk once.
	ds := dst.Strategy
	for ddp := 0; ddp < ds.DP; ddp++ {
		w := den / ds.DP
		for dtp := 0; dtp < ds.TP; dtp++ {
			g := GPUOf(dst.Mesh, ds, 0, ddp, dtp)
			for c := ddp * w; c < (ddp+1)*w; c++ {
				if have[g][c] != 1 {
					t.Errorf("data chunk %d/%d covered %d times on GPU %d", c, den, have[g][c], g)
				}
			}
		}
	}
}

func TestPlanDataSameLayoutLocal(t *testing.T) {
	a := asgn(t, 0, 8, 8, parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1})
	sched := PlanData(1<<20, a, a, 8)
	if len(sched.Ops) != 0 {
		t.Errorf("same-layout data transfer issued %d ops", len(sched.Ops))
	}
}

func TestScheduleTotalBytes(t *testing.T) {
	s := Schedule{Ops: []Op{
		{SrcGPU: 0, DstGPUs: []int{1, 2}, Bytes: 100},
		{SrcGPU: 3, DstGPUs: []int{4}, Bytes: 50},
	}}
	if got := s.TotalBytes(); got != 250 {
		t.Errorf("TotalBytes = %d, want 250", got)
	}
}

// Property: the cost-only planners are bit-equal to building the full
// schedule and costing it — the contract that lets the estimator's hot path
// skip materializing op lists.
func TestCostOnlyPlannersMatchSchedules(t *testing.T) {
	layouts := []core.Assignment{
		asgn(t, 0, 8, 8, parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1}),
		asgn(t, 0, 8, 8, parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 1}),
		asgn(t, 0, 8, 8, parallel.Strategy{DP: 1, TP: 2, PP: 4, MicroBatches: 1}),
		asgn(t, 8, 8, 8, parallel.Strategy{DP: 2, TP: 2, PP: 2, MicroBatches: 1}),
		asgn(t, 0, 16, 8, parallel.Strategy{DP: 2, TP: 4, PP: 2, MicroBatches: 1}),
		asgn(t, 0, 4, 8, parallel.Strategy{DP: 2, TP: 2, PP: 1, MicroBatches: 1}),
		asgn(t, 4, 4, 8, parallel.Strategy{DP: 1, TP: 4, PP: 1, MicroBatches: 1}),
	}
	hw := hardware.DefaultCluster(2)
	var cs CostScratch
	f := func(i, j, l uint8) bool {
		src := layouts[int(i)%len(layouts)]
		dst := layouts[int(j)%len(layouts)]
		layers := 8 * (int(l)%4 + 1)
		wantP := PlanParams(layers, 1<<20, src, dst, hw.GPUsPerNode).Cost(hw)
		if got := ParamsCost(&cs, layers, 1<<20, src, dst, hw); got != wantP {
			t.Errorf("ParamsCost(%v->%v, %d layers) = %v, schedule cost %v", src, dst, layers, got, wantP)
			return false
		}
		total := int64(layers) * (1 << 18)
		wantD := PlanData(total, src, dst, hw.GPUsPerNode).Cost(hw)
		if got := DataCost(&cs, total, src, dst, hw); got != wantD {
			t.Errorf("DataCost(%v->%v, %d bytes) = %v, schedule cost %v", src, dst, total, got, wantD)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// The cost-only planners keep the estimator's node-costing hot path
// allocation-free once their scratch has grown.
func TestCostOnlyPlannersDoNotAllocate(t *testing.T) {
	src := asgn(t, 0, 16, 8, parallel.Strategy{DP: 2, TP: 4, PP: 2, MicroBatches: 1})
	dst := asgn(t, 8, 8, 8, parallel.Strategy{DP: 2, TP: 2, PP: 2, MicroBatches: 1})
	hw := hardware.DefaultCluster(2)
	var cs CostScratch
	allocs := testing.AllocsPerRun(20, func() {
		ParamsCost(&cs, 32, 1<<20, src, dst, hw)
		DataCost(&cs, 1<<24, dst, src, hw)
	})
	if allocs != 0 {
		t.Errorf("ParamsCost+DataCost allocate %v times per run, want 0", allocs)
	}
}

// Property: redistribution coverage holds for random legal layout pairs on
// a 2-node cluster.
func TestPlanParamsCoverageProperty(t *testing.T) {
	layouts := []core.Assignment{
		asgn(t, 0, 8, 8, parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 1}),
		asgn(t, 0, 8, 8, parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 1}),
		asgn(t, 0, 8, 8, parallel.Strategy{DP: 1, TP: 2, PP: 4, MicroBatches: 1}),
		asgn(t, 8, 8, 8, parallel.Strategy{DP: 2, TP: 2, PP: 2, MicroBatches: 1}),
		asgn(t, 0, 16, 8, parallel.Strategy{DP: 2, TP: 4, PP: 2, MicroBatches: 1}),
		asgn(t, 0, 4, 8, parallel.Strategy{DP: 2, TP: 2, PP: 1, MicroBatches: 1}),
		asgn(t, 4, 4, 8, parallel.Strategy{DP: 1, TP: 4, PP: 1, MicroBatches: 1}),
	}
	f := func(i, j, l uint8) bool {
		src := layouts[int(i)%len(layouts)]
		dst := layouts[int(j)%len(layouts)]
		layers := 8 * (int(l)%4 + 1) // 8..32
		sched := PlanParams(layers, 1<<20, src, dst, 8)
		sub := &testing.T{}
		verifyCoverage(sub, layers, src, dst, sched)
		return !sub.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
