package core

import (
	"math/rand"
	"slices"
	"testing"

	"realhf/internal/mesh"
	"realhf/internal/parallel"
)

// TestBuilderReuseMatchesFreshBuild drives one reused Builder through a
// randomized mutation walk — layout moves that add and remove realloc and
// transfer nodes, and offload flips on frozen roles that add and remove
// offload nodes — and requires every in-place rebuild to equal a fresh
// BuildAugGraph node for node.
func TestBuilderReuseMatchesFreshBuild(t *testing.T) {
	p := ppoPlan(t, 2, 2)
	full := mesh.Full(p.Cluster)
	lo, _ := mesh.New(0, 8, 8)
	hi, _ := mesh.New(8, 8, 8)
	layouts := []Assignment{
		{Mesh: full, Strategy: parallel.Strategy{DP: 2, TP: 8, PP: 1, MicroBatches: 4}},
		{Mesh: full, Strategy: parallel.Strategy{DP: 4, TP: 4, PP: 1, MicroBatches: 2}},
		{Mesh: full, Strategy: parallel.Strategy{DP: 2, TP: 4, PP: 2, MicroBatches: 4}},
		{Mesh: lo, Strategy: parallel.Strategy{DP: 1, TP: 8, PP: 1, MicroBatches: 1}},
		{Mesh: lo, Strategy: parallel.Strategy{DP: 4, TP: 2, PP: 1, MicroBatches: 2}},
		{Mesh: hi, Strategy: parallel.Strategy{DP: 2, TP: 4, PP: 1, MicroBatches: 1}},
		{Mesh: hi, Strategy: parallel.Strategy{DP: 1, TP: 4, PP: 2, MicroBatches: 2}},
	}
	names := p.CallNames()
	frozen := map[string]bool{}
	for _, n := range p.Graph.Nodes {
		frozen[n.Name] = !p.Models[n.Role].Trainable
	}
	b, err := NewBuilder(p.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	sizes := map[int]bool{}
	offloads := 0
	for step := 0; step < 400; step++ {
		name := names[rng.Intn(len(names))]
		a := p.Assign[name]
		if frozen[name] && rng.Intn(3) == 0 {
			a.Offload = !a.Offload
		} else {
			off := a.Offload
			a = layouts[rng.Intn(len(layouts))]
			a.Offload = off
		}
		p.Assign[name] = a

		want, err := p.BuildAugGraph()
		if err != nil {
			t.Fatalf("step %d: fresh build: %v", step, err)
		}
		got, err := b.Build(p)
		if err != nil {
			t.Fatalf("step %d: reused build: %v", step, err)
		}
		if len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("step %d: %d nodes, fresh build has %d", step, len(got.Nodes), len(want.Nodes))
		}
		sizes[len(got.Nodes)] = true
		for i, w := range want.Nodes {
			g := got.Nodes[i]
			if g.ID != w.ID || g.Kind != w.Kind || g.Label() != w.Label() || g.Role != w.Role ||
				!slices.Equal(g.Meshes, w.Meshes) || g.Bytes != w.Bytes || g.Src != w.Src || g.Dst != w.Dst ||
				!slices.Equal(g.Parents, w.Parents) || !slices.Equal(g.Children, w.Children) {
				t.Fatalf("step %d node %d differs from the fresh build:\n got %s %v parents %v children %v\nwant %s %v parents %v children %v",
					step, i, g.Label(), g.Meshes, g.Parents, g.Children, w.Label(), w.Meshes, w.Parents, w.Children)
			}
			if g.Kind == KindOffload {
				offloads++
			}
		}
	}
	if len(sizes) < 3 || offloads == 0 {
		t.Fatalf("walk too narrow: graph sizes %v, %d offload nodes seen", sizes, offloads)
	}
}
