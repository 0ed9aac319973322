package core

import (
	"fmt"

	"realhf/internal/dfg"
	"realhf/internal/memory"
	"realhf/internal/mesh"
)

// Kind classifies augmented-graph nodes (paper Fig. 5: model function call
// nodes plus the rounded-square transfer nodes).
type Kind int

const (
	// KindCall is a model function call.
	KindCall Kind = iota
	// KindParamRealloc redistributes a model's parameters from its home
	// layout to the layout of an upcoming call.
	KindParamRealloc
	// KindDataTransfer moves intermediate data (sequences, log-probs,
	// rewards) between the meshes of dependent calls.
	KindDataTransfer
	// KindOffload reloads parameters parked in host memory onto the call's
	// mesh over PCIe.
	KindOffload
)

func (k Kind) String() string {
	switch k {
	case KindCall:
		return "call"
	case KindParamRealloc:
		return "realloc"
	case KindDataTransfer:
		return "xfer"
	case KindOffload:
		return "offload"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// CommLike reports whether the node kind is a communication node of the
// augmented graph (parameter reallocation, data transfer, offload) rather
// than a model function call. The runtime engine and the estimator share
// this classification: with overlapped execution enabled, comm-like nodes
// run on a device's communication stream, concurrent with the compute
// stream.
func (k Kind) CommLike() bool { return k != KindCall }

// AugNode is one node of the augmented dataflow graph Gp. Transfer-style
// nodes occupy both endpoint meshes; call nodes occupy exactly their
// assignment's mesh.
type AugNode struct {
	ID   int
	Kind Kind
	// Call is the model function call the node serves: the call itself for
	// KindCall, the consuming call whose parameters or inputs a realloc,
	// offload or data-transfer node delivers.
	Call *dfg.Node
	// From is the producing call of a KindDataTransfer node.
	From *dfg.Node
	// Role owning the payload for realloc/offload nodes.
	Role dfg.Role
	// Meshes are the device meshes this node occupies while executing.
	Meshes []mesh.Mesh
	// Bytes is the payload size for transfer-style nodes.
	Bytes int64
	// Src and Dst are the endpoint assignments of transfer-style nodes.
	Src, Dst Assignment

	Parents  []int
	Children []int
}

// Label renders the node's name: "ActorGen@0" for a call,
// "realloc:ActorGen@0" or "offload:RefInf@0" for the parameter move feeding
// a call, "xfer:ActorGen->RewInf@0" for a data transfer. It formats a fresh
// string on every call, so hot loops should render it once per node.
func (n *AugNode) Label() string {
	switch n.Kind {
	case KindCall:
		return fmt.Sprintf("%s@%d", n.Call.Name, n.Call.Iter)
	case KindDataTransfer:
		return fmt.Sprintf("xfer:%s->%s@%d", n.From.Name, n.Call.Name, n.Call.Iter)
	}
	return fmt.Sprintf("%s:%s@%d", n.Kind, n.Call.Name, n.Call.Iter)
}

// OccupiesGPU reports whether the node uses the given global GPU index.
func (n *AugNode) OccupiesGPU(g int) bool {
	for _, m := range n.Meshes {
		if m.Contains(g) {
			return true
		}
	}
	return false
}

// Overlaps reports whether two nodes contend for any device.
func (n *AugNode) Overlaps(o *AugNode) bool {
	for _, a := range n.Meshes {
		for _, b := range o.Meshes {
			if a.Overlaps(b) {
				return true
			}
		}
	}
	return false
}

// AugGraph is Gp: the plan's calls plus induced communication nodes.
type AugGraph struct {
	Plan  *Plan
	Nodes []*AugNode
}

// CallNode returns the augmented node wrapping the given dfg node.
func (g *AugGraph) CallNode(d *dfg.Node) *AugNode {
	for _, n := range g.Nodes {
		if n.Kind == KindCall && n.Call == d {
			return n
		}
	}
	return nil
}

// DataBytesPerToken approximates the per-token payload moved between calls:
// token ids, log-probs, rewards/values — a few scalars per position. The
// paper observes this traffic is negligible next to parameter reallocation,
// which our cost model reproduces.
const DataBytesPerToken = 8

// BuildAugGraph validates the plan and expands it into its augmented
// dataflow graph with a one-shot Builder (see Builder.Build for the
// expansion rules).
func (p *Plan) BuildAugGraph() (*AugGraph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b, err := NewBuilder(p.Graph)
	if err != nil {
		return nil, err
	}
	return b.Build(p)
}

// Builder expands plans over one dataflow graph into augmented graphs. It is
// the only constructor of AugNodes. NewBuilder prepares the
// assignment-independent topology once — topo order, parent lists and each
// role's home call — and every Build rebuilds the nodes into a reused arena,
// so a caller re-expanding many plans over the same graph (plan search)
// allocates nothing per build once the arena has grown. Build reads each
// dfg node's assignment and model from the plan's maps exactly once; every
// later lookup (home layout, parent layout) indexes a slice by dfg node ID.
// A Builder is single-goroutine state.
type Builder struct {
	graph   *dfg.Graph
	topo    []*dfg.Node
	parents [][]*dfg.Node
	home    []*dfg.Node // dfg node ID -> first node of its role's home call

	assign  []Assignment // dfg node ID -> assignment read by the last Build
	models  []ModelSpec  // dfg node ID -> role model read by the last Build
	callIdx []int        // dfg node ID -> ID of its call node
	arena   []*AugNode
	g       AugGraph
}

// NewBuilder prepares a builder for plans over graph g.
func NewBuilder(g *dfg.Graph) (*Builder, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	b := &Builder{
		graph:   g,
		topo:    topo,
		parents: make([][]*dfg.Node, len(g.Nodes)),
		home:    make([]*dfg.Node, len(g.Nodes)),
		assign:  make([]Assignment, len(g.Nodes)),
		models:  make([]ModelSpec, len(g.Nodes)),
		callIdx: make([]int, len(g.Nodes)),
		arena:   make([]*AugNode, 0, len(g.Nodes)),
	}
	for _, d := range g.Nodes {
		b.parents[d.ID] = g.Parents(d)
	}
	// Home call per role, as Plan.HomeOf picks it on a fully assigned plan:
	// the role's first Train-typed call in Nodes order, else its first call.
	homes := make(map[dfg.Role]*dfg.Node, 4)
	for _, train := range []bool{true, false} {
		for _, d := range g.Nodes {
			if _, ok := homes[d.Role]; !ok && (d.Type == dfg.Train || !train) {
				homes[d.Role] = d
			}
		}
	}
	for _, d := range g.Nodes {
		b.home[d.ID] = homes[d.Role]
	}
	return b, nil
}

// Home returns the first node of the call whose assignment is d's role's
// home (Plan.HomeOf). d must be a node of the builder's graph.
func (b *Builder) Home(d *dfg.Node) *dfg.Node { return b.home[d.ID] }

// Assignment returns the assignment the last successful Build read for d,
// letting callers that score the built graph reuse the builder's single
// read of the plan's assignment map. d must be a node of the builder's
// graph.
func (b *Builder) Assignment(d *dfg.Node) Assignment { return b.assign[d.ID] }

// node takes the next arena slot, recycling its slices.
func (b *Builder) node(k Kind, call *dfg.Node) *AugNode {
	id := len(b.g.Nodes)
	if id == len(b.arena) {
		b.arena = append(b.arena, &AugNode{})
	}
	n := b.arena[id]
	// Zero in place and restore the recycled slices: assigning a composite
	// literal would build the (large) node on the stack and copy it over.
	meshes, parents, children := n.Meshes[:0], n.Parents[:0], n.Children[:0]
	*n = AugNode{}
	n.ID, n.Kind, n.Call = id, k, call
	n.Meshes, n.Parents, n.Children = meshes, parents, children
	b.g.Nodes = b.arena[:id+1]
	return n
}

func link(parent, child *AugNode) {
	parent.Children = append(parent.Children, child.ID)
	child.Parents = append(child.Parents, parent.ID)
}

// Build expands the plan into its augmented dataflow graph:
//
//   - every dfg node becomes a call node on its assigned mesh;
//   - a KindParamRealloc node precedes any call whose assignment differs
//     from the role's home (the bf16 weights are broadcast from the home
//     layout to the call layout, Fig. 6), gated by the call's same-role
//     parameter-version parents;
//   - a KindOffload node precedes any call whose assignment sources its
//     parameters from host memory (Assignment.Offload);
//   - a KindDataTransfer node replaces each data edge whose endpoints have
//     different assignments.
//
// Node IDs and edge order are a pure function of the plan, which keeps
// Algorithm 1's heap tie-breaks — and so golden plans — stable. Build checks
// only that every call is assigned and every role has a model; callers that
// need per-call legality run Plan.Validate first. p.Graph must be the
// builder's graph. The returned graph is owned by the builder and valid until
// its next Build.
func (b *Builder) Build(p *Plan) (*AugGraph, error) {
	if p.Graph != b.graph {
		return nil, fmt.Errorf("core: plan graph is not the builder's graph")
	}
	b.g = AugGraph{Plan: p, Nodes: b.arena[:0]}
	for _, d := range b.topo {
		a, ok := p.Assign[d.Name]
		if !ok {
			return nil, fmt.Errorf("core: call %q has no assignment", d.Name)
		}
		ms, ok := p.Models[d.Role]
		if !ok {
			return nil, fmt.Errorf("core: no model spec for role %q", d.Role)
		}
		b.assign[d.ID], b.models[d.ID] = a, ms
		cn := b.node(KindCall, d)
		cn.Role = d.Role
		cn.Meshes = append(cn.Meshes, a.Mesh)
		b.callIdx[d.ID] = cn.ID
	}

	for _, d := range b.topo {
		cn := b.arena[b.callIdx[d.ID]]
		a, ms := b.assign[d.ID], &b.models[d.ID]
		home := b.assign[b.home[d.ID].ID]

		var move *AugNode
		switch {
		case a.Offload && !ms.Trainable:
			// Reload weights from host memory onto the call mesh.
			move = b.node(KindOffload, d)
			move.Meshes = append(move.Meshes, a.Mesh)
			move.Bytes = memory.ParamShardBytes(ms.Params(), a.Strategy) * int64(a.Mesh.NumGPUs())
		case !a.Equal(home):
			// Reallocate parameters home layout -> call layout.
			move = b.node(KindParamRealloc, d)
			move.Meshes = append(move.Meshes, home.Mesh, a.Mesh)
			move.Bytes = ms.Params() * 2
			move.Src = home
		}
		if move != nil {
			move.Role, move.Dst = d.Role, a
			// Parameter-version parents: same-role calls feeding this one.
			for _, par := range b.parents[d.ID] {
				if par.Role == d.Role {
					link(b.arena[b.callIdx[par.ID]], move)
				}
			}
			link(move, cn)
		}

		// Data edges from parents.
		for _, par := range b.parents[d.ID] {
			pn := b.arena[b.callIdx[par.ID]]
			pa := b.assign[par.ID]
			if par.Role == d.Role && par.Type == dfg.Train || pa.Equal(a) {
				// A pure version dependency (the realloc/offload node, or the
				// call itself, already waits on it) or a co-located edge.
				link(pn, cn)
				continue
			}
			x := b.node(KindDataTransfer, d)
			x.From = par
			x.Meshes = append(x.Meshes, pa.Mesh, a.Mesh)
			x.Bytes = par.Work.TotalTokens() * DataBytesPerToken
			x.Src, x.Dst = pa, a
			link(pn, x)
			link(x, cn)
		}
	}
	return &b.g, nil
}

// Sources returns augmented nodes with no parents.
func (g *AugGraph) Sources() []*AugNode {
	var out []*AugNode
	for _, n := range g.Nodes {
		if len(n.Parents) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// Validate checks the augmented graph is a DAG.
func (g *AugGraph) Validate() error {
	indeg := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		indeg[n.ID] = len(n.Parents)
	}
	var queue []int
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		seen++
		for _, c := range g.Nodes[id].Children {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if seen != len(g.Nodes) {
		return fmt.Errorf("core: augmented graph has a cycle")
	}
	return nil
}
