package estimator

import (
	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/memory"
)

// PlanCost is the scalar slice of a Result that plan search needs to accept
// or reject a proposal: the simulated makespan, the peak device memory, and
// the OOM-penalized search objective. Unlike Result it carries no timeline
// or per-call breakdown, so it is cheap to compute, copy and cache by value.
type PlanCost struct {
	// TimeCost is TimeCost(Gp): the simulated makespan (seconds).
	TimeCost float64
	// MaxMem is the peak bytes of the most loaded device.
	MaxMem int64
	// OOM reports whether MaxMem exceeds device capacity.
	OOM bool
	// Cost is the search objective: TimeCost, ×OOMPenalty·overflow when
	// infeasible — bit-identical to Result.Cost.
	Cost float64
}

// CostOf extracts the PlanCost summary of a full Result.
func CostOf(r *Result) PlanCost {
	return PlanCost{TimeCost: r.TimeCost, MaxMem: r.MaxMem, OOM: r.OOM, Cost: r.Cost}
}

// SessionStats reports an EvalSession's incremental-evaluation counters.
type SessionStats struct {
	// Evals counts Evaluate calls answered.
	Evals int64
	// NodeLookups counts augmented-graph node costings across all evals.
	NodeLookups int64
	// NodeRecosts counts lookups that missed the session-local duration memo
	// and had to be recomputed (by the session's fallback coster). After a
	// single-call mutation only the nodes whose inputs changed recost.
	NodeRecosts int64
}

// canonCommAssignment canonicalizes a transfer endpoint for memoization:
// communication schedules (realloc.PlanParams, realloc.PlanData) and offload
// reload times are pure functions of the endpoint meshes and the DP/TP/PP
// grid — MicroBatches and ZeRO3 never enter them (an offload's strategy-
// dependent shard size is already folded into the node's Bytes). Dropping
// the two fields collapses the endpoint-pair space by the number of
// micro-batch variants per layout, which is what lets the session's comm
// memo saturate during a search instead of recosting a fresh pair on nearly
// every proposal. Offload is likewise dropped: an offload node's cost is a
// pure function of its Bytes (already in the key), and realloc/data
// endpoints never carry it into their schedules. The resulting durations are
// bit-identical by construction; the differential delta-vs-full test
// enforces it.
func canonCommAssignment(a core.Assignment) core.Assignment {
	a.Strategy.MicroBatches = 0
	a.Strategy.ZeRO3 = false
	a.Offload = false
	return a
}

// noSource is the endpoint ID of an offload node's source: host memory, not
// an assignment.
const noSource int32 = -1

// nodeSig is the full duration signature of one augmented-graph node: every
// input the node's duration depends on, as dense integers. Call nodes carry
// their call index and the ID of their assignment with Offload cleared;
// transfer-style nodes carry (kind, role index, bytes, canonical src/dst
// endpoint IDs), with role index -1 for data transfers, which the
// augmented-graph builder leaves role-less. Assignment IDs come from the session's intern table, a
// bijection between assignments and IDs, so equal signatures imply equal
// durations. A node whose signature survives a rebuild reuses its duration
// with a single 24-byte comparison; a miss falls back to the duration memo,
// keyed by the same signature. The key is a plain comparable struct, so Go's
// equality covers every field by construction.
type nodeSig struct {
	kind     int32
	idx      int32
	bytes    int64
	src, dst int32
}

// staticKey identifies one role's resting-memory inputs: the role, its home
// assignment ID, and the plan's RoleOffloaded verdict (0/1). A flip on any
// of the role's calls — not just the home call — moves the resting bf16
// copy in or out of host memory, so the (role, home) pair alone would go
// stale under single-offload-flip mutations.
type staticKey struct{ role, home, off int32 }

// activeKey identifies one call's transient-memory inputs: the call index
// (which fixes role, type, workload and model), its assignment ID, and its
// role's home assignment ID (resident weights are discounted at home).
type activeKey struct{ call, a, home int32 }

// memoEntry caches one node's last duration, or one call's or role's last
// memory term, for the session's compare-before-hash fast paths.
type memoEntry[K comparable, V any] struct {
	key K
	v   V
	ok  bool
}

// callIDs is one distinct call's resolved assignment in the plan last
// evaluated, with its three interned IDs: the full assignment (memory
// terms), the assignment with Offload cleared (the call node's duration),
// and its canonCommAssignment (transfer endpoints).
type callIDs struct {
	a                  core.Assignment
	ok                 bool
	full, noOff, canon int32
}

// EvalSession is a reusable, allocation-free incremental evaluator for one
// (problem, estimator) pair. It answers the same question as
// Estimator.Evaluate — TimeCost, MaxMem, OOM and Cost are bit-identical —
// but re-uses everything a single-call mutation cannot have changed:
//
//   - the augmented graph is rebuilt in place by a core.Builder prepared
//     once per dataflow graph: the same construction core.BuildAugGraph
//     runs, into a reused node arena;
//   - every distinct call's assignment is read once per evaluation (from
//     the builder) and interned to a dense ID only when it changed since the
//     previous evaluation;
//   - node durations and per-role/per-call memory terms are memoized in
//     session-local maps keyed by small structs of those IDs and of the
//     dense call and role indices prepared per graph, so a proposal that
//     moves one RPC only recosts the mutated call and its induced
//     realloc/transfer neighbors, and no memo key holds a string or a full
//     assignment;
//   - the Algorithm 1 simulation runs over scratch buffers.
//
// A session is single-goroutine state (each search chain owns one) and
// shares no memo with other sessions; search chains share scored plans
// through search.CostCache instead.
//
// Contract: evaluated plans must assign every call an individually legal
// (mesh, strategy) — the solver candidate sets guarantee this — because the
// session skips the per-node Plan.Validate that full Evaluate re-runs on
// every proposal. Mesh bounds are still checked against the estimator's
// cluster, exactly as Evaluate checks them, since the simulation indexes
// per-device lanes. Callers outside the solver loop (warm starts,
// caller-provided seeds) must Plan.Validate first.
type EvalSession struct {
	e        *Estimator
	fallback DurationFunc

	// Prepared once per dataflow graph: the builder that rebuilds the
	// augmented graph in place; the first node of each distinct call name
	// (the memory pass's dedup order, and the call index space); per dfg
	// node ID its call and role index, parents and first edge slot; the
	// graph's roles in first-appearance order with each role's calls and
	// home call index.
	graph     *dfg.Graph
	builder   *core.Builder
	calls     []*dfg.Node
	callOf    []int32
	roleOf    []int32
	parents   [][]*dfg.Node
	edgeSlot  []int
	roles     []dfg.Role
	roleCalls [][]int32
	homeCall  []int32

	// ids interns assignments to dense IDs; noOffOf and canonOf map an ID to
	// the IDs of its Offload-cleared and canonCommAssignment forms, so a
	// recurring assignment costs one map lookup, not three. The table is
	// independent of the graph, so it survives a rebind. resolved holds
	// each call's IDs under the plan last evaluated.
	ids      map[core.Assignment]int32
	noOffOf  []int32
	canonOf  []int32
	resolved []callIDs

	durations []float64
	sim       simScratch

	// Per-node duration fast path: the signature and duration each node last
	// had, indexed by a slot that names the node independently of arena
	// position (slotOf) — a realloc node appearing early in the arena does
	// not shift the slots of the nodes after it. Between consecutive
	// evaluations of single-call mutations only the mutated call's nodes and
	// their neighbors change signature, so the common case is one struct
	// compare per node instead of a memo-map lookup.
	last []memoEntry[nodeSig, float64]

	// Session-local memos (single-goroutine, lock-free).
	dur       map[nodeSig]float64
	staticMem map[staticKey]int64
	activeMem map[activeKey]int64
	static    []int64
	peak      []int64

	// Per-role static and per-call active fast paths: like last, one struct
	// compare replaces a memo-map hash when the key is unchanged since the
	// previous evaluation.
	staticSig []memoEntry[staticKey, int64]
	activeSig []memoEntry[activeKey, int64]

	stats SessionStats
}

// NewSession builds an incremental evaluation session over the estimator.
// fallback, when non-nil, costs nodes on session-local duration misses in
// place of the estimator's NodeDuration (the nil default).
func (e *Estimator) NewSession(fallback DurationFunc) *EvalSession {
	if fallback == nil {
		fallback = e.NodeDuration
	}
	// The memo maps are pre-sized for a search-length solve, so a solve does
	// not spend its first thousand proposals growing them.
	return &EvalSession{
		e:         e,
		fallback:  fallback,
		ids:       make(map[core.Assignment]int32, 1024),
		dur:       make(map[nodeSig]float64, 4096),
		staticMem: make(map[staticKey]int64, 256),
		activeMem: make(map[activeKey]int64, 2048),
	}
}

// Stats returns the session's counters.
func (s *EvalSession) Stats() SessionStats { return s.stats }

// Evaluate scores the plan incrementally. The returned PlanCost matches
// Estimator.Evaluate's Result field-for-field, bit for bit.
func (s *EvalSession) Evaluate(p *core.Plan) (PlanCost, error) {
	if err := s.prepare(p); err != nil {
		return PlanCost{}, err
	}
	g, err := s.builder.Build(p)
	if err != nil {
		return PlanCost{}, err
	}
	if err := s.e.checkMeshes(g.Nodes); err != nil {
		return PlanCost{}, err
	}
	s.resolve()
	nodes := g.Nodes
	s.durations = growFloats(s.durations, len(nodes))
	for i, n := range nodes {
		s.stats.NodeLookups++
		sig := s.sigOf(n)
		last := &s.last[s.slotOf(n)]
		if !last.ok || last.key != sig {
			d, ok := s.dur[sig]
			if !ok {
				s.stats.NodeRecosts++
				if d, err = s.fallback(p, n); err != nil {
					return PlanCost{}, err
				}
				s.dur[sig] = d
			}
			*last = memoEntry[nodeSig, float64]{key: sig, v: d, ok: true}
		}
		s.durations[i] = last.v
	}
	makespan := s.sim.run(nodes, s.durations, s.e.HW.NumGPUs(), s.e.OverlapComm, nil)
	pc := PlanCost{TimeCost: makespan, MaxMem: s.maxMem(p)}
	pc.Cost, pc.OOM = s.e.objective(pc.TimeCost, pc.MaxMem)
	s.stats.Evals++
	return pc, nil
}

// prepare (re)binds the session to the plan's dataflow graph: a fresh
// augmented-graph builder, and the dense call and role indices.
func (s *EvalSession) prepare(p *core.Plan) error {
	if s.graph == p.Graph {
		return nil
	}
	b, err := core.NewBuilder(p.Graph)
	if err != nil {
		return err
	}
	s.graph, s.builder = p.Graph, b
	nodes := p.Graph.Nodes
	s.calls, s.roles, s.roleCalls = s.calls[:0], s.roles[:0], s.roleCalls[:0]
	s.callOf = make([]int32, len(nodes))
	s.roleOf = make([]int32, len(nodes))
	callIdx := make(map[string]int32, len(nodes))
	roleIdx := make(map[dfg.Role]int32, 4)
	for _, n := range nodes {
		r, ok := roleIdx[n.Role]
		if !ok {
			r = int32(len(s.roles))
			roleIdx[n.Role] = r
			s.roles = append(s.roles, n.Role)
			s.roleCalls = append(s.roleCalls, nil)
		}
		c, ok := callIdx[n.Name]
		if !ok {
			c = int32(len(s.calls))
			callIdx[n.Name] = c
			s.calls = append(s.calls, n)
			s.roleCalls[r] = append(s.roleCalls[r], c)
		}
		s.callOf[n.ID], s.roleOf[n.ID] = c, r
	}
	s.homeCall = make([]int32, len(s.roles))
	for _, n := range s.calls {
		s.homeCall[s.roleOf[n.ID]] = s.callOf[b.Home(n).ID]
	}
	// Slots: one per call node, one per call's realloc-or-offload node (a
	// call has at most one), then one per data edge.
	slots := 2 * len(nodes)
	s.parents = make([][]*dfg.Node, len(nodes))
	s.edgeSlot = make([]int, len(nodes))
	for _, n := range nodes {
		s.parents[n.ID] = p.Graph.Parents(n)
		s.edgeSlot[n.ID] = slots
		slots += len(s.parents[n.ID])
	}
	s.last = make([]memoEntry[nodeSig, float64], slots)
	s.resolved = make([]callIDs, len(s.calls))
	s.staticSig = make([]memoEntry[staticKey, int64], len(s.roles))
	s.activeSig = make([]memoEntry[activeKey, int64], len(s.calls))
	// The memos key on call and role indices, which only mean something
	// for the graph they were prepared for, so a graph change must drop
	// them; the fast paths above were reallocated empty.
	clear(s.dur)
	clear(s.staticMem)
	clear(s.activeMem)
	return nil
}

// slotOf names an augmented node independently of its arena position: its
// call's dfg node ID for a call node, offset by the dfg node count for the
// call's realloc or offload node, and its edge's slot for a data transfer.
// Two nodes sharing a slot would only cost fast-path hits: the slot is
// trusted only when its stored signature equals the node's.
func (s *EvalSession) slotOf(n *core.AugNode) int {
	d := n.Call.ID
	switch n.Kind {
	case core.KindCall:
		return d
	case core.KindDataTransfer:
		for i, par := range s.parents[d] {
			if par == n.From {
				return s.edgeSlot[d] + i
			}
		}
	}
	return len(s.callOf) + d
}

// intern returns a's dense ID, assigning the next one on first sight.
func (s *EvalSession) intern(a core.Assignment) int32 {
	if id, ok := s.ids[a]; ok {
		return id
	}
	id := int32(len(s.ids))
	s.ids[a] = id
	s.noOffOf = append(s.noOffOf, -1)
	s.canonOf = append(s.canonOf, -1)
	return id
}

// resolve reads every distinct call's assignment from the last Build and
// re-interns only the calls whose assignment changed since the previous
// evaluation — after a single-call mutation, one.
func (s *EvalSession) resolve() {
	for i, n := range s.calls {
		a := s.builder.Assignment(n)
		c := &s.resolved[i]
		if c.ok && c.a == a {
			continue
		}
		id := s.intern(a)
		if s.noOffOf[id] < 0 {
			noOff := a
			noOff.Offload = false
			s.noOffOf[id] = s.intern(noOff)
			s.canonOf[id] = s.intern(canonCommAssignment(a))
		}
		*c = callIDs{a: a, ok: true, full: id, noOff: s.noOffOf[id], canon: s.canonOf[id]}
	}
}

// sigOf assembles one arena node's duration signature from the resolved
// call IDs. Call nodes use their assignment with Offload cleared — a call's
// compute duration does not depend on how its weights arrived, so a single
// offload flip re-costs only the appearing/disappearing offload node, not
// the call — and transfer-style nodes their (kind, role, bytes) and
// canonicalized endpoints: a realloc's source is its role's home, a data
// transfer's the producing call, an offload's host memory.
func (s *EvalSession) sigOf(n *core.AugNode) nodeSig {
	dst := s.callOf[n.Call.ID]
	if n.Kind == core.KindCall {
		return nodeSig{kind: int32(core.KindCall), idx: dst, src: s.resolved[dst].noOff}
	}
	sig := nodeSig{kind: int32(n.Kind), idx: -1, bytes: n.Bytes, src: noSource, dst: s.resolved[dst].canon}
	switch n.Kind {
	case core.KindParamRealloc:
		r := s.roleOf[n.Call.ID]
		sig.idx, sig.src = r, s.resolved[s.homeCall[r]].canon
	case core.KindOffload:
		sig.idx = s.roleOf[n.Call.ID]
	case core.KindDataTransfer:
		sig.src = s.resolved[s.callOf[n.From.ID]].canon
	}
	return sig
}

// roleOffloaded mirrors core.Plan.RoleOffloaded over the prepared per-role
// call lists: true iff the role has calls and every one offloads.
func (s *EvalSession) roleOffloaded(r int32) bool {
	for _, c := range s.roleCalls[r] {
		if !s.resolved[c].a.Offload {
			return false
		}
	}
	return len(s.roleCalls[r]) > 0
}

// maxMem computes MaxMem(Gp) with the same arithmetic as Estimator.memory,
// memoizing the per-role static footprint and per-call active footprint. It
// spans the estimator's cluster: every mesh was bounds-checked against it,
// and devices no call occupies add nothing to the maximum. Roles the plan
// models but the graph never calls rest nowhere (HomeOf reports none), so
// iterating the graph's prepared roles covers every static term.
func (s *EvalSession) maxMem(p *core.Plan) int64 {
	n := s.e.HW.NumGPUs()
	if cap(s.static) < n {
		s.static = make([]int64, n)
		s.peak = make([]int64, n)
	}
	static, peak := s.static[:n], s.peak[:n]
	for i := range static {
		static[i], peak[i] = 0, 0
	}

	for r, role := range s.roles {
		home := &s.resolved[s.homeCall[r]]
		off := s.roleOffloaded(int32(r))
		k := staticKey{role: int32(r), home: home.full}
		if off {
			k.off = 1
		}
		sg := &s.staticSig[r]
		if !sg.ok || sg.key != k {
			b, ok := s.staticMem[k]
			if !ok {
				ms := p.Models[role]
				b = memory.Static(ms.Params(), home.a.Strategy, memory.StaticOpts{
					Trainable:            ms.Trainable,
					ShardOptimizerOverDP: true,
					OffloadParams:        off,
				})
				s.staticMem[k] = b
			}
			*sg = memoEntry[staticKey, int64]{key: k, v: b, ok: true}
		}
		m := home.a.Mesh
		for gpu := m.First; gpu < m.First+m.Count; gpu++ {
			static[gpu] += sg.v
		}
	}

	for i, node := range s.calls {
		c := &s.resolved[i]
		home := &s.resolved[s.homeCall[s.roleOf[node.ID]]]
		k := activeKey{call: int32(i), a: c.full, home: home.full}
		sg := &s.activeSig[i]
		if !sg.ok || sg.key != k {
			act, ok := s.activeMem[k]
			if !ok {
				act = activeBytes(p.Models[node.Role], node, c.a, home.a)
				s.activeMem[k] = act
			}
			*sg = memoEntry[activeKey, int64]{key: k, v: act, ok: true}
		}
		m := c.a.Mesh
		for gpu := m.First; gpu < m.First+m.Count; gpu++ {
			if sg.v > peak[gpu] {
				peak[gpu] = sg.v
			}
		}
	}

	var maxMem int64
	for gpu := 0; gpu < n; gpu++ {
		if m := static[gpu] + peak[gpu]; m > maxMem {
			maxMem = m
		}
	}
	return maxMem
}
