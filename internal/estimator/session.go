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

// callDurKey identifies a call node's duration inputs: within one problem a
// call name fixes (role, type, workload, model), so the duration varies only
// with the assignment. The session is bound to one estimator, so the
// calibration is fixed and needs no key component.
type callDurKey struct {
	name string
	a    core.Assignment
}

// commDurKey identifies a transfer-style node's duration inputs: (kind,
// role, bytes, src, dst). The role pins the model config a realloc schedule
// depends on; data transfers leave it empty, exactly like the
// augmented-graph builder.
type commDurKey struct {
	kind     core.Kind
	role     dfg.Role
	bytes    int64
	src, dst core.Assignment
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

// nodeSig is the full duration signature of one arena slot: every input the
// node's duration depends on, in one comparable struct. Call nodes carry
// (name, assignment) in (name, src); transfer-style nodes carry (kind, role,
// bytes, canonical endpoints). Equal signatures imply equal durations, so a
// slot whose signature survives a rebuild reuses its duration with a single
// struct comparison — no map hashing. The signature alone determines the
// value even when a structural change shifts arena slots; a stale slot
// simply misses and falls back to the memo maps.
type nodeSig struct {
	kind     core.Kind
	name     string
	role     dfg.Role
	bytes    int64
	src, dst core.Assignment
}

// staticKey identifies one role's resting-memory inputs. off is the plan's
// RoleOffloaded verdict: a flip on any of the role's calls — not just the
// home call — moves the resting bf16 copy in or out of host memory, so the
// (role, home) pair alone would go stale under single-offload-flip
// mutations.
type staticKey struct {
	role dfg.Role
	home core.Assignment
	off  bool
}

// activeSigEntry caches one call's last active-bytes computation for the
// maxMem fast path.
type activeSigEntry struct {
	a, home core.Assignment
	act     int64
	ok      bool
}

// activeKey identifies one call's transient-memory inputs: the footprint
// depends on the call (name fixes role/type/workload), its assignment, and
// the role's home (resident weights are discounted at home).
type activeKey struct {
	name    string
	a, home core.Assignment
}

// EvalSession is a reusable, allocation-free incremental evaluator for one
// (problem, estimator) pair. It answers the same question as
// Estimator.Evaluate — TimeCost, MaxMem, OOM and Cost are bit-identical —
// but re-uses everything a single-call mutation cannot have changed:
//
//   - the augmented graph is rebuilt in place by a core.Builder prepared
//     once per dataflow graph: the same construction core.BuildAugGraph
//     runs, into a reused node arena;
//   - node durations and per-role memory terms are memoized in session-local
//     maps keyed by value types, so a proposal that moves one RPC only
//     recosts the mutated call and its induced realloc/transfer neighbors;
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
	// augmented graph in place, plus the memory pass's per-role call lists
	// and the first node of each distinct call name (its dedup order).
	graph       *dfg.Graph
	builder     *core.Builder
	roleCalls   map[dfg.Role][]string
	firstByName []*dfg.Node

	durations []float64
	sim       simScratch

	// Per-arena-slot duration fast path: the signature and duration each slot
	// held after its last successful costing. Between consecutive evaluations
	// of single-call mutations most slots rebuild with identical signatures,
	// so the common case is one struct compare per node instead of a memo-map
	// lookup.
	sigs      []nodeSig
	sigDur    []float64
	sigFilled []bool

	// Session-local memos (single-goroutine, lock-free).
	callDur   map[callDurKey]float64
	commDur   map[commDurKey]float64
	staticMem map[staticKey]int64
	activeMem map[activeKey]int64
	static    []int64
	peak      []int64

	// Per-call active-bytes fast path, indexed by firstByName position (the
	// memory pass's fixed iteration order): like sigs/sigDur, one struct
	// compare replaces a memo-map hash when the call's assignment and its
	// role's home are unchanged.
	activeSig []activeSigEntry

	stats SessionStats
}

// NewSession builds an incremental evaluation session over the estimator.
// fallback, when non-nil, costs nodes on session-local duration misses in
// place of the estimator's NodeDuration (the nil default).
func (e *Estimator) NewSession(fallback DurationFunc) *EvalSession {
	if fallback == nil {
		fallback = e.NodeDuration
	}
	// The memo maps are pre-sized for a search-length solve: growing them
	// from empty re-hashes thousands of large value-type keys per solve,
	// which showed up as double-digit percentages of search profiles.
	return &EvalSession{
		e:        e,
		fallback: fallback,
		callDur:  make(map[callDurKey]float64, 2048),
		commDur:  make(map[commDurKey]float64, 4096),

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
	nodes := g.Nodes
	s.durations = growFloats(s.durations, len(nodes))
	for len(s.sigs) < len(nodes) {
		s.sigs = append(s.sigs, nodeSig{})
		s.sigDur = append(s.sigDur, 0)
		s.sigFilled = append(s.sigFilled, false)
	}
	for i, n := range nodes {
		s.stats.NodeLookups++
		sig := sigOf(p, n)
		if s.sigFilled[i] && s.sigs[i] == sig {
			s.durations[i] = s.sigDur[i]
			continue
		}
		d, err := s.duration(p, n, sig)
		if err != nil {
			return PlanCost{}, err
		}
		s.durations[i] = d
		s.sigs[i], s.sigDur[i], s.sigFilled[i] = sig, d, true
	}
	makespan := s.sim.run(nodes, s.durations, s.e.HW.NumGPUs(), s.e.OverlapComm, nil)
	pc := PlanCost{TimeCost: makespan, MaxMem: s.maxMem(p)}
	pc.Cost, pc.OOM = s.e.objective(pc.TimeCost, pc.MaxMem)
	s.stats.Evals++
	return pc, nil
}

// prepare (re)binds the session to the plan's dataflow graph: a fresh
// augmented-graph builder, and the memory pass's per-role call lists and
// first node of each distinct call name.
func (s *EvalSession) prepare(p *core.Plan) error {
	if s.graph == p.Graph {
		return nil
	}
	b, err := core.NewBuilder(p.Graph)
	if err != nil {
		return err
	}
	s.graph, s.builder = p.Graph, b
	s.firstByName = s.firstByName[:0]
	seen := make(map[string]bool, len(p.Graph.Nodes))
	s.roleCalls = make(map[dfg.Role][]string, 4)
	for _, n := range p.Graph.Nodes {
		if !seen[n.Name] {
			seen[n.Name] = true
			s.firstByName = append(s.firstByName, n)
			s.roleCalls[n.Role] = append(s.roleCalls[n.Role], n.Name)
		}
	}
	s.activeSig = make([]activeSigEntry, len(s.firstByName))
	// The memos key on (name, assignment) and (role, home) — both fixed by
	// the graph+models pair — so a graph change must drop them, along with
	// the per-slot signature fast path.
	clear(s.callDur)
	clear(s.commDur)
	clear(s.staticMem)
	clear(s.activeMem)
	for i := range s.sigFilled {
		s.sigFilled[i] = false
	}
	return nil
}

// sigOf assembles one arena node's duration signature. Call nodes use their
// (name, assignment) with Offload cleared — a call's compute duration does
// not depend on how its weights arrived, so a single offload flip re-costs
// only the appearing/disappearing offload node, not the call — and
// transfer-style nodes their (kind, role, bytes) and canonicalized
// endpoints.
func sigOf(p *core.Plan, n *core.AugNode) nodeSig {
	if n.Kind == core.KindCall {
		a := p.Assign[n.Call.Name]
		a.Offload = false
		return nodeSig{kind: core.KindCall, name: n.Call.Name, src: a}
	}
	return nodeSig{
		kind: n.Kind, role: n.Role, bytes: n.Bytes,
		src: canonCommAssignment(n.Src), dst: canonCommAssignment(n.Dst),
	}
}

// duration memoizes one arena node's duration in the session-local maps,
// consulting the fallback only on a local miss. The keys hold exactly the
// node's cost inputs, so an entry is invalidated exactly when a
// mutation changes the node's cost inputs: a call node by its assignment, a
// transfer-style node by its (kind, role, bytes, endpoints). sig must be
// sigOf(p, n); its fields double as the map keys.
func (s *EvalSession) duration(p *core.Plan, n *core.AugNode, sig nodeSig) (float64, error) {
	if n.Kind == core.KindCall {
		k := callDurKey{name: sig.name, a: sig.src}
		if d, ok := s.callDur[k]; ok {
			return d, nil
		}
		s.stats.NodeRecosts++
		d, err := s.fallback(p, n)
		if err != nil {
			return 0, err
		}
		s.callDur[k] = d
		return d, nil
	}
	k := commDurKey{kind: sig.kind, role: sig.role, bytes: sig.bytes, src: sig.src, dst: sig.dst}
	if d, ok := s.commDur[k]; ok {
		return d, nil
	}
	s.stats.NodeRecosts++
	d, err := s.fallback(p, n)
	if err != nil {
		return 0, err
	}
	s.commDur[k] = d
	return d, nil
}

// roleOffloaded mirrors core.Plan.RoleOffloaded over the prepared per-role
// call lists: true iff the role has calls and every one offloads.
func (s *EvalSession) roleOffloaded(p *core.Plan, role dfg.Role) bool {
	names := s.roleCalls[role]
	if len(names) == 0 {
		return false
	}
	for _, name := range names {
		if !p.Assign[name].Offload {
			return false
		}
	}
	return true
}

// maxMem computes MaxMem(Gp) with the same arithmetic as Estimator.memory,
// memoizing the per-role static footprint and per-call active footprint. It
// spans the estimator's cluster: every mesh was bounds-checked against it,
// and devices no call occupies add nothing to the maximum.
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

	for role, ms := range p.Models {
		homeName, ok := s.builder.HomeCall(role)
		if !ok {
			continue // role not in the graph, as HomeOf reports
		}
		home := p.Assign[homeName]
		off := s.roleOffloaded(p, role)
		k := staticKey{role: role, home: home, off: off}
		b, ok := s.staticMem[k]
		if !ok {
			b = memory.Static(ms.Params(), home.Strategy, memory.StaticOpts{
				Trainable:            ms.Trainable,
				ShardOptimizerOverDP: true,
				OffloadParams:        off,
			})
			s.staticMem[k] = b
		}
		for gpu := home.Mesh.First; gpu < home.Mesh.First+home.Mesh.Count; gpu++ {
			static[gpu] += b
		}
	}

	for i, node := range s.firstByName {
		a := p.Assign[node.Name]
		homeName, _ := s.builder.HomeCall(node.Role)
		home := p.Assign[homeName]
		sg := &s.activeSig[i]
		var act int64
		if sg.ok && sg.a == a && sg.home == home {
			act = sg.act
		} else {
			k := activeKey{name: node.Name, a: a, home: home}
			var hit bool
			act, hit = s.activeMem[k]
			if !hit {
				act = CallActiveBytes(p, node)
				s.activeMem[k] = act
			}
			*sg = activeSigEntry{a: a, home: home, act: act, ok: true}
		}
		for gpu := a.Mesh.First; gpu < a.Mesh.First+a.Mesh.Count; gpu++ {
			if act > peak[gpu] {
				peak[gpu] = act
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
