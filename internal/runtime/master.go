package runtime

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/gpumodel"
	"realhf/internal/hardware"
	"realhf/internal/realloc"
)

// Options configures a run.
type Options struct {
	// UseCUDAGraph enables CUDA-graph capture for decoding kernels
	// (Table 6's ±CUDAGraph comparison). Default true.
	UseCUDAGraph bool
	// OverlapComm routes parameter-reallocation, data-transfer and offload
	// nodes to each worker's communication stream, so they execute
	// concurrently with model function calls on the compute stream (§6's
	// overlapped runtime). When false, every node shares the compute stream
	// and the schedule is fully serialized per device — the baseline side of
	// the ±overlap ablation.
	OverlapComm bool
	// Context, when set, cancels an in-flight run: Run returns the partial
	// report accumulated so far together with a wrapping error.
	Context context.Context
	// WorkerTimeout bounds how long the dispatch loop waits for the next
	// worker reply while nodes are in flight. When it expires, the run is
	// abandoned with a partial report and an error chaining a typed
	// *ErrWorkerLost naming the smallest device that still owes a reply —
	// the failure-detection half of the resilience contract (a dead worker
	// must surface as a typed error, never as a hang). Zero disables the
	// timeout (the historical behavior).
	WorkerTimeout time.Duration
	// Transport overrides the default in-process transport. When set, the
	// caller owns worker setup and teardown; StaticBytes must already be
	// populated on the workers, and Workers must be provided for memory
	// reporting.
	Transport Transport
	// Workers must accompany a custom Transport (for peak reporting).
	Workers []*ModelWorker
}

// NodeSpan is one executed node of the run timeline.
type NodeSpan struct {
	Label string
	Kind  core.Kind
	// Stream is the worker lane the node executed on.
	Stream Stream
	// Lane is the first GPU of the node's meshes — the track the Chrome
	// trace exporter places the span on.
	Lane   int
	StartV float64
	EndV   float64
}

// Report is the outcome of executing a plan on the simulated cluster.
type Report struct {
	// MakespanV is the virtual wall time of the whole (possibly
	// multi-iteration) run.
	MakespanV float64
	// Iterations is the number of RLHF iterations the graph spanned (the
	// configured count, whether or not the run finished them).
	Iterations int
	// CompletedIterations counts iterations whose every model function call
	// finished. It equals Iterations for a run that completed; a cancelled
	// run reports fewer, and IterTime divides by this count.
	CompletedIterations int
	// OverlapComm echoes the option the run executed under.
	OverlapComm bool
	// CallTimes maps call names to their iteration-0 virtual durations
	// (Table 6 rows).
	CallTimes map[string]float64
	// CallBreakdowns carries the kernel-category split per call (Fig. 11).
	CallBreakdowns map[string]gpumodel.Breakdown
	// CommTimeV totals parameter reallocation + data transfer + offload
	// time across the run (independent of whether it was overlapped).
	CommTimeV float64
	// Timeline lists every executed node.
	Timeline []NodeSpan
	// OOM reports whether any worker ran out of memory; Errors carries the
	// worker messages (sorted for reproducibility).
	OOM    bool
	Errors []string
	// PeakBytes is the max observed memory over all workers.
	PeakBytes int64
}

// IterTime is the average virtual time per fully completed RLHF iteration.
// It divides by the iterations the run actually completed, clamped to the
// configured count — a partial report from a cancelled run is not averaged
// over work that never happened. When nothing completed (or on a hand-built
// report without iteration counts) it degrades to the raw makespan.
func (r *Report) IterTime() float64 {
	iters := r.Iterations
	if r.CompletedIterations < iters {
		iters = r.CompletedIterations
	}
	if iters <= 0 {
		return r.MakespanV
	}
	return r.MakespanV / float64(iters)
}

// Master is the centralized controller of §6: it owns the augmented graph,
// resolves dependencies with an event-driven ready-queue scheduler, and
// drives model workers through a Transport. Workers execute concurrently on
// their own goroutines; the master's conservative dispatch gate (see Run)
// keeps every per-stream request sequence deterministic, so the virtual
// timeline is byte-reproducible run to run regardless of goroutine
// scheduling.
type Master struct {
	plan    *core.Plan
	hw      hardware.Cluster
	oracles map[dfg.Role]*gpumodel.Oracle
	comm    gpumodel.Comm
	opts    Options
}

// NewMaster prepares a master for one plan.
func NewMaster(p *core.Plan, opts Options) *Master {
	oracles := map[dfg.Role]*gpumodel.Oracle{}
	for role, ms := range p.Models {
		o := gpumodel.NewOracle(p.Cluster, ms.Cfg)
		o.UseCUDAGraph = opts.UseCUDAGraph
		oracles[role] = o
	}
	return &Master{
		plan:    p,
		hw:      p.Cluster,
		oracles: oracles,
		comm:    gpumodel.Comm{HW: p.Cluster},
		opts:    opts,
	}
}

// Run executes the plan: it validates and expands it into the augmented
// graph, spawns (or adopts) model workers, and runs the event-driven
// dispatch loop until every node completes.
func Run(p *core.Plan, opts Options) (*Report, error) {
	m := NewMaster(p, opts)
	return m.Run()
}

// RunDefault executes the plan with CUDA graphs enabled and communication
// overlap disabled over the in-process transport — the serialized reference
// schedule (the historical default, and the baseline of the ±overlap
// ablation).
func RunDefault(p *core.Plan) (*Report, error) {
	return Run(p, Options{UseCUDAGraph: true})
}

// RunOverlapped executes the plan with CUDA graphs and communication
// overlap both enabled — the paper's full runtime configuration.
func RunOverlapped(p *core.Plan) (*Report, error) {
	return Run(p, Options{UseCUDAGraph: true, OverlapComm: true})
}

// nodeWork is the master's precomputed knowledge about one augmented node.
type nodeWork struct {
	node *core.AugNode
	// label is node.Label(), rendered once for every dispatch and span.
	label string
	// gpus are the devices the node occupies (deduplicated, sorted).
	gpus []int
	// durByGPU gives each device's busy time; nil means uniform `dur`.
	durByGPU map[int]float64
	dur      float64
	alloc    int64
	// breakdown is set for call nodes.
	breakdown gpumodel.Breakdown
}

func (m *Master) prepare(g *core.AugGraph) ([]nodeWork, error) {
	works := make([]nodeWork, len(g.Nodes))
	for _, n := range g.Nodes {
		w := nodeWork{node: n, label: n.Label()}
		set := map[int]bool{}
		for _, ms := range n.Meshes {
			for _, gpu := range ms.GPUs() {
				set[gpu] = true
			}
		}
		for gpu := range set {
			w.gpus = append(w.gpus, gpu)
		}
		sort.Ints(w.gpus)

		switch n.Kind {
		case core.KindCall:
			spec, err := estimator.CallSpecOf(m.plan, n.Call)
			if err != nil {
				return nil, err
			}
			oracle, ok := m.oracles[n.Call.Role]
			if !ok {
				return nil, fmt.Errorf("runtime: no oracle for role %q", n.Call.Role)
			}
			w.breakdown = gpumodel.AssembleCall(oracle, m.comm, spec)
			w.dur = w.breakdown.Total()
			w.alloc = estimator.CallActiveBytes(m.plan, n.Call)
		case core.KindParamRealloc:
			ms := m.plan.Models[n.Role]
			sched := realloc.PlanParams(ms.Cfg.NumLayers, ms.Cfg.LayerParamBytes(),
				n.Src, n.Dst, m.hw.GPUsPerNode)
			w.durByGPU = sched.BusyPerGPU(m.hw)
			w.dur = maxBusy(w.durByGPU)
		case core.KindDataTransfer:
			sched := realloc.PlanData(n.Bytes, n.Src, n.Dst, m.hw.GPUsPerNode)
			w.durByGPU = sched.BusyPerGPU(m.hw)
			w.dur = maxBusy(w.durByGPU)
		case core.KindOffload:
			perGPU := n.Bytes / int64(n.Dst.Mesh.NumGPUs())
			w.dur = m.comm.OffloadTransfer(perGPU)
		}
		works[n.ID] = w
	}
	return works, nil
}

// maxBusy is Schedule.Cost over an already-computed busy map.
func maxBusy(busy map[int]float64) float64 {
	var max float64
	for _, t := range busy {
		if t > max {
			max = t
		}
	}
	return max
}

// readyItem orders the master's dispatch queue by (ready time, comm-first,
// node ID) — a total, deterministic order. Communication nodes win ready
// ties: a transfer is cheap and unblocks a remote mesh, so queueing it
// behind an equally-ready long call on its source mesh would stall the
// destination pipeline for the call's whole duration (the estimator's
// schedule and the paper's engine both let transfers slip in first).
type readyItem struct {
	ready float64
	comm  bool
	id    int
}

type readyHeap []readyItem

func (q readyHeap) Len() int { return len(q) }
func (q readyHeap) Less(i, j int) bool {
	if q[i].ready != q[j].ready {
		return q[i].ready < q[j].ready
	}
	if q[i].comm != q[j].comm {
		return q[i].comm
	}
	return q[i].id < q[j].id
}
func (q readyHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *readyHeap) Push(x any)   { *q = append(*q, x.(readyItem)) }
func (q *readyHeap) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Run drives the event-driven dispatch loop.
//
// Determinism: workers run concurrently, and replies arrive in arbitrary
// physical order, but the virtual timeline they produce is a pure function
// of the per-(worker, stream) request order — which the master keeps
// deterministic with a conservative gate. A ready node (all parents
// complete) is dispatched only when its ready time is strictly below every
// in-flight node's earliest possible completion (readyV + dispatch
// overhead): since any future node's ready time is at least that bound, the
// global dispatch sequence is exactly the (ready time, node ID)-sorted
// order, independent of goroutine scheduling and reply arrival order.
func (m *Master) Run() (*Report, error) {
	ctx := m.opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if m.opts.Transport != nil && len(m.opts.Workers) == 0 {
		return nil, fmt.Errorf("runtime: custom Transport requires Options.Workers (memory accounting needs the worker set)")
	}
	g, err := m.plan.BuildAugGraph()
	if err != nil {
		return nil, err
	}
	works, err := m.prepare(g)
	if err != nil {
		return nil, err
	}

	var workers []*ModelWorker
	transport := m.opts.Transport
	if transport == nil {
		static := estimator.StaticPerGPU(m.plan)
		workers = make([]*ModelWorker, m.hw.NumGPUs())
		for i := range workers {
			workers[i] = NewModelWorker(i, m.hw.GPU.MemoryBytes)
			workers[i].StaticBytes = static[i]
		}
		ct := NewChanTransport(workers)
		defer ct.Close()
		transport = ct
	} else {
		workers = m.opts.Workers
	}

	report := &Report{
		OverlapComm:    m.opts.OverlapComm,
		CallTimes:      map[string]float64{},
		CallBreakdowns: map[string]gpumodel.Breakdown{},
	}

	total := len(g.Nodes)
	pending := make([]int, total) // outstanding parent count
	readyV := make([]float64, total)
	outstanding := make([]int, total) // replies still expected
	startV := make([]float64, total)  // min start over the node's replies
	endV := make([]float64, total)    // max end over the node's replies
	done := make([]bool, total)
	for i := range startV {
		startV[i] = math.MaxFloat64
	}

	streamFor := func(k core.Kind) Stream {
		if m.opts.OverlapComm {
			return StreamOf(k)
		}
		return StreamCompute
	}

	var ready readyHeap
	inflight := map[int]float64{}            // id -> lower bound on completion time
	owedByGPU := make([]int, m.hw.NumGPUs()) // replies each device still owes

	// minInflightBound is the earliest virtual time any in-flight node can
	// complete — the dispatch gate. Map iteration order does not matter:
	// min is order-independent.
	minInflightBound := func() (float64, bool) {
		if len(inflight) == 0 {
			return 0, false
		}
		min := math.MaxFloat64
		for _, b := range inflight {
			if b < min {
				min = b
			}
		}
		return min, true
	}

	dispatch := func(id int) error {
		w := works[id]
		s := streamFor(w.node.Kind)
		for _, gpu := range w.gpus {
			dur := w.dur
			if w.durByGPU != nil {
				dur = w.durByGPU[gpu]
			}
			req := Request{
				ID: id, Kind: ReqRunCall, NodeID: id, Stream: s,
				Label: w.label, Handle: string(w.node.Role),
				ReadyV: readyV[id], DurV: dur, AllocBytes: w.alloc,
			}
			if w.node.Kind != core.KindCall {
				req.Kind = ReqComm
				req.AllocBytes = 0
			}
			if err := transport.Send(gpu, req); err != nil {
				return fmt.Errorf("runtime: dispatch %q to gpu %d: %w", w.label, gpu, err)
			}
			owedByGPU[gpu]++
		}
		outstanding[id] = len(w.gpus)
		inflight[id] = readyV[id] + dispatchOverheadV
		return nil
	}

	completed := 0
	handleReply := func(rep Reply) {
		// Only an in-flight node of this run is owed a reply. Anything else
		// — a fence answered after its drain gave up, a duplicate, or an ID
		// a TCP peer made up — is dropped before it can index the tables.
		if _, ok := inflight[rep.ID]; !ok {
			return
		}
		if rep.OOM {
			report.OOM = true
			report.Errors = append(report.Errors, rep.Error)
		}
		id := rep.ID
		if rep.EndV > endV[id] {
			endV[id] = rep.EndV
		}
		if rep.StartV < startV[id] {
			startV[id] = rep.StartV
		}
		if rep.GPU >= 0 && rep.GPU < len(owedByGPU) {
			owedByGPU[rep.GPU]--
		}
		outstanding[id]--
		if outstanding[id] > 0 {
			return
		}
		// Node complete: release the gate and unlock children.
		done[id] = true
		completed++
		delete(inflight, id)
		for _, c := range g.Nodes[id].Children {
			if endV[id] > readyV[c] {
				readyV[c] = endV[id]
			}
			pending[c]--
			if pending[c] == 0 {
				heap.Push(&ready, readyItem{ready: readyV[c], comm: g.Nodes[c].Kind.CommLike(), id: c})
			}
		}
	}

	// finish assembles the deterministic report from per-node results,
	// independent of reply arrival order: nodes are folded in ID order and
	// the error list is sorted.
	finish := func() {
		// Iteration accounting distinguishes the configured span (every call
		// node, done or not) from what actually completed: an iteration
		// counts as completed only when all of its calls finished, so a
		// cancelled run's IterTime is never averaged over phantom work.
		iters := 0
		callsPerIter := map[int]int{}
		donePerIter := map[int]int{}
		for _, n := range g.Nodes {
			if n.Kind == core.KindCall {
				if n.Call.Iter+1 > iters {
					iters = n.Call.Iter + 1
				}
				callsPerIter[n.Call.Iter]++
				if done[n.ID] {
					donePerIter[n.Call.Iter]++
				}
			}
			if !done[n.ID] {
				continue
			}
			w := works[n.ID]
			report.Timeline = append(report.Timeline, NodeSpan{
				Label: w.label, Kind: n.Kind, Stream: streamFor(n.Kind),
				Lane: w.gpus[0], StartV: startV[n.ID], EndV: endV[n.ID],
			})
			if endV[n.ID] > report.MakespanV {
				report.MakespanV = endV[n.ID]
			}
			switch n.Kind {
			case core.KindCall:
				if n.Call.Iter == 0 {
					report.CallTimes[n.Call.Name] = w.dur
					report.CallBreakdowns[n.Call.Name] = w.breakdown
				}
			default:
				report.CommTimeV += w.dur
			}
		}
		report.Iterations = iters
		for it, total := range callsPerIter {
			if donePerIter[it] == total {
				report.CompletedIterations++
			}
		}
		for _, w := range workers {
			if w != nil && w.Peak() > report.PeakBytes {
				report.PeakBytes = w.Peak()
			}
		}
		sort.Strings(report.Errors)
		sort.SliceStable(report.Timeline, func(i, j int) bool {
			return report.Timeline[i].StartV < report.Timeline[j].StartV
		})
	}

	for _, n := range g.Nodes {
		pending[n.ID] = len(n.Parents)
	}
	for _, n := range g.Nodes {
		if pending[n.ID] == 0 {
			heap.Push(&ready, readyItem{ready: 0, comm: n.Kind.CommLike(), id: n.ID})
		}
	}

	// A run that dies mid-flight — lost worker, closed transport, stalled
	// scheduler — still returns the partial report assembled from every
	// node that did complete, exactly like a context cancellation: the
	// caller's accounting (CompletedIterations, IterTime's partial-run
	// clamp) must not depend on *why* the run ended early.
	var timer *time.Timer
	if m.opts.WorkerTimeout > 0 {
		timer = time.NewTimer(m.opts.WorkerTimeout)
		defer timer.Stop()
	}
	for completed < total {
		// Dispatch every node the gate admits, draining replies
		// opportunistically so queues never back up. Handling a reply
		// early never changes the dispatch sequence — the gate already
		// forbids any pop the extra knowledge could reorder.
		for ready.Len() > 0 {
			if bound, ok := minInflightBound(); ok && ready[0].ready >= bound {
				break
			}
			it := heap.Pop(&ready).(readyItem)
			if err := dispatch(it.id); err != nil {
				finish()
				return report, err
			}
			for drained := false; !drained; {
				select {
				case rep, ok := <-transport.Replies():
					if !ok {
						finish()
						return report, fmt.Errorf("runtime: transport closed with %d nodes in flight", len(inflight))
					}
					handleReply(rep)
				default:
					drained = true
				}
			}
		}
		if completed == total {
			break
		}
		if len(inflight) == 0 {
			finish()
			return report, fmt.Errorf("runtime: scheduler stalled with %d/%d nodes complete", completed, total)
		}
		// Re-arm the liveness timer for this wait: a timeout means no
		// worker answered for a full WorkerTimeout while replies were owed.
		var timeoutC <-chan time.Time
		if timer != nil {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(m.opts.WorkerTimeout)
			timeoutC = timer.C
		}
		select {
		case <-ctx.Done():
			finish()
			return report, fmt.Errorf("runtime: run cancelled with %d/%d nodes complete: %w",
				completed, total, ctx.Err())
		case <-timeoutC:
			finish()
			lost := -1
			for gpu, owed := range owedByGPU {
				if owed > 0 {
					lost = gpu
					break
				}
			}
			return report, fmt.Errorf("runtime: no worker reply within %v with %d/%d nodes complete: %w",
				m.opts.WorkerTimeout, completed, total, &ErrWorkerLost{GPU: lost})
		case rep, ok := <-transport.Replies():
			if !ok {
				finish()
				return report, fmt.Errorf("runtime: transport closed with %d nodes in flight", len(inflight))
			}
			handleReply(rep)
		}
	}
	finish()
	return report, nil
}
