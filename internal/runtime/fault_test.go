package runtime

import (
	"errors"
	"sync"
	"testing"
	"time"

	"realhf/internal/estimator"
)

// faultyPool builds a worker pool whose chan transport is wrapped in a
// FaultyTransport — the in-process chaos rig the resilience tests use.
func faultyPool(numGPUs int, mem int64) (*WorkerPool, *FaultyTransport, []*ModelWorker) {
	workers := make([]*ModelWorker, numGPUs)
	for i := range workers {
		workers[i] = NewModelWorker(i, mem)
	}
	ft := NewFaultyTransport(NewChanTransport(workers))
	return NewWorkerPoolWith(workers, ft), ft, workers
}

// TestFaultKillFailsReset: a killed worker fails the fence protocol with a
// typed *ErrWorkerLost naming the device, via the send-error path (no
// timeout needed — a dead transport lane answers immediately).
func TestFaultKillFailsReset(t *testing.T) {
	plan := reallocHeavyPlan(t, 1)
	wp, ft, _ := faultyPool(plan.Cluster.NumGPUs(), plan.Cluster.GPU.MemoryBytes)
	defer wp.Close()
	ft.Fail(3, FaultKill)
	err := wp.Reset(estimator.StaticPerGPU(plan))
	var lost *ErrWorkerLost
	if !errors.As(err, &lost) {
		t.Fatalf("Reset with a killed worker returned %v, want *ErrWorkerLost", err)
	}
	if lost.GPU != 3 {
		t.Fatalf("lost gpu %d, want 3", lost.GPU)
	}
}

// TestFenceTimeoutOnDroppedStream: a wedged worker (requests silently
// swallowed, no error) is only detectable by the fence timeout, which must
// blame exactly the wedged device.
func TestFenceTimeoutOnDroppedStream(t *testing.T) {
	plan := reallocHeavyPlan(t, 1)
	wp, ft, _ := faultyPool(plan.Cluster.NumGPUs(), plan.Cluster.GPU.MemoryBytes)
	defer wp.Close()
	wp.SetFenceTimeout(100 * time.Millisecond)
	ft.Fail(5, FaultDrop)
	err := wp.Reset(estimator.StaticPerGPU(plan))
	var lost *ErrWorkerLost
	if !errors.As(err, &lost) {
		t.Fatalf("Reset with a wedged worker returned %v, want *ErrWorkerLost", err)
	}
	if lost.GPU != 5 {
		t.Fatalf("lost gpu %d, want 5", lost.GPU)
	}
}

// TestFaultDelayHealRecovers: a stalled reply path times the fence out,
// but after Heal releases the backlog the pool quiesces and executes the
// plan bit-identically to a fresh one-shot run — transient faults do not
// poison the session.
func TestFaultDelayHealRecovers(t *testing.T) {
	plan := reallocHeavyPlan(t, 1)
	oneShot, err := RunOverlapped(plan)
	if err != nil {
		t.Fatal(err)
	}
	wp, ft, _ := faultyPool(plan.Cluster.NumGPUs(), plan.Cluster.GPU.MemoryBytes)
	defer wp.Close()
	wp.SetFenceTimeout(100 * time.Millisecond)
	static := estimator.StaticPerGPU(plan)

	ft.Fail(2, FaultDelay)
	err = wp.Reset(static)
	var lost *ErrWorkerLost
	if !errors.As(err, &lost) || lost.GPU != 2 {
		t.Fatalf("Reset with a delayed worker returned %v, want *ErrWorkerLost on gpu 2", err)
	}

	ft.Heal(2)
	if err := wp.Reset(static); err != nil {
		t.Fatalf("Reset after Heal: %v", err)
	}
	rep, err := wp.Run(plan, Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MakespanV != oneShot.MakespanV {
		t.Fatalf("post-heal makespan %v != one-shot %v", rep.MakespanV, oneShot.MakespanV)
	}
}

// TestRunWorkerTimeoutPartialReport: losing a worker mid-run surfaces a
// typed *ErrWorkerLost through Options.WorkerTimeout instead of hanging,
// and the partial report still accounts the nodes that completed.
func TestRunWorkerTimeoutPartialReport(t *testing.T) {
	plan := reallocHeavyPlan(t, 2)
	static := estimator.StaticPerGPU(plan)
	workers := make([]*ModelWorker, plan.Cluster.NumGPUs())
	for i := range workers {
		workers[i] = NewModelWorker(i, plan.Cluster.GPU.MemoryBytes)
		workers[i].StaticBytes = static[i]
	}
	ft := NewFaultyTransport(NewChanTransport(workers))
	defer ft.Close()
	// The third request delivered to gpu 0 finds the worker dead: from
	// then on its replies vanish and fresh sends to it fail.
	ft.InjectAfter(0, 3, FaultKill)

	rep, err := Run(plan, Options{
		UseCUDAGraph: true, OverlapComm: true,
		Transport: ft, Workers: workers,
		WorkerTimeout: 200 * time.Millisecond,
	})
	var lost *ErrWorkerLost
	if !errors.As(err, &lost) {
		t.Fatalf("Run with a killed worker returned %v, want *ErrWorkerLost", err)
	}
	if lost.GPU != 0 {
		t.Fatalf("lost gpu %d, want 0", lost.GPU)
	}
	if rep == nil {
		t.Fatal("worker loss must still return the partial report")
	}
	if rep.Iterations != 2 {
		t.Fatalf("partial report Iterations = %d, want the configured 2", rep.Iterations)
	}
	if rep.CompletedIterations >= rep.Iterations {
		t.Fatalf("CompletedIterations = %d with a worker lost mid-run, want < %d",
			rep.CompletedIterations, rep.Iterations)
	}
}

// TestFaultFreePassThroughIsBitIdentical: with no fault armed the wrapper
// is invisible — the pooled run over a FaultyTransport reproduces the
// one-shot timeline byte for byte (determinism survives the extra hop).
func TestFaultFreePassThroughIsBitIdentical(t *testing.T) {
	plan := reallocHeavyPlan(t, 1)
	oneShot, err := RunOverlapped(plan)
	if err != nil {
		t.Fatal(err)
	}
	wp, _, _ := faultyPool(plan.Cluster.NumGPUs(), plan.Cluster.GPU.MemoryBytes)
	defer wp.Close()
	if err := wp.Reset(estimator.StaticPerGPU(plan)); err != nil {
		t.Fatal(err)
	}
	rep, err := wp.Run(plan, Options{UseCUDAGraph: true, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MakespanV != oneShot.MakespanV || rep.PeakBytes != oneShot.PeakBytes {
		t.Fatalf("faulty-transport run (%v, %d) != one-shot (%v, %d)",
			rep.MakespanV, rep.PeakBytes, oneShot.MakespanV, oneShot.PeakBytes)
	}
}

// strayReplyTransport executes requests synchronously against real workers,
// but answers the first one only after slipping replies no run is owed into
// the reply stream: a late fence (the negative IDs the pool's drains use)
// and a node ID beyond the plan, as a misbehaving TCP peer could send.
type strayReplyTransport struct {
	workers []*ModelWorker
	replies chan Reply
	once    sync.Once
}

func (st *strayReplyTransport) Send(gpu int, req Request) error {
	st.once.Do(func() {
		st.replies <- Reply{ID: -5, GPU: gpu}
		st.replies <- Reply{ID: 1 << 30, GPU: gpu, EndV: 1e9}
	})
	st.replies <- st.workers[gpu].Handle(req)
	return nil
}

func (st *strayReplyTransport) Replies() <-chan Reply { return st.replies }
func (st *strayReplyTransport) Close() error          { return nil }

// TestRunDropsStrayReplies: replies whose ID is not an in-flight node of the
// run — a fence answered after its drain timed out, or an ID decoded from
// the network — are dropped, and the run matches a clean one-shot run.
func TestRunDropsStrayReplies(t *testing.T) {
	plan := reallocHeavyPlan(t, 1)
	oneShot, err := RunOverlapped(plan)
	if err != nil {
		t.Fatal(err)
	}
	static := estimator.StaticPerGPU(plan)
	workers := make([]*ModelWorker, plan.Cluster.NumGPUs())
	for i := range workers {
		workers[i] = NewModelWorker(i, plan.Cluster.GPU.MemoryBytes)
		workers[i].StaticBytes = static[i]
	}
	st := &strayReplyTransport{workers: workers, replies: make(chan Reply, 4096)}
	rep, err := Run(plan, Options{UseCUDAGraph: true, OverlapComm: true, Transport: st, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MakespanV != oneShot.MakespanV || rep.PeakBytes != oneShot.PeakBytes {
		t.Fatalf("run with stray replies (%v, %d) != one-shot (%v, %d)",
			rep.MakespanV, rep.PeakBytes, oneShot.MakespanV, oneShot.PeakBytes)
	}
}
