package runtime

import (
	"fmt"
	"sync"
	"time"

	"realhf/internal/core"
)

// WorkerPool owns a set of model workers and the transport that drives them,
// both persisting across runs — the execution-side state a long-lived
// training session reuses every iteration, where the one-shot Run path
// rebuilds workers and transport per call. Between iterations the pool is
// Reset: every stream is fenced and drained to quiescence, stream clocks and
// memory ledgers return to zero, and each device's static footprint is
// replaced (the next iteration may execute a different plan). A pool's
// device count is fixed: a session that changes cluster size closes the
// pool and builds a new one.
//
// A pool serializes its own operations; run one iteration at a time.
type WorkerPool struct {
	mu           sync.Mutex
	workers      []*ModelWorker
	transport    Transport
	fenceTimeout time.Duration
	fenceSeq     int // fences sent so far; the next fence's ID is -(fenceSeq+1)
	closed       bool
}

// NewWorkerPool starts a pool of numGPUs workers with the given device
// memory over the in-process channel transport.
func NewWorkerPool(numGPUs int, memoryBytes int64) *WorkerPool {
	workers := make([]*ModelWorker, numGPUs)
	for i := range workers {
		workers[i] = NewModelWorker(i, memoryBytes)
	}
	return NewWorkerPoolWith(workers, NewChanTransport(workers))
}

// NewWorkerPoolWith adopts caller-owned workers and transport (e.g. a TCP
// fleet served by ServeWorkersTCP). The caller keeps teardown responsibility
// for the transport's far side; Close still closes the transport itself.
func NewWorkerPoolWith(workers []*ModelWorker, tr Transport) *WorkerPool {
	return &WorkerPool{workers: workers, transport: tr}
}

// Size is the pool's device count.
func (wp *WorkerPool) Size() int {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	return len(wp.workers)
}

// Workers exposes the live fleet (for memory reporting and tests).
func (wp *WorkerPool) Workers() []*ModelWorker {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	return wp.workers
}

// SetFenceTimeout bounds how long Reset waits for the fleet to quiesce:
// when the fences are not all answered within d, Reset gives up and
// reports the smallest unaccounted-for device as a typed *ErrWorkerLost
// instead of hanging on a dead or wedged worker. Zero (the default)
// restores the unbounded wait.
func (wp *WorkerPool) SetFenceTimeout(d time.Duration) {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	wp.fenceTimeout = d
}

// Reset quiesces and reinitializes the fleet for the next iteration:
//
//  1. a fence is sent down every (worker, stream) queue and its reply
//     awaited — per-stream FIFO order plus the reply channel's own FIFO
//     guarantee that once all fences are back, every straggler reply from a
//     previous (possibly cancelled) run has been received and discarded;
//  2. each worker's stream clocks and peak-memory ledger are zeroed and its
//     resting memory replaced by static[i].
//
// static must have one entry per worker (estimator.StaticPerGPU of the next
// plan).
func (wp *WorkerPool) Reset(static []int64) error {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if wp.closed {
		return fmt.Errorf("runtime: worker pool closed")
	}
	if len(static) != len(wp.workers) {
		return fmt.Errorf("runtime: Reset with %d static entries for %d workers", len(static), len(wp.workers))
	}
	if err := wp.drainLocked(); err != nil {
		return err
	}
	for i, w := range wp.workers {
		w.Reset(static[i])
	}
	return nil
}

// drainLocked runs the fence protocol over the pool's transport. Every
// fence carries a fresh negative request ID — never a master node ID (>= 0)
// and never an earlier drain's fence — so a drain that follows a timed-out
// one waits for its own fences and discards the late ones as stragglers. A
// dead worker surfaces here in one of two ways, both as a typed
// *ErrWorkerLost in the returned chain: the fence send itself fails (a
// killed transport lane), or the fences stop coming back and the fence
// timeout expires (a wedged or silently dropped stream).
func (wp *WorkerPool) drainLocked() error {
	want := make(map[int]int, len(wp.workers)*NumStreams) // fence ID -> gpu
	for gpu := range wp.workers {
		for s := Stream(0); s < NumStreams; s++ {
			wp.fenceSeq++
			id := -wp.fenceSeq
			want[id] = gpu
			if err := wp.transport.Send(gpu, Request{ID: id, Kind: ReqFence, Stream: s}); err != nil {
				return fmt.Errorf("runtime: fence gpu %d: %w", gpu, err)
			}
		}
	}
	var timeout <-chan time.Time
	if wp.fenceTimeout > 0 {
		timer := time.NewTimer(wp.fenceTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	for len(want) > 0 {
		select {
		case rep, ok := <-wp.transport.Replies():
			if !ok {
				return fmt.Errorf("runtime: transport closed with %d fences outstanding", len(want))
			}
			delete(want, rep.ID) // other IDs are stragglers; discard
		case <-timeout:
			// Deterministic blame: the smallest device with an outstanding
			// fence (min over a map is iteration-order independent).
			lost := -1
			for _, gpu := range want {
				if lost < 0 || gpu < lost {
					lost = gpu
				}
			}
			return fmt.Errorf("runtime: fence timeout after %v with %d fences outstanding: %w",
				wp.fenceTimeout, len(want), &ErrWorkerLost{GPU: lost})
		}
	}
	return nil
}

// Run executes one plan over the pool's persistent workers and transport.
// The caller is responsible for Reset between iterations (and for setting
// the static footprints the plan implies); Run itself never rebuilds or
// reclocks the fleet, which is the point of the pool.
func (wp *WorkerPool) Run(p *core.Plan, opts Options) (*Report, error) {
	wp.mu.Lock()
	if wp.closed {
		wp.mu.Unlock()
		return nil, fmt.Errorf("runtime: worker pool closed")
	}
	opts.Transport = wp.transport
	opts.Workers = wp.workers
	wp.mu.Unlock()
	return Run(p, opts)
}

// Close tears the pool down. Idempotent.
func (wp *WorkerPool) Close() error {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if wp.closed {
		return nil
	}
	wp.closed = true
	return wp.transport.Close()
}
