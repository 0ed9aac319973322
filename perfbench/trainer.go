package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"realhf"
	"realhf/internal/runtime"
	"realhf/internal/search"
)

// trainerRunOptions executes the campaign on a cluster whose fabric is
// slower than the planner's model, so profile feedback has drift to
// calibrate away and calibrated replans happen.
func trainerRunOptions() realhf.RunOptions {
	o := realhf.DefaultRunOptions()
	o.BandwidthScale = 0.6
	return o
}

// tcpFleet serves every worker pool a Trainer asks for over loopback TCP,
// through a counting transport.
type tcpFleet struct {
	mu    sync.Mutex
	stops []func()
	ct    *countingTransport
}

func (f *tcpFleet) factory(numGPUs int, memoryBytes int64) (*runtime.WorkerPool, error) {
	workers := make([]*runtime.ModelWorker, numGPUs)
	for i := range workers {
		workers[i] = runtime.NewModelWorker(i, memoryBytes)
	}
	addr, stop, err := runtime.ServeWorkersTCP(workers)
	if err != nil {
		return nil, err
	}
	tcp, err := runtime.NewTCPTransport(addr, numGPUs)
	if err != nil {
		stop()
		return nil, err
	}
	ct := &countingTransport{inner: tcp}
	f.mu.Lock()
	f.stops = append(f.stops, stop)
	f.ct = ct
	f.mu.Unlock()
	return runtime.NewWorkerPoolWith(workers, ct), nil
}

func (f *tcpFleet) transport() *countingTransport {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ct
}

// stop shuts every worker server down and waits for them. Call it after
// the Trainer using the fleet is closed.
func (f *tcpFleet) stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.stops {
		s()
	}
	f.stops = nil
}

// trainerSession is one open Trainer and what it needs per op.
type trainerSession struct {
	in      trainerInput
	planner *realhf.Planner
	fleet   *tcpFleet // nil: in-process workers
	tr      *realhf.Trainer
	rec     *progressRecorder
	ckpt    string
}

func (s *trainerSession) trainOptions() []realhf.TrainOption {
	opts := []realhf.TrainOption{
		realhf.WithGenLenSchedule(s.in.genLen),
		realhf.WithTrainRunOptions(trainerRunOptions()),
		realhf.WithPlanOptions(realhf.WithProgress(func(pt search.ProgressPoint) { s.rec.record(pt) })),
	}
	if s.fleet != nil {
		opts = append(opts, realhf.WithWorkerPoolFactory(s.fleet.factory))
	}
	return opts
}

// openTrainer plans the session's first iteration and starts its workers.
func openTrainer(in trainerInput, tcp bool, dir string) (*trainerSession, error) {
	s := &trainerSession{in: in, planner: realhf.NewPlanner(realhf.ClusterConfig{}),
		rec: &progressRecorder{}, ckpt: filepath.Join(dir, "campaign.ckpt")}
	if tcp {
		s.fleet = &tcpFleet{}
	}
	tr, err := s.planner.Train(ctxBG, in.Cfg, s.trainOptions()...)
	if err != nil {
		s.close()
		return nil, err
	}
	s.tr = tr
	return s, nil
}

func (s *trainerSession) close() error {
	var err error
	if s.tr != nil {
		err = s.tr.Close()
	}
	if s.fleet != nil {
		s.fleet.stop()
	}
	return err
}

// stepResult is one op: a Step followed by a checkpoint save.
type stepResult struct {
	Rep        *realhf.IterationReport
	Step, Save time.Duration
	Sends      int64
	SendTime   time.Duration
}

// op runs one Step and saves a checkpoint, as realrun -checkpoint does.
func (s *trainerSession) op(ot *opTrace) (stepResult, error) {
	var r stepResult
	*s.rec = progressRecorder{}
	sid := ot.begin("realhf", "realhf.Trainer.Step")
	var ct *countingTransport
	var dispatch int
	if s.fleet != nil {
		ct = s.fleet.transport()
		dispatch = ot.reserve()
		ct.attach(ot, dispatch)
	}
	t0 := time.Now()
	rep, err := s.tr.Step(ctxBG)
	r.Step = time.Since(t0)
	if ct != nil {
		// The dispatch span runs from the step's first send to its last:
		// the master's fence and dispatch loop.
		var first, last time.Time
		r.Sends, r.SendTime, first, last = ct.detach()
		if r.Sends > 0 {
			ot.addAs(dispatch, sid, "runtime", "runtime.dispatch", first, last)
		}
	}
	s.rec.spans(ot, sid)
	ot.end(sid)
	if err != nil {
		return r, fmt.Errorf("step: %w", err)
	}
	r.Rep = rep
	cid := ot.begin("checkpoint", "realhf.Trainer.CheckpointFile")
	t1 := time.Now()
	err = s.tr.CheckpointFile(s.ckpt)
	r.Save = time.Since(t1)
	ot.end(cid)
	if err != nil {
		return r, fmt.Errorf("checkpoint: %w", err)
	}
	return r, nil
}

// checkIteration returns a failure cause for a bad iteration report, or "".
func (s *trainerSession) checkIteration(rep *realhf.IterationReport) string {
	switch {
	case rep.OOM:
		return "iteration ran out of memory"
	case len(rep.Errors) > 0:
		return "worker errors: " + rep.Errors[0]
	case !(rep.MakespanV > 0) || math.IsInf(rep.MakespanV, 0):
		return "non-positive iteration makespan"
	case rep.GenLen != s.in.genLen(rep.Iter):
		return "iteration ran off its generation-length schedule"
	}
	return ""
}

// stepAgg accumulates the Trainer's per-step figures.
type stepAgg struct {
	plainMS, replanMS, saveMS []float64
	replans, switches, cached int
	runtime                   runtimeFigures
}

func (a *stepAgg) add(r stepResult) {
	rep := r.Rep
	if rep.Replanned {
		a.replans++
		a.replanMS = append(a.replanMS, ms(r.Step))
		if rep.PlanCached {
			a.cached++
		}
	} else {
		a.plainMS = append(a.plainMS, ms(r.Step))
	}
	if rep.Switched {
		a.switches++
	}
	a.saveMS = append(a.saveMS, ms(r.Save))
	f := &a.runtime
	f.estErr = append(f.estErr, abs(rep.EstMakespanV-rep.MakespanV)/rep.MakespanV)
	if r.Sends > 0 {
		f.sends = append(f.sends, float64(r.Sends))
		f.sendUS = append(f.sendUS, us(r.SendTime)/float64(r.Sends))
	}
}

func (a *stepAgg) report(m metrics) {
	m.set("realhf.step_plain_ms", median(a.plainMS))
	m.set("realhf.step_replan_ms", median(a.replanMS))
	m.set("realhf.replans", float64(a.replans))
	m.set("realhf.switches", float64(a.switches))
	frac := 0.0
	if a.replans > 0 {
		frac = float64(a.cached) / float64(a.replans)
	}
	m.set("realhf.replan_cached_frac", frac)
	m.set("checkpoint.save_ms", median(a.saveMS))
}

// probeCheckpoint times an in-memory checkpoint encode.
func probeCheckpoint(s *trainerSession, m metrics) error {
	var buf bytes.Buffer
	var err error
	d := medianOf(10, func() {
		buf.Reset()
		err = s.tr.Checkpoint(&buf)
	})
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	m.set("checkpoint.encode_us", us(d))
	m.set("checkpoint.bytes", float64(buf.Len()))
	return nil
}

// trainerProbe runs a short campaign of the benchmark's trainer session
// over loopback TCP workers, for workloads that do not train: two passes
// of the generation-length schedule, with a checkpoint after every step.
func trainerProbe(seed int64, dir string, m metrics) error {
	in := trainerStream(seed)
	s, err := openTrainer(in, true, dir)
	if err != nil {
		return fmt.Errorf("trainer probe: %w", err)
	}
	var agg stepAgg
	for i := 0; i < 2*len(in.Schedule)*in.Period; i++ {
		r, err := s.op(nil)
		if err != nil {
			s.close()
			return fmt.Errorf("trainer probe: %w", err)
		}
		if cause := s.checkIteration(r.Rep); cause != "" {
			s.close()
			return fmt.Errorf("trainer probe: %s", cause)
		}
		agg.add(r)
	}
	agg.report(m)
	if err := probeCheckpoint(s, m); err != nil {
		s.close()
		return err
	}
	if err := s.close(); err != nil {
		return err
	}
	return os.Remove(s.ckpt)
}
