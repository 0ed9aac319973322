package realhf

import (
	"context"
	"fmt"
	"io"

	"realhf/internal/checkpoint"
	"realhf/internal/core"
	"realhf/internal/estimator"
	"realhf/internal/runtime"
)

// Checkpoint writes the session's durable state to w in the
// internal/checkpoint wire format: the incumbent plan (SavePlan codec), its
// fingerprint, the profile-feedback calibration, and every campaign counter
// — exactly what Planner.ResumeTrain needs beyond the caller-re-supplied
// config and options to continue the campaign as if the process had never
// died. Checkpoints are deterministic: equal sessions write identical
// bytes. Call it between iterations (a WithIterationProgress callback is
// the natural place); the session lock serializes it against Steps from
// other goroutines.
func (t *Trainer) Checkpoint(w io.Writer) error {
	t.mu.Lock()
	state, err := t.checkpointLocked()
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return checkpoint.Write(w, state)
}

// CheckpointFile durably checkpoints the session to path via
// internal/checkpoint's atomic temp-file-and-rename Save: a crash
// mid-checkpoint leaves the previous checkpoint intact, never a torn file.
func (t *Trainer) CheckpointFile(path string) error {
	t.mu.Lock()
	state, err := t.checkpointLocked()
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return checkpoint.Save(path, state)
}

func (t *Trainer) checkpointLocked() (*checkpoint.State, error) {
	if t.closed {
		return nil, fmt.Errorf("realhf: %w", ErrTrainerClosed)
	}
	planBytes, err := t.plan.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("realhf: checkpoint: marshal plan: %w", err)
	}
	return &checkpoint.State{
		Version:            checkpoint.Version,
		Iteration:          t.iter,
		Replans:            t.replans,
		Switches:           t.switches,
		WorkerFailures:     t.workerFailures,
		SwitchCostV:        t.switchCostV,
		TotalMakespanV:     t.totalV,
		PendingSwitchCostV: t.pendingSwitchCost,
		Drifted:            t.drifted,
		Nodes:              t.base.Nodes,
		PlannedGenLen:      t.plannedCfg.GenLen,
		Plan:               planBytes,
		PlanFingerprint:    t.plan.Fingerprint(),
		Calibration:        t.calib.Factors(),
	}, nil
}

// ResumeTrain reopens a training session from a checkpoint written by
// Trainer.Checkpoint: the caller re-supplies the campaign's config and
// options (neither is serialized — code, schedules and factories cannot
// ride a checkpoint), the checkpoint supplies everything else. The restored
// session is exact: its next Step replans, charges and executes precisely
// as the uninterrupted session's would have — same plan fingerprint, same
// iteration counter, same accounting.
//
// The checkpoint's Nodes count overrides cfg's (shrinks and resizes applied
// before the crash carry over), and its plan must validate against the
// config's cluster shape, model cast and stored fingerprint — any
// disagreement wraps ErrInvalidConfig, because a checkpoint resumed under
// the wrong config can never succeed.
func (p *Planner) ResumeTrain(ctx context.Context, r io.Reader, cfg ExperimentConfig, opts ...TrainOption) (*Trainer, error) {
	state, err := checkpoint.Read(r)
	if err != nil {
		return nil, fmt.Errorf("realhf: resume: %w: %w", err, ErrInvalidConfig)
	}
	return p.resumeTrain(ctx, state, cfg, opts...)
}

// ResumeTrainFile resumes from a checkpoint saved by Trainer.CheckpointFile.
func (p *Planner) ResumeTrainFile(ctx context.Context, path string, cfg ExperimentConfig, opts ...TrainOption) (*Trainer, error) {
	state, err := checkpoint.Load(path)
	if err != nil {
		return nil, fmt.Errorf("realhf: resume %s: %w: %w", path, err, ErrInvalidConfig)
	}
	return p.resumeTrain(ctx, state, cfg, opts...)
}

func (p *Planner) resumeTrain(ctx context.Context, state *checkpoint.State, cfg ExperimentConfig, opts ...TrainOption) (*Trainer, error) {
	// Option and config handling mirrors Train exactly — a resumed session
	// must sit in the same option state the uninterrupted one would.
	o := trainOptions{threshold: defaultReplanThreshold}
	for _, fn := range opts {
		fn(&o)
	}
	if o.threshold <= 0 {
		return nil, fmt.Errorf("realhf: replan threshold %v must be positive: %w", o.threshold, ErrInvalidConfig)
	}
	run := DefaultRunOptions()
	if o.hasRunOpts {
		run = *o.runOpts
	}
	if err := run.Validate(); err != nil {
		return nil, err
	}
	if o.poolFactory == nil {
		o.poolFactory = func(numGPUs int, memoryBytes int64) (*runtime.WorkerPool, error) {
			return runtime.NewWorkerPool(numGPUs, memoryBytes), nil
		}
	}
	wt := run.WorkerTimeout
	if wt == 0 {
		wt = defaultWorkerTimeout
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("realhf: resume cancelled: %w: %w", err, ErrSolveCanceled)
	}
	if state.Nodes <= 0 {
		return nil, fmt.Errorf("realhf: resume: checkpoint records %d nodes: %w", state.Nodes, ErrInvalidConfig)
	}
	if state.PlannedGenLen <= 0 {
		return nil, fmt.Errorf("realhf: resume: checkpoint records planned GenLen %d: %w", state.PlannedGenLen, ErrInvalidConfig)
	}
	// The checkpointed scale wins over the config's: shrinks and resizes
	// applied before the crash are campaign state, not configuration.
	cfg.Nodes = state.Nodes
	cfg = p.merge(cfg).withDefaults()
	cfg.Nodes = state.Nodes
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if run.OverlapComm {
		cfg.PlanForOverlap = true
	}
	if o.genLen != nil {
		g0 := o.genLen(0)
		if g0 <= 0 {
			return nil, fmt.Errorf("realhf: GenLen schedule returned %d for iteration 0: %w", g0, ErrInvalidConfig)
		}
		cfg.GenLen = g0
	}
	for name, f := range state.Calibration {
		if f <= 0 || f != f {
			return nil, fmt.Errorf("realhf: resume: calibration factor %q = %v: %w", name, f, ErrInvalidConfig)
		}
	}
	calib := estimator.NewCalibration(state.Calibration)

	// Rebuild the incumbent plan exactly as LoadExperiment rebuilds a saved
	// one, but against the checkpointed planned workload and under the
	// checkpointed calibration, so the session's problem caches pick up
	// where they left off.
	plannedCfg := cfg
	plannedCfg.GenLen = state.PlannedGenLen
	ps, hw, g, models, err := p.problemFor(plannedCfg, calib)
	if err != nil {
		return nil, err
	}
	loaded, err := core.UnmarshalPlan(state.Plan, g)
	if err != nil {
		return nil, fmt.Errorf("realhf: resume: checkpointed plan: %w: %w", err, ErrInvalidConfig)
	}
	if loaded.Cluster.Nodes != hw.Nodes || loaded.Cluster.GPUsPerNode != hw.GPUsPerNode {
		return nil, fmt.Errorf("realhf: resume: checkpointed plan spans a %d-node×%d-GPU cluster, config describes %d×%d: %w",
			loaded.Cluster.Nodes, loaded.Cluster.GPUsPerNode, hw.Nodes, hw.GPUsPerNode, ErrInvalidConfig)
	}
	for role, ms := range models {
		lm, ok := loaded.Models[role]
		if !ok || lm.Cfg.Name != ms.Cfg.Name {
			return nil, fmt.Errorf("realhf: resume: checkpointed plan disagrees with the config about model %q: %w", role, ErrInvalidConfig)
		}
	}
	plan := core.NewPlan(hw, g, models)
	for name, a := range loaded.Assign {
		plan.Assign[name] = a
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("realhf: resume: checkpointed plan: %w: %w", err, ErrInvalidConfig)
	}
	// Fingerprint integrity: the stored bytes must decode to the very plan
	// that was checkpointed — a mismatch means the file was corrupted or
	// hand-edited, and silently resuming a different plan would poison
	// every downstream comparison.
	if fp := plan.Fingerprint(); fp != state.PlanFingerprint {
		return nil, fmt.Errorf("realhf: resume: plan fingerprint %s does not match checkpointed %s: %w",
			fp, state.PlanFingerprint, ErrInvalidConfig)
	}
	if _, err := ps.cache.Evaluate(plan); err != nil {
		return nil, err
	}

	execHW := run.scaleCluster(hw)
	pool, err := o.poolFactory(execHW.NumGPUs(), execHW.GPU.MemoryBytes)
	if err != nil {
		return nil, fmt.Errorf("realhf: worker pool for %d GPUs: %w", execHW.NumGPUs(), err)
	}
	pool.SetFenceTimeout(wt)
	return &Trainer{
		planner:           p,
		base:              cfg,
		opts:              o,
		run:               run,
		pool:              pool,
		hw:                execHW,
		plan:              plan,
		plannedCfg:        plannedCfg,
		calib:             calib,
		drifted:           state.Drifted,
		workerTimeout:     wt,
		iter:              state.Iteration,
		replans:           state.Replans,
		switches:          state.Switches,
		workerFailures:    state.WorkerFailures,
		switchCostV:       state.SwitchCostV,
		totalV:            state.TotalMakespanV,
		pendingSwitchCost: state.PendingSwitchCostV,
	}, nil
}
