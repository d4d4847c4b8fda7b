package server

// The one local execution path: prepare → variants → YLT → one pass →
// render. Every local job runs as a member of a batch, and every member
// is a window of one compiled variant list: a plain job contributes the
// one empty variant (which the sweep engine compiles to the exact base
// program), a sweep job its requested variants, and the batch is priced
// in a single SweepEngine gather pass demuxed through per-variant YLT
// sinks back to the owning jobs. The planner (planner.go) guarantees
// every member shares base artifacts. A solo job is the batch of one, a
// plain job the window of one (K=1); RunLocal is the batch of one with
// the YLT kept. Each member keeps its own journal records, progress,
// SSE stream, quota slot and result — and the result is bitwise
// identical whatever the batch or worker count, because every number is
// rendered from a YLT column indexed by trial, not by arrival.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/core"
	"github.com/ralab/are/internal/spec"
)

// runBatch executes one admission batch. Members cancelled while
// queued drop out first; the rest run under one execution slot —
// fanned out across the cluster one by one in the coordinator role
// (whose batches are always of one), through the local path otherwise.
func (s *scheduler) runBatch(batch []*Job) {
	s.metrics.batchSizes.observe(len(batch))
	live := make([]*Job, 0, len(batch))
	for _, j := range batch {
		if s.start(j) {
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		return
	}

	// One execution slot serves the whole batch, shared with the shard
	// endpoint: a node never runs more than JobWorkers engine
	// executions at once however the traffic is mixed — and a fused
	// batch pricing N jobs in that one slot is the throughput win.
	ctx, cancel := batchContext(live)
	defer cancel()
	select {
	case s.execSem <- struct{}{}:
		defer func() { <-s.execSem }()
	case <-ctx.Done():
	}

	if s.coord != nil {
		for _, j := range live {
			res, err := s.executeDistributed(j)
			s.finish(j, res, err)
		}
		return
	}
	s.runLocal(ctx, live)
}

// batchContext returns a context cancelled only once EVERY member's
// context is cancelled: one member's cancellation must not abort its
// batchmates' shared pass. Member contexts descend from baseCtx, so a
// forced shutdown still cancels the batch promptly.
func batchContext(live []*Job) (context.Context, context.CancelFunc) {
	if len(live) == 1 {
		return live[0].ctx, func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var left atomic.Int32
	left.Store(int32(len(live)))
	for _, j := range live {
		go func() {
			select {
			case <-j.ctx.Done():
				if left.Add(-1) == 0 {
					cancel()
				}
			case <-ctx.Done():
			}
		}()
	}
	return ctx, cancel
}

// runLocal runs the started members of one batch through the local
// path and finishes every one of them. Each member is prepared exactly
// once — paying its own tenant cache accounting (hit/miss/bytes), the
// first miss building and the rest hitting — and a member whose prepare
// fails (cancelled, artifact error) finishes with that error. When a
// joint compile or pass fails, the survivors re-run as batches of one
// over the artifacts already prepared, so every job reproduces the
// error or cancellation it would have met alone.
func (s *scheduler) runLocal(ctx context.Context, live []*Job) {
	jobs := make([]*Job, 0, len(live))
	ms := make([]*member, 0, len(live))
	for _, j := range live {
		a, err := s.prepare(j)
		if err != nil {
			s.finish(j, nil, err)
			continue
		}
		jobs = append(jobs, j)
		ms = append(ms, newMember(j.ID, j.Spec, a))
	}
	if len(ms) == 0 {
		return
	}

	fused := len(ms) > 1
	if fused {
		for _, j := range jobs {
			j.setFused(len(ms))
		}
	}
	elapsed, err := runPass(ctx, ms, false)
	if err != nil && fused {
		for i, j := range jobs {
			j.clearFused()
			soloElapsed, soloErr := runPass(j.ctx, ms[i:i+1], false)
			s.finishMember(j, ms[i], soloElapsed, soloErr)
		}
		return
	}
	if fused {
		s.metrics.fusedBatches.Add(1)
		s.metrics.fusedJobs.Add(int64(len(ms)))
	}
	for i, j := range jobs {
		if fused && j.Tenant != "" {
			s.metrics.tenantCounters(j.Tenant).fused.Add(1)
		}
		s.finishMember(j, ms[i], elapsed, err)
	}
}

// finishMember renders and finishes one member after its pass. A
// member cancelled mid-pass reaches the terminal state of a run whose
// pipeline unwound; like any failed run's, its YLT slabs are abandoned
// to the GC rather than repooled — a straggling pipeline worker may
// still hold references.
func (s *scheduler) finishMember(j *Job, m *member, elapsed time.Duration, err error) {
	if err == nil {
		err = j.ctx.Err()
	}
	var res *JobResult
	if err == nil {
		res, err = m.render(elapsed)
	}
	s.finish(j, res, err)
}

// member is one job's seat in a local pass: its prepared artifacts, its
// window of the pass's variant list and, once runPass built them, one
// YLT sink per variant.
type member struct {
	id string
	js *spec.Job
	a  *jobArtifacts

	// variants is what the job contributes to the compiled variant
	// list: the one empty delta for a plain job, the requested variants
	// for a sweep.
	variants []core.Variant

	fulls []*core.FullYLT
}

func newMember(id string, js *spec.Job, a *jobArtifacts) *member {
	m := &member{id: id, js: js, a: a, variants: []core.Variant{{}}}
	if js.Sweep != nil {
		m.variants = artifact.SweepVariants(js.Sweep)
	}
	return m
}

// runPass prices the members in one gather pass over their shared
// artifacts: the concatenated variant windows compile against the
// cached engine, each variant fills its own YLT — from the slab pool,
// or unpooled when keepYLT says the caller reads it after render — and
// progress fans out to every member: each job's trial counter, SSE
// stream and status advance as if it ran the pass alone (it shares the
// trial range, so the counts are identical). The pass runs at the first
// member's worker count; the rendered numbers do not depend on it.
func runPass(ctx context.Context, ms []*member, keepYLT bool) (time.Duration, error) {
	a := ms[0].a
	var variants []core.Variant
	for _, m := range ms {
		variants = append(variants, m.variants...)
	}
	sweep, err := a.art.Eng.CompileSweep(a.art.P.P, variants)
	if err != nil {
		return 0, err
	}

	groups := make([][]core.Sink, len(ms))
	for i, m := range ms {
		n := len(m.variants)
		m.fulls = make([]*core.FullYLT, n)
		groups[i] = make([]core.Sink, n)
		for k := range n {
			full := core.NewPooledYLT()
			if keepYLT {
				full = core.NewFullYLT()
			}
			m.fulls[k], groups[i][k] = full, full
		}
	}
	demux, _ := core.NewVariantSinksGrouped(groups...)

	opt := a.opt
	opt.Progress = func(done, total int) {
		for _, m := range ms {
			if hook := m.a.opt.Progress; hook != nil {
				hook(done, total)
			}
		}
	}
	start := time.Now()
	_, err = sweep.RunPipelineContext(ctx, core.NewTableSource(a.table), demux, opt)
	return time.Since(start), err
}

// render emits the member's wire result from its YLTs and returns
// pooled slabs to their pool: Layers carries variant 0 always — for a
// sweep, the view closest to the plain job, so clients that do not know
// about sweeps still read a coherent result — and Variants only for
// sweep specs. Each variant renders under its own effective layer terms
// (quotes price against the variant's occurrence limit).
func (m *member) render(elapsed time.Duration) (*JobResult, error) {
	js := m.js
	res := &JobResult{
		ID:           m.id,
		Trials:       js.YET.Trials,
		ElapsedMS:    elapsed.Milliseconds(),
		YETCached:    m.a.yetHit,
		EngineCached: m.a.engineHit,
	}
	for k, v := range m.variants {
		full := m.fulls[k]
		layers, err := layerResults(js, m.a.art.P.P, v, full.Result())
		if err != nil {
			if js.Sweep != nil {
				err = fmt.Errorf("variant %d (%s): %w", k, v.Name, err)
			}
			return nil, err
		}
		full.Release()
		if k == 0 {
			res.Layers = layers
		}
		if js.Sweep != nil {
			res.Variants = append(res.Variants, VariantResult{Index: k, Name: v.Name, Layers: layers})
		}
	}
	return res, nil
}

// setFused publishes that the job is running in (and, at terminal,
// ran in) a fused pass of n jobs. Status-only — see Job.fused.
func (j *Job) setFused(n int) {
	j.mu.Lock()
	j.fused = true
	j.fusedBatch = n
	j.notifyLocked()
	j.mu.Unlock()
}

// clearFused retracts setFused when the fused pass fell back to solo.
func (j *Job) clearFused() {
	j.mu.Lock()
	j.fused = false
	j.fusedBatch = 0
	j.mu.Unlock()
}
