package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunPipeline is the engine's streaming orchestrator: workers pull trial
// batches from src and deliver per-trial results to sink until the
// source is exhausted. Run, RunContext and RunStream are all thin
// wrappers over it — one scheduler serves loaded tables and serialised
// streams alike, and workers stay busy across stream-batch boundaries
// instead of joining per batch.
//
// The orchestrator takes ownership of src and closes it on return. The
// returned PhaseBreakdown is non-zero only for profiled runs.
func (e *Engine) RunPipeline(src TrialSource, sink Sink, opt Options) (PhaseBreakdown, error) {
	return e.RunPipelineContext(context.Background(), src, sink, opt)
}

// RunPipelineContext is RunPipeline with cooperative cancellation:
// workers poll ctx between trial spans, and a cancellable context
// forces dynamic span scheduling so cancellation stays prompt. A plain
// run is the sweep of the engine's one identity variant, whose
// flattened layer indices are the layer indices.
func (e *Engine) RunPipelineContext(ctx context.Context, src TrialSource, sink Sink, opt Options) (PhaseBreakdown, error) {
	return e.plain.RunPipelineContext(ctx, src, sink, opt)
}

// RunPipelineContext is the one orchestrator behind every entry point:
// it evaluates all of the sweep's variants in one streaming pass,
// delivering to sink over the flattened (variant, layer) grid. It takes
// ownership of src and closes it on return.
func (s *SweepEngine) RunPipelineContext(ctx context.Context, src TrialSource, sink Sink, opt Options) (PhaseBreakdown, error) {
	e := s.e
	var zero PhaseBreakdown
	if src == nil {
		return zero, ErrNilSource
	}
	defer src.Close()
	if sink == nil {
		return zero, ErrNilSink
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	if opt.Uncertainty.Mode == UncertaintySampled && e.kind == LookupCombined {
		return zero, ErrSampledCombined
	}

	nt := src.NumTrials()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nt {
		workers = max(1, nt)
	}
	if p, ok := src.(spanPlanner); ok {
		p.planSpans(workers, opt.Dynamic || ctx.Done() != nil)
	}
	if err := sink.Begin(s.flatLayerIDs(), nt); err != nil {
		return zero, err
	}

	// done counts finished trials across all workers for the Progress
	// hook; spans report their size as they complete.
	var done atomic.Int64
	report := func(n int) {
		if opt.Progress != nil {
			opt.Progress(int(done.Add(int64(n))), nt)
		}
	}

	if workers == 1 {
		// Sequential runs stay on the calling goroutine (streaming
		// decode still overlaps compute via the source's prefetcher).
		w := getWorker(s, opt, src.MeanTrialLen())
		defer w.release()
		for {
			if err := ctx.Err(); err != nil {
				return zero, err
			}
			b, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return zero, err
			}
			if !opt.SkipValidation {
				if err := e.validateBatch(b); err != nil {
					return zero, err
				}
			}
			w.runSweepSpan(b, sink)
			report(b.Hi - b.Lo)
		}
		return s.finishPipeline(sink, w.phases), nil
	}

	var (
		wg       sync.WaitGroup
		phases   = make([]PhaseBreakdown, workers)
		aborted  atomic.Bool
		failOnce sync.Once
		failErr  error
	)
	fail := func(err error) {
		failOnce.Do(func() { failErr = err })
		aborted.Store(true)
		src.Close() // wake workers blocked on a prefetching source
	}
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := getWorker(s, opt, src.MeanTrialLen())
			defer w.release()
			for !aborted.Load() {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				b, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					fail(err)
					return
				}
				if !opt.SkipValidation {
					if err := e.validateBatch(b); err != nil {
						fail(err)
						return
					}
				}
				w.runSweepSpan(b, sink)
				report(b.Hi - b.Lo)
			}
			phases[wi] = w.phases
		}(wi)
	}
	wg.Wait()
	if failErr != nil {
		return zero, failErr
	}
	var total PhaseBreakdown
	for _, p := range phases {
		total.add(p)
	}
	return s.finishPipeline(sink, total), nil
}

// finishPipeline stamps the engine-owned Result fields when the run
// materialised into a FullYLT sink, so Result is complete no matter
// which entry point drove the pipeline.
func (s *SweepEngine) finishPipeline(sink Sink, phases PhaseBreakdown) PhaseBreakdown {
	if full, ok := sink.(*FullYLT); ok && full.res != nil {
		full.res.Phases = phases
		full.res.LookupMemory = s.LookupMemory()
	}
	return phases
}

// runMaterialised is the shared epilogue of the materialising entry
// points (Run, RunContext, RunStream): pipeline into a FullYLT sink
// and return its (fully stamped) Result.
func (e *Engine) runMaterialised(ctx context.Context, src TrialSource, opt Options) (*Result, error) {
	sink := NewFullYLT()
	if _, err := e.RunPipelineContext(ctx, src, sink, opt); err != nil {
		return nil, err
	}
	return sink.Result(), nil
}

// layerIDs returns the compiled layer IDs in layer index order.
func (e *Engine) layerIDs() []uint32 {
	ids := make([]uint32, len(e.layers))
	for i := range e.layers {
		ids[i] = e.layers[i].id
	}
	return ids
}

// validateBatch rejects out-of-catalog event IDs in one batch, so the
// direct-table kernels can index without bounds anxiety. Streamed
// sources are validated span by span as data arrives.
func (e *Engine) validateBatch(b Batch) error {
	for t := b.Lo; t < b.Hi; t++ {
		for _, ev := range b.Table.TrialEvents(t) {
			if int(ev) >= e.catalogSize {
				return fmt.Errorf("%w: event %d, catalog %d", ErrEventOutside, ev, e.catalogSize)
			}
		}
	}
	return nil
}
