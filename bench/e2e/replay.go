package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/core"
	"github.com/ralab/are/internal/dist"
	"github.com/ralab/are/internal/metrics"
	"github.com/ralab/are/internal/pricing"
	"github.com/ralab/are/internal/server"
	"github.com/ralab/are/internal/spec"
	"github.com/ralab/are/internal/store"
	"github.com/ralab/are/internal/yet"
)

// Stage replay. After the measured loops (never beside them) the benchmark
// calls each layer's exported functions itself, on the workload's own job,
// and records a span around every call. A stage is repeated until it has
// run maxReps times or used stageBudget, whichever comes first, and at
// least once; the per-layer metrics are medians over those spans.
const (
	maxReps     = 20
	stageBudget = 300 * time.Millisecond
)

func repeat(f func() error) error {
	start := time.Now()
	for reps := 0; reps < maxReps; reps++ {
		if err := f(); err != nil {
			return err
		}
		if time.Since(start) >= stageBudget {
			break
		}
	}
	return nil
}

// noopSink discards results: a pipeline run over it is the gather, the
// financial terms and the layer terms, with nothing kept.
type noopSink struct{}

func (noopSink) Begin([]uint32, int) error                { return nil }
func (noopSink) Emit(int, int, float64, float64)          {}
func (noopSink) EmitBatch(int, int, []float64, []float64) {}

// timedSink wraps a sink and sums the time spent inside EmitBatch across
// workers. The pipeline delivers one call per (layer, span), a handful per
// run, so the two clock reads per call cost nothing measurable.
type timedSink struct {
	core.Sink
	busy  atomic.Int64 // nanoseconds
	calls atomic.Int64
}

func (s *timedSink) EmitBatch(layer, trialLo int, agg, occ []float64) {
	start := time.Now()
	s.Sink.EmitBatch(layer, trialLo, agg, occ)
	s.busy.Add(time.Since(start).Nanoseconds())
	s.calls.Add(1)
}

// shardPlan mirrors the coordinator's split: shards of about shardTrials,
// never fewer than the live workers.
func shardPlan(trials, shardTrials, workers int) [][2]int {
	span := min(shardTrials, (trials+workers-1)/workers)
	var plan [][2]int
	for lo := 0; lo < trials; lo += span {
		plan = append(plan, [2]int{lo, min(lo+span, trials)})
	}
	return plan
}

// sweepVariants is the variant set the workload's jobs compile: the job's
// own sweep, a fused burst's identity variants, or the single identity
// variant a plain job is.
func sweepVariants(w *workload, js *spec.Job) []core.Variant {
	if js.Sweep != nil {
		return artifact.SweepVariants(js.Sweep)
	}
	k := 1
	if w.loop == loopBurst {
		k = burstSize
	}
	vs := make([]core.Variant, k)
	for i := range vs {
		vs[i].Name = fmt.Sprintf("identity-%d", i)
	}
	return vs
}

// replayCounts are the exact counts and sizes the replay observed.
type replayCounts struct {
	lookups       int64
	sinkCalls     int64
	journalBytes  float64 // per job
	yetBytes      int64
	wireBytes     int64 // one shard's ARSB frame
	shards        int
	tableBytes    int // direct tables walked by elt.gather
	gatherNS      float64
	streamGBps    float64
	randomMLoads  float64
	engineWorkers int
}

// replay runs the stages for one job. body is the job's request body and
// resultBody a served result of it (what the journal's Done record would
// carry). Spans hang under one "replay" root.
func replay(tr *tracer, w *workload, js *spec.Job, body, resultBody []byte, sz sizes, tmp string) (*replayCounts, error) {
	dir, err := os.MkdirTemp(tmp, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	rc := &replayCounts{lookups: lookups(js)}
	root := tr.begin("replay", 0, "")
	defer tr.end(root)
	stage := func(name string, f func() error) error {
		var err error
		tr.time(name, root, "", func() { err = f() })
		if err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		return nil
	}
	repeated := func(name string, f func() error) error {
		return repeat(func() error { return stage(name, f) })
	}

	// spec, tenant, store: what a submission costs before it is queued,
	// and what its terminal record costs (Done carries the fsync).
	if err := repeated("spec.parse", func() error {
		_, err := spec.ParseJob(bytes.NewReader(body))
		return err
	}); err != nil {
		return nil, err
	}
	reg, err := newTenants()
	if err != nil {
		return nil, err
	}
	if err := repeated("tenant.admit", func() error {
		tn, ok := reg.Authenticate(apiKey)
		if !ok {
			return fmt.Errorf("key not recognised")
		}
		if ok, _ := tn.Admit(); !ok {
			return fmt.Errorf("admission refused")
		}
		tn.Release()
		return nil
	}); err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(dir, "data"), store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	journaled := 0
	if err := repeat(func() error {
		id := fmt.Sprintf("j-%06d", journaled+1)
		journaled++
		if err := stage("store.submitted", func() error { return st.Submitted(id, tenantName, body, time.Now()) }); err != nil {
			return err
		}
		if err := stage("store.started", func() error { return st.Started(id, time.Now()) }); err != nil {
			return err
		}
		return stage("store.done", func() error { return st.Done(id, time.Now(), resultBody) })
	}); err != nil {
		return nil, err
	}
	rc.journalBytes = float64(st.Metrics().JournalBytes) / float64(journaled)

	// artifact: a cold build on an empty cache with a spill dir, then hits.
	var cache *artifact.Cache
	var eng *artifact.Engine
	var table *yet.Table
	cold := 0
	if err := repeat(func() error {
		cold++
		cache = artifact.NewCache(0)
		if err := cache.SetSpillDir(filepath.Join(dir, fmt.Sprintf("spill-%d", cold))); err != nil {
			return err
		}
		if err := stage("artifact.engine", func() (err error) { eng, _, err = artifact.EngineFor(cache, js); return }); err != nil {
			return err
		}
		return stage("artifact.table", func() (err error) { table, _, err = artifact.TableFor(cache, js); return })
	}); err != nil {
		return nil, err
	}
	if err := repeated("artifact.hit", func() error {
		if _, hit, err := artifact.EngineFor(cache, js); err != nil || !hit {
			return fmt.Errorf("engine hit=%v err=%v", hit, err)
		}
		_, hit, err := artifact.TableFor(cache, js)
		if err != nil || !hit {
			return fmt.Errorf("table hit=%v err=%v", hit, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// yet: the three calls a cold table costs, on their own.
	yetPath := filepath.Join(dir, "replay.yet")
	if err := repeat(func() error {
		var y *yet.Table
		if err := stage("yet.generate", func() (err error) {
			y, err = yet.Generate(yet.UniformSource(js.Portfolio.CatalogSize), js.YET.ToConfig())
			return
		}); err != nil {
			return err
		}
		if err := stage("yet.write", func() error { return yet.WriteFile(yetPath, y) }); err != nil {
			return err
		}
		var m *yet.Table
		if err := stage("yet.map", func() (err error) { m, err = yet.Map(yetPath); return }); err != nil {
			return err
		}
		return m.Close()
	}); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(yetPath); err == nil {
		rc.yetBytes = fi.Size()
	}

	// core: the job's pipeline over sinks that keep nothing, in mean and in
	// sampled mode (the same thing when no ELT carries sigmas).
	rc.engineWorkers = js.Workers
	if rc.engineWorkers <= 0 {
		rc.engineWorkers = max(1, w.engineWorkers)
	}
	opt := core.Options{Workers: rc.engineWorkers, Lookup: artifact.LookupKind(js.Lookup)}
	sampled := opt
	sampled.Uncertainty = core.Uncertainty{Mode: core.UncertaintySampled, Seed: 1}
	if js.Sampled() {
		sampled.Uncertainty.Seed = js.Uncertainty.Seed
	}
	for _, pass := range []struct {
		name string
		opt  core.Options
	}{{"core.pipeline.mean", opt}, {"core.pipeline.sampled", sampled}} {
		if err := repeated(pass.name, func() error {
			_, err := eng.Eng.RunPipelineContext(ctx, core.NewTableSource(table), noopSink{}, pass.opt)
			return err
		}); err != nil {
			return nil, err
		}
	}
	jobOpt := opt
	jobOpt.Uncertainty = artifact.Uncertainty(js)

	// metrics and the materialised YLT: the same pipeline over the sink
	// stack a quoted job runs, each sink timed from outside.
	var full *core.FullYLT
	if err := repeat(func() error {
		sum := &timedSink{Sink: metrics.NewSummarySink()}
		ep := &timedSink{Sink: metrics.NewEPSink(js.Metrics.ReturnPeriods)}
		full = core.NewFullYLT()
		ylt := &timedSink{Sink: full}
		id := tr.begin("core.pipeline.sinks", root, "")
		_, err := eng.Eng.RunPipelineContext(ctx, core.NewTableSource(table), core.MultiSink{sum, ep, ylt}, jobOpt)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("replay core.pipeline.sinks: %w", err)
		}
		for _, s := range []struct {
			name string
			sink *timedSink
		}{{"metrics.summary", sum}, {"metrics.ep", ep}, {"core.ylt", ylt}} {
			// The span is the sink's share of the pipeline's wall time;
			// the busy metric multiplies the workers back in.
			tr.synthetic(s.name, id, "", time.Duration(s.sink.busy.Load()/int64(rc.engineWorkers)))
		}
		rc.sinkCalls = sum.calls.Load() + ep.calls.Load() + ylt.calls.Load()
		return nil
	}); err != nil {
		return nil, err
	}

	// pricing: one quote per layer on the materialised YLT.
	res := full.Result()
	if err := repeated("pricing.price", func() error {
		for li, l := range eng.P.P.Layers {
			if _, err := pricing.Price(res.YLT(li), pricing.Config{
				VolatilityMultiplier: js.Metrics.VolatilityMultiplier,
				ExpenseRatio:         js.Metrics.ExpenseRatio,
				OccLimit:             l.LTerms.OccLimit,
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// sweep: compile the workload's variant set against the cached engine
	// and run the fused pass over sinks that keep nothing.
	variants := sweepVariants(w, js)
	if err := repeat(func() error {
		var sw *core.SweepEngine
		if err := stage("core.sweep_compile", func() (err error) {
			sw, err = eng.Eng.CompileSweep(eng.P.P, variants)
			return
		}); err != nil {
			return err
		}
		members := make([]core.Sink, len(variants))
		for i := range members {
			members[i] = noopSink{}
		}
		return stage("core.sweep_pipeline", func() error {
			_, err := sw.RunPipelineContext(ctx, core.NewTableSource(table), core.NewVariantSinks(members...), jobOpt)
			return err
		})
	}); err != nil {
		return nil, err
	}

	// server.RunLocal: the whole single-node job without HTTP, scheduler or
	// journal; what server.run_ms exceeds it by is the service's overhead.
	if err := repeated("server.runlocal", func() error {
		_, _, err := server.RunLocal(ctx, cache, js)
		return err
	}); err != nil {
		return nil, err
	}

	// dist: one shard of the coordinator's plan through the shard executor
	// and the ARSB frame codec.
	plan := shardPlan(js.YET.Trials, sz.shardTrials, 2)
	rc.shards = len(plan)
	plain := *js
	plain.Sweep = nil // sweeps never fan out
	req := dist.ShardRequest{Job: &plain, Lo: plan[0][0], Hi: plan[0][1], WantYLT: js.Metrics.Quotes}
	if err := repeat(func() error {
		var sr *dist.ShardResult
		if err := stage("dist.exec_shard", func() (err error) {
			sr, err = dist.ExecShard(ctx, cache, req, rc.engineWorkers)
			return
		}); err != nil {
			return err
		}
		var frame bytes.Buffer
		if err := stage("dist.wire_encode", func() error { return dist.EncodeShardResult(&frame, sr) }); err != nil {
			return err
		}
		rc.wireBytes = int64(frame.Len())
		return stage("dist.wire_decode", func() error {
			_, err := dist.DecodeShardResult(&frame)
			return err
		})
	}); err != nil {
		return nil, err
	}

	// elt and mem: the innermost loop alone, and what memory allows.
	rc.gatherNS, rc.tableBytes, err = gatherBench(tr, root, nproc(), eng.P.P, js.Portfolio.CatalogSize, table)
	if err != nil {
		return nil, err
	}
	rc.streamGBps, rc.randomMLoads = memBench(tr, root, nproc(), memArrayBytes(sz))
	return rc, nil
}
