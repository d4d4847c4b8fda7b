package dist

import (
	"context"
	"time"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/core"
)

// ExecShard runs one shard request on this process — the worker side of
// the protocol, also used directly by in-process tests. It serves the
// shard's trials from a resident full table when one is cached
// (core.NewTableRangeSource) and otherwise materialises only the shard
// (artifact.ShardFor → yet.GenerateRange), compiles the engine through
// the same cache the worker's direct jobs use, and materialises the
// shard's Year Loss Tables: the response, and all the coordinator
// needs. Each cell is a pure function of its trial, so re-executing the
// same shard anywhere, at any worker count, yields the same bytes.
func ExecShard(ctx context.Context, cache *artifact.Cache, req ShardRequest, defaultWorkers int) (*ShardResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	js := req.Job
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eng, engineHit, err := artifact.EngineFor(cache, js)
	if err != nil {
		return nil, err
	}
	// Prefer a resident full table (this worker may also have run the
	// job directly): shard-range execution over it costs nothing, where
	// generating the shard costs its first build.
	var src core.TrialSource
	yetHit := false
	if full, ok := artifact.CachedTable(cache, js); ok {
		if src, err = core.NewTableRangeSource(full, req.Lo, req.Hi); err != nil {
			return nil, err
		}
		yetHit = true
	} else {
		table, hit, err := artifact.ShardFor(cache, js, req.Lo, req.Hi)
		if err != nil {
			return nil, err
		}
		src = core.NewTableSource(table)
		yetHit = hit
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	full := core.NewFullYLT()
	workers := js.Workers
	if workers <= 0 {
		workers = defaultWorkers
	}
	opt := core.Options{Workers: workers, Lookup: artifact.LookupKind(js.Lookup)}
	if u := artifact.Uncertainty(js); u.Mode == core.UncertaintySampled {
		// Severity draws are keyed on the global trial index: re-base
		// this shard's local trials by its low bound so every shard of
		// a sampled job draws exactly the deviates the whole-table run
		// would — regardless of how the trial range was split.
		u.TrialOffset = req.Lo
		opt.Uncertainty = u
	}
	start := time.Now()
	if _, err := eng.Eng.RunPipelineContext(ctx, src, full, opt); err != nil {
		return nil, err
	}

	st, err := full.State()
	if err != nil {
		return nil, err
	}
	return &ShardResult{
		Lo:           req.Lo,
		Hi:           req.Hi,
		LayerIDs:     eng.Eng.LayerIDs(),
		YLT:          &st,
		ElapsedMS:    time.Since(start).Milliseconds(),
		YETCached:    yetHit,
		EngineCached: engineHit,
	}, nil
}
