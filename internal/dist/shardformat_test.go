package dist_test

// Shard payloads ride the YET binary format: a worker that persists or
// ships its generated shard uses Table.WriteTo. This test pins that the
// serialised shard survives a round trip and that a shard executed from
// the reloaded table reproduces ExecShard's materialised YLT exactly.

import (
	"bytes"
	"context"
	"math"
	"testing"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/core"
	"github.com/ralab/are/internal/dist"
	"github.com/ralab/are/internal/yet"
)

func TestShardPayloadsRoundTrip(t *testing.T) {
	const trials = 600
	js := e2eJob(t, trials, false)
	cache := artifact.NewCache(8)

	const lo, hi = 150, 450
	shard, _, err := artifact.ShardFor(cache, js, lo, hi)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := shard.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := yet.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// The worker-side execution of the shard...
	res, err := dist.ExecShard(context.Background(), cache, dist.ShardRequest{
		Job: js, Lo: lo, Hi: hi,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}

	// ...must match running the engine over the round-tripped payload.
	eng, _, err := artifact.EngineFor(cache, js)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Eng.Run(reloaded, core.Options{Workers: 1, Lookup: artifact.LookupKind(js.Lookup)})
	if err != nil {
		t.Fatal(err)
	}
	if res.YLT == nil {
		t.Fatal("shard result carries no YLT")
	}
	for l := range got.AggLoss {
		for tr := range got.AggLoss[l] {
			if math.Float64bits(got.AggLoss[l][tr]) != math.Float64bits(res.YLT.AggLoss[l][tr]) {
				t.Fatalf("layer %d trial %d: reloaded-shard agg differs from ExecShard", l, tr)
			}
			if math.Float64bits(got.MaxOccLoss[l][tr]) != math.Float64bits(res.YLT.MaxOccLoss[l][tr]) {
				t.Fatalf("layer %d trial %d: reloaded-shard maxOcc differs from ExecShard", l, tr)
			}
		}
	}
}
