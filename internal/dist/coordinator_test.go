package dist

import (
	"reflect"
	"testing"
	"time"

	"github.com/ralab/are/internal/core"
	"github.com/ralab/are/internal/metrics"
)

func TestShardPlan(t *testing.T) {
	cases := []struct {
		trials, shardTrials, workers int
		wantShards                   int
	}{
		{100, 25, 1, 4},
		{100, 1000, 4, 4}, // small job still splits across workers
		{100, 1000, 1, 1}, // one worker, one shard
		{101, 25, 1, 5},   // remainder shard
		{1, 25, 8, 1},     // can't split below one trial
		{100_000, 25_000, 2, 4},
	}
	for _, c := range cases {
		plan := shardPlan(c.trials, c.shardTrials, c.workers)
		if len(plan) != c.wantShards {
			t.Errorf("shardPlan(%d, %d, %d) = %d shards, want %d",
				c.trials, c.shardTrials, c.workers, len(plan), c.wantShards)
		}
		next := 0
		for _, sh := range plan {
			if sh[0] != next || sh[1] <= sh[0] {
				t.Fatalf("plan %v does not tile [0, %d)", plan, c.trials)
			}
			next = sh[1]
		}
		if next != c.trials {
			t.Fatalf("plan %v covers %d of %d trials", plan, next, c.trials)
		}
	}
}

// fakeShard builds a structurally valid shard result over [lo, hi):
// trial i loses i, and its largest occurrence i/2.
func fakeShard(lo, hi int) *ShardResult {
	st := &core.YLTState{
		LayerIDs:   []uint32{1},
		NumTrials:  hi - lo,
		AggLoss:    [][]float64{make([]float64, hi-lo)},
		MaxOccLoss: [][]float64{make([]float64, hi-lo)},
	}
	for i := range hi - lo {
		st.AggLoss[0][i] = float64(lo + i)
		st.MaxOccLoss[0][i] = float64(lo+i) / 2
	}
	return &ShardResult{Lo: lo, Hi: hi, LayerIDs: st.LayerIDs, YLT: st}
}

func TestMergeShardsRejectsBadTilings(t *testing.T) {
	noYLT := fakeShard(0, 10)
	noYLT.YLT = nil
	short := fakeShard(0, 10)
	short.Hi = 11
	cases := map[string][]*ShardResult{
		"none":       {},
		"gap":        {fakeShard(0, 5), fakeShard(6, 10)},
		"overlap":    {fakeShard(0, 6), fakeShard(5, 10)},
		"short":      {fakeShard(0, 5)},
		"missingYLT": {noYLT},
		"rangeLie":   {short},
	}
	for name, shards := range cases {
		if _, err := mergeShards(10, shards); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := mergeShards(10, []*ShardResult{fakeShard(5, 10), fakeShard(0, 5)}); err != nil {
		t.Errorf("out-of-order arrival rejected: %v", err)
	}
}

// TestMergeShardsSummaryExact: out-of-order shards reassemble into the
// table one pass would fill, so the summary rendered from it is exact.
func TestMergeShardsSummaryExact(t *testing.T) {
	m, err := mergeShards(10, []*ShardResult{fakeShard(5, 10), fakeShard(0, 5)})
	if err != nil {
		t.Fatal(err)
	}
	whole := fakeShard(0, 10).YLT
	if !reflect.DeepEqual(m.Result.AggLoss, whole.AggLoss) || !reflect.DeepEqual(m.Result.MaxOccLoss, whole.MaxOccLoss) {
		t.Fatalf("reassembled table %v", m.Result.AggLoss)
	}
	s, err := metrics.Summarise(m.Result.YLT(0))
	if err != nil {
		t.Fatal(err)
	}
	if s.Trials != 10 || s.Min != 0 || s.Max != 9 || s.Mean != 4.5 {
		t.Fatalf("merged summary %+v", s)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	c := NewCoordinator(Config{WorkerTTL: 50 * time.Millisecond})
	if _, err := c.Register(RegisterRequest{URL: "not-a-url"}); err == nil {
		t.Fatal("bad URL accepted")
	}
	r1, err := c.Register(RegisterRequest{URL: "http://a:1/"})
	if err != nil {
		t.Fatal(err)
	}
	// Re-registering the same URL keeps the identity.
	r2, err := c.Register(RegisterRequest{URL: "http://a:1", Capacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ID != r2.ID {
		t.Fatalf("re-registration changed ID: %s -> %s", r1.ID, r2.ID)
	}
	if err := c.Heartbeat(r1.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat("w-9999"); err != ErrUnknownWorker {
		t.Fatalf("unknown heartbeat: %v", err)
	}
	st := c.Status()
	if len(st.Workers) != 1 || !st.Workers[0].Alive || st.Alive != 1 || st.Workers[0].Capacity != 3 {
		t.Fatalf("status %+v", st)
	}
	time.Sleep(120 * time.Millisecond)
	st = c.Status()
	if st.Alive != 0 || st.Workers[0].Alive {
		t.Fatalf("worker still alive after TTL: %+v", st)
	}
	if len(c.alive()) != 0 {
		t.Fatal("expired worker still dispatchable")
	}
}
