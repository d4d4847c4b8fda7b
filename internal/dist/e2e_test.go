package dist_test

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/core"
	"github.com/ralab/are/internal/dist"
	"github.com/ralab/are/internal/server"
	"github.com/ralab/are/internal/spec"
)

// e2eJob builds a two-layer job spec.
func e2eJob(t testing.TB, trials int, quotes bool) *spec.Job {
	t.Helper()
	body := fmt.Sprintf(`{
	  "portfolio": {
	    "catalogSize": 15000,
	    "elts": [
	      {"id": 1, "generate": {"seed": 21, "numRecords": 1500}},
	      {"id": 2, "generate": {"seed": 22, "numRecords": 1500}}
	    ],
	    "layers": [
	      {"id": 1, "name": "cat-a", "elts": [1, 2],
	       "terms": {"occRetention": 1e5, "occLimit": 4e6}},
	      {"id": 2, "name": "cat-b", "elts": [2],
	       "terms": {"occRetention": 5e4, "occLimit": 2e6, "aggRetention": 1e5}}
	    ]
	  },
	  "yet": {"seed": 77, "trials": %d, "meanEvents": 30},
	  "metrics": {"quotes": %v},
	  "workers": 1
	}`, trials, quotes)
	j, err := spec.ParseJob(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// singleNode runs the job locally in one sequential pass and returns
// its materialised Year Loss Tables.
func singleNode(t testing.TB, js *spec.Job) *core.Result {
	t.Helper()
	cache := artifact.NewCache(8)
	eng, _, err := artifact.EngineFor(cache, js)
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := artifact.TableFor(cache, js)
	if err != nil {
		t.Fatal(err)
	}
	full := core.NewFullYLT()
	opt := core.Options{Workers: 1, Lookup: artifact.LookupKind(js.Lookup),
		Uncertainty: artifact.Uncertainty(js)}
	if _, err := eng.Eng.RunPipeline(core.NewTableSource(table), full, opt); err != nil {
		t.Fatal(err)
	}
	return full.Result()
}

// startWorkers spins n in-process ared workers over httptest and
// registers them with the coordinator. wrap (optional) decorates each
// worker's handler, for failure injection.
func startWorkers(t testing.TB, c *dist.Coordinator, n int, wrap func(i int, h http.Handler) http.Handler) {
	t.Helper()
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{Role: server.RoleWorker, JobWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5e9)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
		if _, err := c.Register(dist.RegisterRequest{URL: ts.URL, Capacity: 2}); err != nil {
			t.Fatal(err)
		}
	}
}

// assertMatchesSingleNode checks a Merged against the single-node run:
// every YLT cell bitwise, so every summary, EP point and quote rendered
// from the columns is bitwise too.
func assertMatchesSingleNode(t *testing.T, js *spec.Job, m *dist.Merged) {
	t.Helper()
	want := singleNode(t, js)
	if m.Result == nil {
		t.Fatal("merged result missing YLTs")
	}
	if len(m.Result.AggLoss) != len(want.AggLoss) {
		t.Fatalf("%d layers, want %d", len(m.Result.AggLoss), len(want.AggLoss))
	}
	for l := range want.AggLoss {
		if len(m.Result.AggLoss[l]) != len(want.AggLoss[l]) {
			t.Fatalf("layer %d: %d trials, want %d", l, len(m.Result.AggLoss[l]), len(want.AggLoss[l]))
		}
		for i := range want.AggLoss[l] {
			if math.Float64bits(m.Result.AggLoss[l][i]) != math.Float64bits(want.AggLoss[l][i]) ||
				math.Float64bits(m.Result.MaxOccLoss[l][i]) != math.Float64bits(want.MaxOccLoss[l][i]) {
				t.Fatalf("layer %d trial %d: distributed YLT differs from single node", l, i)
			}
		}
	}
}

// TestDistributedMatchesSingleNode is the acceptance-criteria test: one
// job sharded across 3 in-process workers reproduces the single-node
// FullYLT, and so every metric rendered from it, bitwise.
func TestDistributedMatchesSingleNode(t *testing.T) {
	js := e2eJob(t, 2000, true)
	c := dist.NewCoordinator(dist.Config{ShardTrials: 250})
	startWorkers(t, c, 3, nil)

	var lastDone atomic.Int64
	m, err := c.RunJob(context.Background(), js, func(done, total int) {
		lastDone.Store(int64(done))
		if total != 2000 {
			t.Errorf("progress total %d", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 8 {
		t.Fatalf("planned %d shards, want 8", m.Shards)
	}
	if m.WorkersUsed < 2 {
		t.Fatalf("only %d workers used", m.WorkersUsed)
	}
	if lastDone.Load() != 2000 {
		t.Fatalf("progress reached %d of 2000", lastDone.Load())
	}
	assertMatchesSingleNode(t, js, m)
}

// flakyHandler serves okBefore shard requests normally, then fails every
// subsequent one — a worker dying mid-job.
func flakyHandler(next http.Handler, okBefore int64) http.Handler {
	var served atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/shards") && served.Add(1) > okBefore {
			http.Error(w, "injected worker failure", http.StatusInternalServerError)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// TestDistributedSurvivesWorkerFailure kills one of three workers after
// its first shard; the job must complete on the survivors with an
// identical (still bitwise) result, recording the retries.
func TestDistributedSurvivesWorkerFailure(t *testing.T) {
	// Default MaxAttempts: attempts count distinct workers, so one dead
	// worker burns a single attempt per shard however often it fails.
	js := e2eJob(t, 2000, true)
	c := dist.NewCoordinator(dist.Config{ShardTrials: 200})
	startWorkers(t, c, 3, func(i int, h http.Handler) http.Handler {
		if i == 0 {
			return flakyHandler(h, 1)
		}
		return h
	})

	m, err := c.RunJob(context.Background(), js, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Retried == 0 {
		t.Fatal("expected at least one retried shard")
	}
	assertMatchesSingleNode(t, js, m)

	st := c.Status()
	var failed int64
	for _, w := range st.Workers {
		failed += w.ShardsFailed
	}
	if failed == 0 {
		t.Fatal("cluster status records no failed shards")
	}
}

// TestRequeueOnDeathBeforeFirstHeartbeat: a worker that registers and
// dies before its first heartbeat is the nastiest liveness window — the
// registry lists it alive for a full TTL on the strength of the
// registration alone, so the coordinator will dispatch to a corpse.
// Every shard it accepts must be requeued onto real workers and the job
// must still complete bitwise-identical to the single-node run.
func TestRequeueOnDeathBeforeFirstHeartbeat(t *testing.T) {
	js := e2eJob(t, 2000, true)
	c := dist.NewCoordinator(dist.Config{ShardTrials: 250})
	startWorkers(t, c, 2, nil)

	// The corpse: registration succeeds, then every request — shard
	// dispatch included — is accepted at the TCP level and severed
	// mid-response, exactly what a worker SIGKILLed after accepting a
	// shard looks like from the coordinator's side. No heartbeat ever.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(dead.Close)
	reg, err := c.Register(dist.RegisterRequest{URL: dead.URL, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Status().Alive; got != 3 {
		t.Fatalf("registry shows %d alive workers before the job, want 3 (corpse must count)", got)
	}

	m, err := c.RunJob(context.Background(), js, nil)
	if err != nil {
		t.Fatalf("job failed instead of requeueing off the dead worker: %v", err)
	}
	if m.Retried == 0 {
		t.Fatal("no shard was retried — the dead worker was never dispatched to, test exercised nothing")
	}
	assertMatchesSingleNode(t, js, m)

	st := c.Status()
	var corpse *dist.WorkerStatus
	for i := range st.Workers {
		if st.Workers[i].ID == reg.ID {
			corpse = &st.Workers[i]
		}
	}
	if corpse == nil {
		t.Fatalf("dead worker %s missing from cluster status", reg.ID)
	}
	if corpse.ShardsFailed == 0 {
		t.Fatal("dead worker recorded no failed shards")
	}
	if corpse.ShardsDone != 0 {
		t.Fatalf("dead worker credited with %d completed shards", corpse.ShardsDone)
	}
}

// TestDistributedAllWorkersDead: when every worker fails persistently
// the job must fail with a useful error, not hang.
func TestDistributedAllWorkersDead(t *testing.T) {
	js := e2eJob(t, 500, false)
	c := dist.NewCoordinator(dist.Config{ShardTrials: 100, MaxAttempts: 10})
	startWorkers(t, c, 2, func(i int, h http.Handler) http.Handler {
		return flakyHandler(h, 0)
	})
	if _, err := c.RunJob(context.Background(), js, nil); err == nil {
		t.Fatal("job succeeded with no working workers")
	}
}

func TestRunJobNoWorkers(t *testing.T) {
	c := dist.NewCoordinator(dist.Config{})
	if _, err := c.RunJob(context.Background(), e2eJob(t, 100, false), nil); err != dist.ErrNoWorkers {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

func TestRunJobCancellation(t *testing.T) {
	js := e2eJob(t, 5000, false)
	c := dist.NewCoordinator(dist.Config{ShardTrials: 100})
	startWorkers(t, c, 2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunJob(ctx, js, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// sampledE2EJob is e2eJob with sampled severities: generated sigma
// columns plus a sampled uncertainty block.
func sampledE2EJob(t testing.TB, trials int) *spec.Job {
	t.Helper()
	body := fmt.Sprintf(`{
	  "portfolio": {
	    "catalogSize": 15000,
	    "elts": [
	      {"id": 1, "generate": {"seed": 21, "numRecords": 1500, "sigma": 0.7}},
	      {"id": 2, "generate": {"seed": 22, "numRecords": 1500, "sigma": 1.1}}
	    ],
	    "layers": [
	      {"id": 1, "name": "cat-a", "elts": [1, 2],
	       "terms": {"occRetention": 1e5, "occLimit": 4e6}},
	      {"id": 2, "name": "cat-b", "elts": [2],
	       "terms": {"occRetention": 5e4, "occLimit": 2e6, "aggRetention": 1e5}}
	    ]
	  },
	  "yet": {"seed": 77, "trials": %d, "meanEvents": 30},
	  "metrics": {"quotes": true},
	  "uncertainty": {"mode": "sampled", "seed": 1234},
	  "workers": 1
	}`, trials)
	j, err := spec.ParseJob(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestDistributedSampledMatchesSingleNode: severity draws are keyed on
// the global trial index, so a sampled job sharded across workers must
// reproduce the single-node sampled YLT bitwise — the distributed half
// of the determinism contract.
func TestDistributedSampledMatchesSingleNode(t *testing.T) {
	js := sampledE2EJob(t, 2000)
	c := dist.NewCoordinator(dist.Config{ShardTrials: 250})
	startWorkers(t, c, 3, nil)
	m, err := c.RunJob(context.Background(), js, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 8 {
		t.Fatalf("planned %d shards, want 8", m.Shards)
	}
	assertMatchesSingleNode(t, js, m)
}

// TestExecShardSampledOffsets: the executor must re-base severity draws
// by the shard's low trial bound on both shard paths — a generated
// shard table and a range view of a resident full table.
func TestExecShardSampledOffsets(t *testing.T) {
	js := sampledE2EJob(t, 300)
	full := singleNode(t, js)

	for name, warm := range map[string]bool{"generated-shard": false, "range-of-full": true} {
		cache := artifact.NewCache(8)
		if warm {
			if _, _, err := artifact.TableFor(cache, js); err != nil {
				t.Fatal(err)
			}
		}
		req := dist.ShardRequest{Job: js, Lo: 100, Hi: 200}
		res, err := dist.ExecShard(context.Background(), cache, req, 1)
		if err != nil {
			t.Fatal(err)
		}
		for l := range full.AggLoss {
			for i := 0; i < 100; i++ {
				if res.YLT.AggLoss[l][i] != full.AggLoss[l][100+i] {
					t.Fatalf("%s: layer %d trial %d: shard draw differs from whole-table run", name, l, 100+i)
				}
			}
		}
	}
}

// TestExecShardDirect exercises the worker-side executor in process:
// the shard result round-trips and re-execution is cached.
func TestExecShardDirect(t *testing.T) {
	js := e2eJob(t, 300, false)
	cache := artifact.NewCache(8)
	req := dist.ShardRequest{Job: js, Lo: 100, Hi: 200}
	res, err := dist.ExecShard(context.Background(), cache, req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lo != 100 || res.Hi != 200 || res.YLT == nil || res.YLT.NumTrials != 100 {
		t.Fatalf("shard result %+v", res)
	}
	if res.YETCached || res.EngineCached {
		t.Fatal("first execution reported cached artifacts")
	}
	again, err := dist.ExecShard(context.Background(), cache, req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !again.YETCached || !again.EngineCached {
		t.Fatal("re-execution did not hit the artifact cache")
	}
	for l := range res.YLT.AggLoss {
		for i := range res.YLT.AggLoss[l] {
			if res.YLT.AggLoss[l][i] != again.YLT.AggLoss[l][i] {
				t.Fatal("re-executed shard differs")
			}
		}
	}
	// Bad ranges are rejected before any work.
	for _, r := range [][2]int{{-1, 10}, {200, 100}, {0, 301}} {
		bad := dist.ShardRequest{Job: js, Lo: r[0], Hi: r[1]}
		if _, err := dist.ExecShard(context.Background(), cache, bad, 1); err == nil {
			t.Errorf("range [%d, %d) accepted", r[0], r[1])
		}
	}

	// A worker holding the job's full table (e.g. from a direct job)
	// serves shards as ranges of it — no shard generation, same bits.
	cache2 := artifact.NewCache(8)
	if _, _, err := artifact.TableFor(cache2, js); err != nil {
		t.Fatal(err)
	}
	viaRange, err := dist.ExecShard(context.Background(), cache2, req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !viaRange.YETCached {
		t.Fatal("resident full table not reused for shard execution")
	}
	for l := range res.YLT.AggLoss {
		for i := range res.YLT.AggLoss[l] {
			if res.YLT.AggLoss[l][i] != viaRange.YLT.AggLoss[l][i] {
				t.Fatal("range-source shard differs from generated shard")
			}
		}
	}
}
