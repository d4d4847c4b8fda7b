package server

// Cross-job fusion tests: the admission planner's compatibility rules
// (table-driven over the fuse key and variant budget), the oracle that
// fused results are bitwise-identical to solo runs across every lookup
// kind and job shape, fusion composed with cancellation, tenancy
// (quota charged per job, released exactly once) and durability
// (journaled fused results byte-stable across restart), plus a
// race-enabled concurrent submit/fuse/cancel hammer (the server
// package is part of CI's -race step).

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/spec"
	"github.com/ralab/are/internal/tenant"
)

// fusionJobBody is jobBody with an explicit lookup kind and optional
// sweep. Workers is pinned to 1: the bitwise regime (sequential
// pipeline, emission-order-deterministic online sinks) that the
// fused-vs-solo oracle relies on.
func fusionJobBody(lookup string, seed uint64, trials, fixedEvents int, quotes bool, sweep string) string {
	sweepField := ""
	if sweep != "" {
		sweepField = `,
	  "sweep": ` + sweep
	}
	return fmt.Sprintf(`{
	  "portfolio": {
	    "catalogSize": 20000,
	    "elts": [
	      {"id": 1, "generate": {"seed": 11, "numRecords": 2000}},
	      {"id": 2, "generate": {"seed": 12, "numRecords": 2000}}
	    ],
	    "layers": [
	      {"id": 1, "name": "cat-xl-a", "elts": [1, 2],
	       "terms": {"occRetention": 1e5, "occLimit": 4e6}}
	    ]
	  },
	  "yet": {"seed": %d, "trials": %d, "fixedEvents": %d},
	  "metrics": {"quotes": %v},
	  "workers": 1,
	  "lookup": %q%s
	}`, seed, trials, fixedEvents, quotes, lookup, sweepField)
}

// blockerBody is a deliberately fusion-incompatible long job (different
// YET seed) that pins the single worker while a burst queues behind it,
// making the planner's batch collection deterministic.
func blockerBody() string {
	return jobBody(999, 20000, 100, false)
}

// TestFusedBitwiseVsSolo is the fusion oracle: for every lookup kind,
// a burst of one plain, one quoted and one sweep job fused into a
// single pass must produce results bitwise-identical to the same specs
// run solo (fusion disabled), only the fused server may report the
// jobs as fused, and the solo runs — batches of one — must in turn be
// bitwise-identical to RunLocal.
func TestFusedBitwiseVsSolo(t *testing.T) {
	const sweep = `{"variants": [
	  {"name": "base"},
	  {"name": "hi-attach", "occRetention": 2e5}
	]}`
	for _, lookup := range []string{"direct", "sorted", "hash", "cuckoo", "combined"} {
		t.Run(lookup, func(t *testing.T) {
			bodies := []string{
				fusionJobBody(lookup, 42, 1500, 30, false, ""),
				fusionJobBody(lookup, 42, 1500, 30, true, ""),
				fusionJobBody(lookup, 42, 1500, 30, true, sweep),
			}

			_, fusedTS := testServer(t, Config{JobWorkers: 1, FuseWait: 300 * time.Millisecond})
			blocker, _ := postJob(t, fusedTS, blockerBody())
			ids := make([]string, len(bodies))
			for i, b := range bodies {
				st, resp := postJob(t, fusedTS, b)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit %d: %d", i, resp.StatusCode)
				}
				ids[i] = st.ID
			}
			fused := make([]*JobResult, len(bodies))
			for i, id := range ids {
				st := waitState(t, fusedTS, id, JobDone, JobFailed)
				if st.State != string(JobDone) {
					t.Fatalf("fused job %s: %s (%s)", id, st.State, st.Error)
				}
				if !st.Fused || st.FusedBatch != len(bodies) {
					t.Fatalf("job %s: fused=%v batch=%d, want fused batch of %d",
						id, st.Fused, st.FusedBatch, len(bodies))
				}
				res, _ := getResult(t, fusedTS, id)
				fused[i] = res
			}
			if st := waitState(t, fusedTS, blocker.ID, JobDone); st.Fused {
				t.Fatalf("incompatible blocker reported fused")
			}

			// Batch of one: with fusion disabled every job is a batch of
			// one through the same path. The fused results above must
			// match it, and it must match RunLocal — the batch of one
			// with the YLT kept — for a plain, a quoted, a sweep and
			// (where the lookup can sample) a sampled job.
			ones := bodies
			if lookup != "combined" {
				ones = append(ones, sampledJobBody("sampled", 7, lookup))
			}
			cache := artifact.NewCache(8)
			_, soloTS := testServer(t, Config{JobWorkers: 1, FuseWait: -1})
			for i, b := range ones {
				st, _ := postJob(t, soloTS, b)
				if got := waitState(t, soloTS, st.ID, JobDone, JobFailed); got.State != string(JobDone) {
					t.Fatalf("solo job %s: %s (%s)", st.ID, got.State, got.Error)
				} else if got.Fused || got.FusedBatch != 0 {
					t.Fatalf("solo job %s reported fused", st.ID)
				}
				solo, _ := getResult(t, soloTS, st.ID)
				js, err := spec.ParseJob(strings.NewReader(b))
				if err != nil {
					t.Fatal(err)
				}
				local, _, err := RunLocal(context.Background(), cache, js)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(solo.Layers, local.Layers) || !reflect.DeepEqual(solo.Variants, local.Variants) {
					t.Fatalf("job %d (%s): batch of one differs from RunLocal", i, lookup)
				}
				if i >= len(fused) {
					continue
				}
				if fused[i].Trials != solo.Trials {
					t.Fatalf("job %d: trials %d vs %d", i, fused[i].Trials, solo.Trials)
				}
				if !reflect.DeepEqual(fused[i].Layers, solo.Layers) {
					t.Fatalf("job %d (%s): fused layers differ from solo", i, lookup)
				}
				if !reflect.DeepEqual(fused[i].Variants, solo.Variants) {
					t.Fatalf("job %d (%s): fused variants differ from solo", i, lookup)
				}
			}
		})
	}
}

// plannerScheduler builds a bare scheduler with no worker goroutines,
// so tests can drive nextBatch by hand.
func plannerScheduler(t *testing.T, fuseWait time.Duration) *scheduler {
	t.Helper()
	cfg := Config{FuseWait: fuseWait}
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	cfg.FuseWait = fuseWait // setDefaults maps 0 to the default; keep the test's value
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return &scheduler{
		cfg:        cfg,
		metrics:    &serverMetrics{start: time.Now()},
		baseCtx:    ctx,
		baseCancel: cancel,
		execSem:    make(chan struct{}, cfg.JobWorkers),
		accepting:  true,
		jobs:       make(map[string]*Job),
		arrival:    make(chan struct{}),
	}
}

// queueBody parses and enqueues one job body, returning the job.
func queueBody(t *testing.T, s *scheduler, body string) *Job {
	t.Helper()
	js, err := spec.ParseJob(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.submit(js, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// manyVariantSweep renders a sweep with n distinct variants.
func manyVariantSweep(n int) string {
	vs := make([]string, n)
	for i := range vs {
		vs[i] = fmt.Sprintf(`{"name": "v%d", "occRetention": %de4}`, i, i+10)
	}
	return `{"variants": [` + strings.Join(vs, ",") + `]}`
}

// TestPlannerCompatibility drives the admission planner over queued
// job mixes and checks exactly which jobs each batch carries.
func TestPlannerCompatibility(t *testing.T) {
	same := func() string { return fusionJobBody("direct", 1, 100, 10, false, "") }
	cases := []struct {
		name     string
		fuseWait time.Duration
		bodies   []string
		batches  [][]int // expected member indices per nextBatch call
	}{
		{
			name:     "identical specs fuse",
			fuseWait: time.Millisecond,
			bodies:   []string{same(), same(), same()},
			batches:  [][]int{{0, 1, 2}},
		},
		{
			name:     "metrics options may differ",
			fuseWait: time.Millisecond,
			bodies: []string{
				fusionJobBody("direct", 1, 100, 10, false, ""),
				fusionJobBody("direct", 1, 100, 10, true, ""),
				fusionJobBody("direct", 1, 100, 10, true, manyVariantSweep(2)),
			},
			batches: [][]int{{0, 1, 2}},
		},
		{
			name:     "portfolio mismatch runs solo",
			fuseWait: time.Millisecond,
			bodies: []string{
				same(),
				strings.Replace(same(), `"seed": 11`, `"seed": 13`, 1),
			},
			batches: [][]int{{0}, {1}},
		},
		{
			name:     "trial-range mismatch runs solo",
			fuseWait: time.Millisecond,
			bodies: []string{
				fusionJobBody("direct", 1, 100, 10, false, ""),
				fusionJobBody("direct", 1, 200, 10, false, ""),
			},
			batches: [][]int{{0}, {1}},
		},
		{
			name:     "lookup mismatch runs solo",
			fuseWait: time.Millisecond,
			bodies: []string{
				fusionJobBody("direct", 1, 100, 10, false, ""),
				fusionJobBody("hash", 1, 100, 10, false, ""),
			},
			batches: [][]int{{0}, {1}},
		},
		{
			name:     "worker-count mismatch runs solo",
			fuseWait: time.Millisecond,
			bodies: []string{
				same(),
				strings.Replace(same(), `"workers": 1`, `"workers": 2`, 1),
			},
			batches: [][]int{{0}, {1}},
		},
		{
			name:     "variant budget overflow defers the big sweep",
			fuseWait: time.Millisecond,
			bodies: []string{
				fusionJobBody("direct", 1, 100, 10, false, manyVariantSweep(40)),
				fusionJobBody("direct", 1, 100, 10, false, manyVariantSweep(30)),
				fusionJobBody("direct", 1, 100, 10, false, manyVariantSweep(20)),
			},
			// Head holds 40 of the 64-variant budget: the 30-variant
			// sweep does not fit, the 20-variant one does.
			batches: [][]int{{0, 2}, {1}},
		},
		{
			name:     "fusion disabled runs everything solo",
			fuseWait: -1,
			bodies:   []string{same(), same()},
			batches:  [][]int{{0}, {1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := plannerScheduler(t, tc.fuseWait)
			jobs := make([]*Job, len(tc.bodies))
			for i, b := range tc.bodies {
				jobs[i] = queueBody(t, s, b)
			}
			for bi, want := range tc.batches {
				batch := s.nextBatch()
				if len(batch) != len(want) {
					t.Fatalf("batch %d: %d members, want %d", bi, len(batch), len(want))
				}
				for mi, ji := range want {
					if batch[mi] != jobs[ji] {
						t.Fatalf("batch %d member %d: got %s, want %s",
							bi, mi, batch[mi].ID, jobs[ji].ID)
					}
				}
			}
			if n := s.queueLen(); n != 0 {
				t.Fatalf("%d jobs left queued", n)
			}
		})
	}
}

// TestPlannerWaitsForLateBatchmate: within the FuseWait window a newly
// arrived compatible job joins the head's batch; the planner must wake
// on arrival rather than poll.
func TestPlannerWaitsForLateBatchmate(t *testing.T) {
	s := plannerScheduler(t, 2*time.Second)
	first := queueBody(t, s, fusionJobBody("direct", 1, 100, 10, false, ""))
	var second *Job
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(20 * time.Millisecond)
		second = queueBody(t, s, fusionJobBody("direct", 1, 100, 10, false, ""))
	}()
	start := time.Now()
	batch := s.nextBatch()
	<-done
	if len(batch) != 2 || batch[0] != first || batch[1] != second {
		t.Fatalf("batch = %v, want [first second]", batch)
	}
	// The full budget is still free, so the planner keeps waiting out
	// its window after the second arrival — but it must not overshoot
	// FuseWait by much.
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("nextBatch took %v", e)
	}
}

// TestFusedCancelledQueuedMember: a batchmate cancelled while queued
// never runs — the survivors fuse without it and report the shrunken
// batch size.
func TestFusedCancelledQueuedMember(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, FuseWait: 300 * time.Millisecond})
	postJob(t, ts, blockerBody())
	a, _ := postJob(t, ts, fusionJobBody("direct", 5, 800, 20, true, ""))
	b, _ := postJob(t, ts, fusionJobBody("direct", 5, 800, 20, false, ""))
	c, _ := postJob(t, ts, fusionJobBody("direct", 5, 800, 20, false, ""))

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+b.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if st := waitState(t, ts, b.ID, JobCancelled); st.StartedAt != "" {
		t.Fatalf("cancelled-while-queued job reports a start time %q", st.StartedAt)
	}
	for _, id := range []string{a.ID, c.ID} {
		st := waitState(t, ts, id, JobDone, JobFailed)
		if st.State != string(JobDone) {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		if !st.Fused || st.FusedBatch != 2 {
			t.Fatalf("job %s: fused=%v batch=%d, want fused batch of 2", id, st.Fused, st.FusedBatch)
		}
	}
	if res, resp := getResult(t, ts, b.ID); res != nil || resp.StatusCode != http.StatusGone {
		t.Fatalf("cancelled member result: %v (%d)", res, resp.StatusCode)
	}
}

// TestBatchPreparesEachMemberOnce: tenant cache accounting is charged
// once per job however its batch shrinks. Two started members, one
// whose context is already cancelled: the survivor runs on as a batch
// of one over the artifacts it already prepared, so its tenant reads
// exactly two artifact lookups (engine + YET) and one walk of the
// table's bytes.
func TestBatchPreparesEachMemberOnce(t *testing.T) {
	const trials, events = 200, 10
	s := plannerScheduler(t, time.Millisecond)
	s.cache = artifact.NewCache(8)
	body := fusionJobBody("direct", 3, trials, events, false, "")
	survivor, dead := queueBody(t, s, body), queueBody(t, s, body)
	survivor.Tenant, dead.Tenant = "alpha", "beta"
	dead.cancel() // context only: still queued, so start() admits it

	s.runBatch(s.nextBatch())

	if st := survivor.Status(); st.State != string(JobDone) || st.Fused {
		t.Fatalf("survivor: state %s fused=%v (%s), want an unfused done job", st.State, st.Fused, st.Error)
	}
	if st := dead.Status(); st.State != string(JobCancelled) {
		t.Fatalf("cancelled member: state %s, want cancelled", st.State)
	}
	tc := s.metrics.tenantCounters("alpha")
	if n := tc.cacheHits.Load() + tc.cacheMiss.Load(); n != 2 {
		t.Fatalf("survivor's tenant charged %d artifact lookups, want 2", n)
	}
	if got, want := tc.cacheBytes.Load(), int64(4*trials*events); got != want {
		t.Fatalf("survivor's tenant charged %d table bytes, want %d", got, want)
	}
}

// TestFusedQuotaPerJobExactlyOnce: maxActive admits per job even when
// the jobs are destined to fuse, and every fused member releases its
// slot exactly once at terminal.
func TestFusedQuotaPerJobExactlyOnce(t *testing.T) {
	reg, err := tenant.Parse([]byte(`{"tenants": [
		{"name": "alpha", "key": "alpha-secret-key-0001", "maxActive": 3},
		{"name": "beta", "key": "beta-secret-key-00002"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{JobWorkers: 1, FuseWait: 300 * time.Millisecond, Tenants: reg})
	submitAs(t, ts, betaKey, blockerBody())
	body := fusionJobBody("direct", 5, 800, 20, false, "")
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitAs(t, ts, alphaKey, body).ID)
	}
	// The batch would fuse into one pass, but the concurrency quota
	// still counts three alpha jobs: the fourth is refused.
	if resp, _ := authedDo(t, http.MethodPost, ts.URL+"/v1/jobs", alphaKey, body); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("4th job over maxActive=3: %d, want 429", resp.StatusCode)
	}
	for _, id := range ids {
		st := waitStateAs(t, ts, alphaKey, id, JobDone, JobFailed)
		if st.State != string(JobDone) {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		if !st.Fused || st.FusedBatch != 3 {
			t.Fatalf("job %s: fused=%v batch=%d, want fused batch of 3", id, st.Fused, st.FusedBatch)
		}
	}
	alpha, _ := reg.Lookup("alpha")
	if n := alpha.Active(); n != 0 {
		t.Fatalf("alpha active = %d after fused batch finished, want 0 (exactly-once release)", n)
	}
}

// TestConcurrentSubmitFuseCancel hammers submission, fusion and
// cancellation from many goroutines; under -race this is the planner's
// concurrency certification. Every job must reach exactly one terminal
// state and done jobs must serve a result.
func TestConcurrentSubmitFuseCancel(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 2, FuseWait: time.Millisecond, QueueDepth: 256})
	const (
		goroutines = 8
		perG       = 5
	)
	var (
		mu  sync.Mutex
		ids []string
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Two spec families keep the planner splitting and
				// merging batches while submissions race.
				body := fusionJobBody("direct", uint64(7+g%2), 300, 10, g%2 == 0, "")
				st, resp := postJob(t, ts, body)
				if resp.StatusCode != http.StatusAccepted {
					continue // queue-full 503 is a legitimate outcome
				}
				if (g+i)%3 == 0 {
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close()
					}
				}
				mu.Lock()
				ids = append(ids, st.ID)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	for _, id := range ids {
		st := waitState(t, ts, id, JobDone, JobFailed, JobCancelled)
		switch st.State {
		case string(JobDone):
			if res, resp := getResult(t, ts, id); res == nil {
				t.Fatalf("done job %s: result %d", id, resp.StatusCode)
			} else if res.Trials != 300 {
				t.Fatalf("job %s: %d trials, want 300", id, res.Trials)
			}
		case string(JobFailed):
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
	}
}

// TestFusedDurableRestart: fused jobs journal per-job Done records
// whose bytes survive a restart verbatim, exactly like solo jobs.
func TestFusedDurableRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{JobWorkers: 1, FuseWait: 300 * time.Millisecond, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	postJob(t, ts1, blockerBody())
	var ids []string
	for i := 0; i < 3; i++ {
		quotes := i == 0
		st, _ := postJob(t, ts1, fusionJobBody("direct", 5, 800, 20, quotes, ""))
		ids = append(ids, st.ID)
	}
	before := make(map[string][]byte)
	for _, id := range ids {
		st := waitState(t, ts1, id, JobDone, JobFailed)
		if st.State != string(JobDone) {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		if !st.Fused {
			t.Fatalf("job %s did not fuse", id)
		}
		body, code := readBody(t, ts1.URL+"/v1/jobs/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("result %s: %d", id, code)
		}
		before[id] = body
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{JobWorkers: 1, FuseWait: 300 * time.Millisecond, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s2.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	for id, want := range before {
		st := waitState(t, ts2, id, JobDone)
		if st.Fused {
			// The fused flag is advisory and not journaled; recovery
			// reports the job unfused.
			t.Fatalf("recovered job %s still reports fused", id)
		}
		body, code := readBody(t, ts2.URL+"/v1/jobs/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("recovered result %s: %d", id, code)
		}
		if string(body) != string(want) {
			t.Fatalf("job %s: recovered result bytes differ from first life", id)
		}
	}
}
