package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ralab/are/internal/core"
	"github.com/ralab/are/internal/metrics"
	"github.com/ralab/are/internal/pricing"
	"github.com/ralab/are/internal/spec"
	"github.com/ralab/are/internal/yet"
)

// testServer starts a server over httptest and tears both down with the
// test.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Tests may leave deliberately oversized jobs behind; the
		// force-cancel path (Shutdown returning ctx.Err()) is fine here.
		if err := s.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// jobBody builds a job request with the shared test YET spec.
func jobBody(seed uint64, trials, fixedEvents int, quotes bool) string {
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
	  "workers": 1
	}`, seed, trials, fixedEvents, quotes)
}

func postJob(t *testing.T, ts *httptest.Server, body string) (Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches any of the given states.
func waitState(t *testing.T, ts *httptest.Server, id string, states ...JobState) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		for _, s := range states {
			if st.State == string(s) {
				return st
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %v in time", id, states)
	return Status{}
}

func getResult(t *testing.T, ts *httptest.Server, id string) (*JobResult, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp
	}
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return &res, resp
}

// The cornerstone: a job run through the service must match the
// equivalent direct library run exactly — every reported number is
// rendered from the materialised YLT, which is bitwise identical.
func TestJobMatchesDirectRun(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 2})
	body := jobBody(42, 2000, 40, true)
	st, resp := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitState(t, ts, st.ID, JobDone)
	res, _ := getResult(t, ts, st.ID)
	if res == nil || len(res.Layers) != 1 {
		t.Fatalf("result = %+v", res)
	}

	// Direct run of the identical spec through the library.
	j, err := spec.ParseJob(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	p, cs, err := j.BuildPortfolio()
	if err != nil {
		t.Fatal(err)
	}
	table, err := yet.Generate(yet.UniformSource(cs), j.YET.ToConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(p, cs, core.LookupDirect)
	if err != nil {
		t.Fatal(err)
	}
	full := core.NewFullYLT()
	if _, err := eng.RunPipeline(core.NewTableSource(table), full, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	ylt := full.Result().YLT(0)
	sum, err := metrics.Summarise(ylt)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Layers[0]
	if got.Summary.Trials != sum.Trials {
		t.Fatalf("trials = %d, want %d", got.Summary.Trials, sum.Trials)
	}
	if got.Summary.Mean != sum.Mean || got.Summary.StdDev != sum.StdDev {
		t.Fatalf("AAL/stddev = %v/%v, want %v/%v", got.Summary.Mean, got.Summary.StdDev, sum.Mean, sum.StdDev)
	}
	q, err := pricing.Price(ylt, pricing.Config{OccLimit: p.Layers[0].LTerms.OccLimit})
	if err != nil {
		t.Fatal(err)
	}
	if got.Quote == nil {
		t.Fatal("quote missing")
	}
	if got.Quote.TechnicalPremium != q.TechnicalPremium || got.Quote.TVaR99 != q.TVaR99 {
		t.Fatalf("quote = %+v, want %+v", got.Quote, q)
	}
	curve, err := metrics.NewEPCurve(ylt)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range got.EP {
		if pt.ReturnPeriod != 100 {
			continue
		}
		exact, err := curve.PML(100)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Loss != exact {
			t.Fatalf("PML(100) = %v, exact %v", pt.Loss, exact)
		}
	}
}

// Parallel submission of jobs sharing one YET spec: every job completes
// and the YET is generated exactly once (one cache miss, the rest hits
// or singleflight joins).
func TestParallelSubmissionSharedYET(t *testing.T) {
	s, ts := testServer(t, Config{JobWorkers: 4, QueueDepth: 32})
	const n = 6
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := postJob(t, ts, jobBody(7, 500, 20, false))
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		st := waitState(t, ts, id, JobDone, JobFailed, JobCancelled)
		if st.State != string(JobDone) {
			t.Fatalf("job %s: state %s (%s)", id, st.State, st.Error)
		}
	}
	hits, misses := s.cache.Stats()
	// Three artifacts (portfolio, engine, yet) and n identical jobs:
	// exactly 3 misses total, everything else joined the cache. Only the
	// engine and yet entries are read per job (the portfolio is folded
	// into the cached engine), so hits come from those two keys.
	if misses != 3 {
		t.Fatalf("cache misses = %d, want 3 (hits %d)", misses, hits)
	}
	if hits != 2*(n-1) {
		t.Fatalf("cache hits = %d, want %d", hits, 2*(n-1))
	}
	// The result must also report whether its artifacts were cached.
	var sawCached bool
	for _, id := range ids {
		res, _ := getResult(t, ts, id)
		if res.YETCached {
			sawCached = true
		}
	}
	if !sawCached {
		t.Fatal("no job reported a YET cache hit")
	}
}

// Cancellation mid-run: the engine must unwind promptly and the job must
// land in cancelled, with its result gone (410).
func TestCancelMidJob(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1})
	// Warm the caches so the victim job spends its life in the engine.
	st, _ := postJob(t, ts, jobBody(9, 100, 20, false))
	waitState(t, ts, st.ID, JobDone)

	st, _ = postJob(t, ts, jobBody(9, 60000, 150, false))
	waitState(t, ts, st.ID, JobRunning)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	fin := waitState(t, ts, st.ID, JobCancelled, JobDone)
	if fin.State == string(JobDone) {
		t.Skip("job finished before the cancel landed; too fast to observe")
	}
	if _, resp := getResult(t, ts, st.ID); resp.StatusCode != http.StatusGone {
		t.Fatalf("result of cancelled job: status %d, want 410", resp.StatusCode)
	}
}

// A job cancelled while still queued must go straight to cancelled
// without running.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, QueueDepth: 8})
	// Occupy the single worker.
	blocker, _ := postJob(t, ts, jobBody(13, 20000, 100, false))
	victim, _ := postJob(t, ts, jobBody(14, 20000, 100, false))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	st := waitState(t, ts, victim.ID, JobCancelled, JobDone)
	if st.State == string(JobDone) {
		t.Skip("blocker finished before the cancel landed; victim already ran")
	}
	if st.State != string(JobCancelled) {
		t.Fatalf("victim state = %s, want cancelled", st.State)
	}
	// Unblock the worker quickly for teardown.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// Validation and routing error paths must map to the right 4xx codes.
func TestHTTPErrorPaths(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, MaxTrials: 1000})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"portfolio": `, http.StatusBadRequest},
		{"missing portfolio", `{"yet": {"trials": 10, "meanEvents": 5}}`, http.StatusBadRequest},
		{"unknown field", `{"portfolioo": {}, "yet": {"trials": 10}}`, http.StatusBadRequest},
		{"zero trials", strings.Replace(jobBody(1, 10, 10, false), `"trials": 10`, `"trials": 0`, 1), http.StatusBadRequest},
		{"over trial cap", jobBody(1, 5000, 10, false), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, resp := postJob(t, ts, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}

	t.Run("unknown job 404", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/jobs/j-999999")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
	})

	t.Run("result before done 409", func(t *testing.T) {
		st, _ := postJob(t, ts, jobBody(21, 1000, 100, false))
		if _, resp := getResult(t, ts, st.ID); resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 409 (or 200 if already done)", resp.StatusCode)
		}
		waitState(t, ts, st.ID, JobDone)
	})
}

// A full queue must refuse with 503, not block the handler.
func TestQueueFull503(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, QueueDepth: 1})
	// One running + one queued saturates the system.
	a, _ := postJob(t, ts, jobBody(31, 20000, 100, false))
	b, _ := postJob(t, ts, jobBody(32, 20000, 100, false))
	_ = b
	deadline := time.Now().Add(10 * time.Second)
	got := 0
	for time.Now().Before(deadline) {
		_, resp := postJob(t, ts, jobBody(33, 20000, 100, false))
		if resp.StatusCode == http.StatusServiceUnavailable {
			got = resp.StatusCode
			break
		}
		// A worker drained the queue between the submissions; retry.
		time.Sleep(time.Millisecond)
	}
	if got != http.StatusServiceUnavailable {
		t.Fatal("never observed a 503 from a saturated queue")
	}
	// Cancel what we queued so teardown is fast.
	for _, id := range []string{a.ID, b.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}

// healthz and metrics must serve, and metrics must expose the cache and
// job counters.
func TestHealthAndMetrics(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1})
	st, _ := postJob(t, ts, jobBody(51, 200, 20, false))
	waitState(t, ts, st.ID, JobDone)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	io.Copy(&buf, resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"ared_jobs_submitted_total 1",
		"ared_jobs_completed_total 1",
		"ared_cache_misses_total 3",
		"ared_trials_processed_total 200",
		"ared_http_requests_total",
		"ared_uptime_seconds",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q in:\n%s", want, buf.String())
		}
	}
}

// List must return all jobs in submission order with live progress
// fields present.
func TestListJobs(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 2})
	a, _ := postJob(t, ts, jobBody(61, 200, 20, false))
	b, _ := postJob(t, ts, jobBody(62, 200, 20, false))
	waitState(t, ts, a.ID, JobDone)
	waitState(t, ts, b.ID, JobDone)
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	// Newest first: the most recent submission leads the listing.
	if len(list.Jobs) != 2 || list.Jobs[0].ID != b.ID || list.Jobs[1].ID != a.ID {
		t.Fatalf("list = %+v", list.Jobs)
	}
	for _, j := range list.Jobs {
		if j.State != string(JobDone) || j.Progress != 1 || j.TotalTrials != 200 {
			t.Fatalf("job %+v not a completed status", j)
		}
	}
}

// Shutdown must drain cleanly: running jobs finish, new submissions get
// 503, and a second shutdown is a no-op.
func TestGracefulShutdown(t *testing.T) {
	s, err := New(Config{JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, _ := postJob(t, ts, jobBody(71, 2000, 50, false))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The in-flight job must have drained to a terminal state.
	fin := getStatus(t, ts, st.ID)
	if fin.State != string(JobDone) && fin.State != string(JobCancelled) {
		t.Fatalf("after shutdown: state %s", fin.State)
	}
	if _, resp := postJob(t, ts, jobBody(72, 100, 10, false)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: %d, want 503", resp.StatusCode)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// Two jobs with byte-identical yet specs but different catalog sizes
// must NOT share a generated table — the catalog size is part of the
// YET's identity (events are drawn from [0, catalogSize)).
func TestYETCacheKeyedByCatalog(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1})
	mk := func(catalog int) string {
		return fmt.Sprintf(`{
		  "portfolio": {
		    "catalogSize": %d,
		    "elts": [{"id": 1, "generate": {"seed": 11, "numRecords": 200}}],
		    "layers": [{"id": 1, "elts": [1]}]
		  },
		  "yet": {"seed": 5, "trials": 200, "fixedEvents": 20}
		}`, catalog)
	}
	a, _ := postJob(t, ts, mk(20000))
	if st := waitState(t, ts, a.ID, JobDone, JobFailed); st.State != string(JobDone) {
		t.Fatalf("job A: %s (%s)", st.State, st.Error)
	}
	// Smaller catalog: reusing A's table would fail validation (events
	// outside the catalog); larger catalog: reuse would silently draw
	// from the wrong range. Both must regenerate and succeed.
	for _, catalog := range []int{500, 80000} {
		b, resp := postJob(t, ts, mk(catalog))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit catalog=%d: %d", catalog, resp.StatusCode)
		}
		if st := waitState(t, ts, b.ID, JobDone, JobFailed); st.State != string(JobDone) {
			t.Fatalf("job catalog=%d: %s (%s)", catalog, st.State, st.Error)
		}
		res, _ := getResult(t, ts, b.ID)
		if res.YETCached {
			t.Fatalf("catalog=%d reused a table generated for catalog=20000", catalog)
		}
	}
}

// The job registry must stay bounded: finished jobs beyond the
// retention cap are evicted oldest-first, and their results 404.
func TestFinishedJobRetention(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, MaxJobsRetained: 3})
	var ids []string
	for i := 0; i < 5; i++ {
		st, resp := postJob(t, ts, jobBody(81, 100, 10, false))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
		waitState(t, ts, st.ID, JobDone)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) > 3 {
		t.Fatalf("registry holds %d jobs, want <= 3", len(list.Jobs))
	}
	// The oldest job must be gone, the newest still present.
	if _, resp := getResult(t, ts, ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job result: %d, want 404", resp.StatusCode)
	}
	if res, _ := getResult(t, ts, ids[len(ids)-1]); res == nil {
		t.Fatal("newest job was evicted")
	}
}
