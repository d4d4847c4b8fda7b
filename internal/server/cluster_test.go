package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/dist"
	"github.com/ralab/are/internal/spec"
)

// startWorkerServer spins one worker-role ared over httptest.
func startWorkerServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Role = RoleWorker
	return testServer(t, cfg)
}

// registerWorker registers a worker URL with a coordinator over HTTP.
func registerWorker(t *testing.T, coord *httptest.Server, workerURL string) dist.RegisterResponse {
	t.Helper()
	body, _ := json.Marshal(dist.RegisterRequest{URL: workerURL, Capacity: 2})
	resp, err := http.Post(coord.URL+"/v1/cluster/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	var rr dist.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

func clusterStatus(t *testing.T, coord *httptest.Server) dist.ClusterStatus {
	t.Helper()
	resp, err := http.Get(coord.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cs dist.ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestClusterEndToEnd drives the whole HTTP surface: three worker
// processes, one coordinator, a quoted job submitted to the ordinary
// jobs API. The coordinator must shard it, reassemble the shards' YLTs,
// and render a result byte-identical to RunLocal's.
func TestClusterEndToEnd(t *testing.T) {
	coordSrv, coordTS := testServer(t, Config{
		Role:        RoleCoordinator,
		JobWorkers:  2,
		ShardTrials: 300,
	})
	for i := 0; i < 3; i++ {
		_, wts := startWorkerServer(t, Config{JobWorkers: 2})
		registerWorker(t, coordTS, wts.URL)
	}
	cs := clusterStatus(t, coordTS)
	if cs.Alive != 3 || len(cs.Workers) != 3 {
		t.Fatalf("cluster status %+v", cs)
	}
	if coordSrv.Coordinator() == nil {
		t.Fatal("coordinator accessor nil in coordinator role")
	}

	body := jobBody(303, 2000, 25, true)
	st, resp := postJob(t, coordTS, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	fin := waitState(t, coordTS, st.ID, JobDone, JobFailed, JobCancelled)
	if fin.State != string(JobDone) {
		t.Fatalf("cluster job ended %s (%s)", fin.State, fin.Error)
	}
	got, _ := getResult(t, coordTS, st.ID)
	if got == nil {
		t.Fatal("no cluster result")
	}
	if got.Shards < 3 || got.WorkersUsed < 2 {
		t.Fatalf("result shards=%d workersUsed=%d, want a real fan-out", got.Shards, got.WorkersUsed)
	}

	// Reference: the same job through RunLocal. Every number renders
	// from the reassembled YLT, which is bitwise the local one, so the
	// bodies agree byte for byte once the per-run fields are cleared.
	js, err := spec.ParseJob(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := RunLocal(context.Background(), artifact.NewCache(8), js)
	if err != nil {
		t.Fatal(err)
	}
	if got.Layers[0].Quote == nil {
		t.Fatal("cluster result carries no quotes")
	}
	canon := func(r JobResult) []byte {
		r.ID, r.ElapsedMS, r.Shards, r.Retried, r.WorkersUsed = "", 0, 0, 0, 0
		return encodeResultBytes(&r)
	}
	if g, w := canon(*got), canon(*want); !bytes.Equal(g, w) {
		t.Fatalf("cluster result differs from RunLocal:\n cluster %s\n local   %s", g, w)
	}

	// Cluster metrics surface the dispatch counters.
	mresp, err := http.Get(coordTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mtext, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mtext), "ared_cluster_workers_alive 3") {
		t.Fatalf("metrics missing cluster gauges:\n%s", mtext)
	}
}

// TestWorkerSelfRegistration: a worker configured with a coordinator
// URL must appear in the registry by itself and keep its lease alive
// through heartbeats.
func TestWorkerSelfRegistration(t *testing.T) {
	_, coordTS := testServer(t, Config{
		Role:      RoleCoordinator,
		WorkerTTL: 500 * time.Millisecond,
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	advertise := "http://" + ln.Addr().String()
	wsrv, err := New(Config{
		Role:           RoleWorker,
		CoordinatorURL: coordTS.URL,
		AdvertiseURL:   advertise,
		JobWorkers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: wsrv.Handler()}}
	wts.Start()
	t.Cleanup(func() {
		wts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = wsrv.Shutdown(ctx)
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		cs := clusterStatus(t, coordTS)
		if cs.Alive == 1 && cs.Workers[0].URL == advertise {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered: %+v", cs)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Stay past the TTL: heartbeats must keep the lease alive.
	time.Sleep(700 * time.Millisecond)
	if cs := clusterStatus(t, coordTS); cs.Alive != 1 {
		t.Fatalf("worker lease lapsed despite heartbeats: %+v", cs)
	}
}

// TestWorkerRoleConfig: a registering worker needs an advertise URL,
// and unknown roles are rejected.
func TestWorkerRoleConfig(t *testing.T) {
	if _, err := New(Config{Role: RoleWorker, CoordinatorURL: "http://x"}); err == nil {
		t.Fatal("worker with coordinator but no advertise URL accepted")
	}
	if _, err := New(Config{Role: "sharder"}); err == nil {
		t.Fatal("unknown role accepted")
	}
}

// TestShardEndpointDirect exercises the worker's /v1/shards contract:
// 200 with a well-formed result, 400 on garbage, and absence outside
// the worker role.
func TestShardEndpointDirect(t *testing.T) {
	_, wts := startWorkerServer(t, Config{JobWorkers: 1, MaxTrials: 10_000})

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(wts.URL+"/v1/shards", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	shardBody := fmt.Sprintf(`{"job": %s, "lo": 10, "hi": 60}`, jobBody(5, 500, 10, false))
	resp, body := post(shardBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard: %d %s", resp.StatusCode, body)
	}
	var res dist.ShardResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Lo != 10 || res.Hi != 60 || len(res.LayerIDs) != 1 || res.YLT == nil {
		t.Fatalf("shard result %+v", res)
	}
	if res.YLT.NumTrials != 50 || len(res.YLT.AggLoss) != 1 || len(res.YLT.AggLoss[0]) != 50 {
		t.Fatalf("shard YLT %d trials, want 50", res.YLT.NumTrials)
	}

	for name, bad := range map[string]string{
		"garbage":  `{"job": 12}`,
		"badRange": fmt.Sprintf(`{"job": %s, "lo": 400, "hi": 300}`, jobBody(5, 500, 10, false)),
		"overCap":  fmt.Sprintf(`{"job": %s, "lo": 0, "hi": 10}`, jobBody(5, 50_000, 10, false)),
		"unknownF": `{"job": null, "nope": 1}`,
	} {
		if resp, _ := post(bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// Single-role servers must not expose the endpoint at all.
	_, sts := testServer(t, Config{JobWorkers: 1})
	resp2, err := http.Post(sts.URL+"/v1/shards", "application/json", strings.NewReader(shardBody))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("single-role /v1/shards: %d, want 404", resp2.StatusCode)
	}
}

// TestListFilterAndCounts covers the jobs listing satellite: per-state
// counts always reflect every job while ?state= narrows the rows, and
// junk filters are rejected.
func TestListFilterAndCounts(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1})
	st1, _ := postJob(t, ts, jobBody(41, 200, 10, false))
	waitState(t, ts, st1.ID, JobDone)
	st2, _ := postJob(t, ts, jobBody(42, 200, 10, false))
	waitState(t, ts, st2.ID, JobDone)

	type listResp struct {
		Jobs   []Status       `json:"jobs"`
		Counts map[string]int `json:"counts"`
	}
	get := func(query string) (listResp, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var lr listResp
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
				t.Fatal(err)
			}
		}
		return lr, resp.StatusCode
	}

	all, code := get("")
	if code != http.StatusOK || len(all.Jobs) != 2 {
		t.Fatalf("unfiltered: %d jobs, status %d", len(all.Jobs), code)
	}
	if all.Counts["done"] != 2 || all.Counts["total"] != 2 {
		t.Fatalf("counts %+v", all.Counts)
	}

	done, code := get("?state=done")
	if code != http.StatusOK || len(done.Jobs) != 2 || done.Counts["total"] != 2 {
		t.Fatalf("state=done: %+v status %d", done, code)
	}
	running, code := get("?state=running")
	if code != http.StatusOK || len(running.Jobs) != 0 || running.Counts["total"] != 2 {
		t.Fatalf("state=running: %+v status %d", running, code)
	}
	if _, code := get("?state=sideways"); code != http.StatusBadRequest {
		t.Fatalf("bad filter: status %d, want 400", code)
	}
}

// TestHealthzDrainingAndDrainLog covers the shutdown satellite: while
// (and after) draining, /healthz answers 503 "draining", and the drain
// accounting is logged.
func TestHealthzDrainingAndDrainLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s, err := New(Config{JobWorkers: 1, Logf: func(f string, a ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(f, a...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	health := func() (string, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
			Role   string `json:"role"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Role != RoleSingle {
			t.Fatalf("healthz role %q", body.Role)
		}
		return body.Status, resp.StatusCode
	}

	if st, code := health(); st != "ok" || code != http.StatusOK {
		t.Fatalf("healthy: %s %d", st, code)
	}

	st, _ := postJob(t, ts, jobBody(55, 400, 10, false))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	waitState(t, ts, st.ID, JobDone, JobCancelled)

	if hs, code := health(); hs != "draining" || code != http.StatusServiceUnavailable {
		t.Fatalf("draining health: %s %d, want draining 503", hs, code)
	}

	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, l := range lines {
		if strings.Contains(l, "drained") && strings.Contains(l, "force-cancelled") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no drain accounting logged: %q", lines)
	}
}
