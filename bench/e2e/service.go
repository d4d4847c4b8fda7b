package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/ralab/are/internal/server"
	"github.com/ralab/are/internal/tenant"
)

// apiKey is the one tenant's key: auth is on, as a deployment runs it, with
// no quota set so that no job is ever refused.
const (
	tenantName = "bench"
	apiKey     = "bench-e2e-api-key-0123456789"
)

func newTenants() (*tenant.Registry, error) {
	return tenant.Parse([]byte(fmt.Sprintf(`{"tenants":[{"name":%q,"key":%q}]}`, tenantName, apiKey)))
}

// system is the service under test: one single-role server, or a durable
// coordinator with two worker-role servers, in this process behind real
// loopback listeners. Everything ared would be given is given: default
// fuse-wait and cache size, a data dir and a spill dir, a tenant registry.
type system struct {
	url     string // the server clients talk to
	dir     string
	servers []*server.Server
	https   []*httptest.Server
}

// startSystem brings the workload's service up under a fresh directory
// below tmp.
func startSystem(w *workload, sz sizes, tmp string) (*system, error) {
	dir, err := os.MkdirTemp(tmp, "sut-")
	if err != nil {
		return nil, err
	}
	s := &system{dir: dir}
	reg, err := newTenants()
	if err != nil {
		s.close()
		return nil, err
	}
	front := server.Config{
		JobWorkers:    w.jobWorkers,
		EngineWorkers: w.engineWorkers,
		DataDir:       filepath.Join(dir, "data"),
		SpillDir:      filepath.Join(dir, "spill"),
		Tenants:       reg,
	}
	if !w.cluster {
		if _, err := s.serve(front, ""); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	front.Role = server.RoleCoordinator
	front.ShardTrials = sz.shardTrials
	front.JobWorkers, front.EngineWorkers = 0, 0 // the coordinator runs no engine
	coord, err := s.serve(front, "")
	if err != nil {
		s.close()
		return nil, err
	}
	const nodes = 2
	for i := 0; i < nodes; i++ {
		_, err := s.serve(server.Config{
			Role:           server.RoleWorker,
			CoordinatorURL: s.url,
			JobWorkers:     w.jobWorkers,
			EngineWorkers:  w.engineWorkers,
			SpillDir:       filepath.Join(dir, fmt.Sprintf("spill-w%d", i)),
		}, "worker")
		if err != nil {
			s.close()
			return nil, err
		}
	}
	// Workers register from their own goroutines; set-up ends when the
	// coordinator sees both.
	deadline := time.Now().Add(10 * time.Second)
	for coord.Coordinator().Status().Alive < nodes {
		if time.Now().After(deadline) {
			s.close()
			return nil, errors.New("bench: workers did not register within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// serve starts one server on its own loopback listener. The listener is
// bound first because a worker must advertise its URL at construction.
// The first server started is the one clients talk to.
func (s *system) serve(cfg server.Config, role string) (*server.Server, error) {
	ts := httptest.NewUnstartedServer(nil)
	url := "http://" + ts.Listener.Addr().String()
	if role == "worker" {
		cfg.AdvertiseURL = url
	}
	srv, err := server.New(cfg)
	if err != nil {
		ts.Close()
		return nil, err
	}
	ts.Config.Handler = srv.Handler()
	ts.Start()
	s.servers = append(s.servers, srv)
	s.https = append(s.https, ts)
	if s.url == "" {
		s.url = url
	}
	return srv, nil
}

// close stops every server, waits for them, and removes the directory.
func (s *system) close() {
	for _, ts := range s.https {
		ts.CloseClientConnections()
		ts.Close()
	}
	for _, srv := range s.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = srv.Shutdown(ctx) // nothing is queued; a drain error has no consequence here
		cancel()
	}
	os.RemoveAll(s.dir)
}

// client drives the job API over one kept-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+apiKey)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.hc.Do(req)
}

// submit POSTs one job and returns its ID.
func (c *client) submit(body []byte) (string, error) {
	resp, err := c.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st server.Status
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("submit: decode status: %w", err)
	}
	return st.ID, nil
}

// await blocks on the job's event stream until the terminal event and
// returns that status. It never polls: the server pushes.
func (c *client) await(id string) (server.Status, error) {
	var st server.Status
	resp, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events: %s", resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			if jerr := json.Unmarshal(data, &st); jerr != nil {
				return st, fmt.Errorf("events: decode status: %w", jerr)
			}
		}
		if err == io.EOF {
			break // the server closes the stream after the terminal event
		}
		if err != nil {
			return st, fmt.Errorf("events: %w", err)
		}
	}
	if st.State != string(server.JobDone) {
		return st, fmt.Errorf("job %s ended %q: %s", id, st.State, st.Error)
	}
	return st, nil
}

// result fetches and decodes a finished job's result, returning the raw
// body too.
func (c *client) result(id string) ([]byte, *server.JobResult, error) {
	resp, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("result: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("result: %s", resp.Status)
	}
	var res server.JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, nil, fmt.Errorf("result: decode: %w", err)
	}
	return raw, &res, nil
}

// served is one completed job as its client saw it. The three instants
// are wall-clock readings, comparable with the timestamps the server stamps
// into the status because both come from this process's clock.
type served struct {
	id                 string
	body               []byte    // the job's request body
	traced             bool      // record this job's spans
	t0, notified, tEnd time.Time // first byte sent, terminal event read, result decoded
	status             server.Status
	raw                []byte
	res                *server.JobResult
}

func (d *served) ms() float64 { return float64(d.tEnd.Sub(d.t0)) / 1e6 }

// collect waits for a submitted job and fetches its result.
func (c *client) collect(d *served) error {
	st, err := c.await(d.id)
	if err != nil {
		return err
	}
	d.notified, d.status = time.Now(), st
	d.raw, d.res, err = c.result(d.id)
	d.tEnd = time.Now()
	return err
}

// run is one whole job: POST, block on the event stream, fetch the result.
func (c *client) run(body []byte, traced bool) (*served, error) {
	d := &served{body: body, traced: traced, t0: time.Now()}
	var err error
	if d.id, err = c.submit(body); err != nil {
		return d, err
	}
	return d, c.collect(d)
}

// trace adds the job's client-side span tree. Its five children tile the
// job span: http.submit runs from the first byte sent to the instant the
// server stamped the job submitted (the rest of the POST's round trip
// overlaps the queue), and http.result from the terminal event to the
// decoded result.
func (d *served) trace(tr *tracer) error {
	var err error
	parse := func(s string) time.Time {
		t, perr := time.Parse(time.RFC3339Nano, s)
		if perr != nil && err == nil {
			err = fmt.Errorf("job %s: status timestamp %q: %w", d.id, s, perr)
		}
		return t
	}
	submitted, started, finished := parse(d.status.SubmittedAt), parse(d.status.StartedAt), parse(d.status.FinishedAt)
	if err != nil {
		return err
	}
	job := tr.add("job", 0, d.id, d.t0, d.tEnd)
	tr.add("http.submit", job, d.id, d.t0, submitted)
	tr.add("server.queue", job, d.id, submitted, started)
	tr.add("server.run", job, d.id, started, finished)
	tr.add("server.notify", job, d.id, finished, d.notified)
	tr.add("http.result", job, d.id, d.notified, d.tEnd)
	return nil
}

// scrape reads the named counters from GET /metrics.
func (c *client) scrape(names ...string) (map[string]float64, error) {
	resp, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		for _, want := range names {
			if name == want {
				if out[name], err = strconv.ParseFloat(val, 64); err != nil {
					return nil, fmt.Errorf("metrics: %s: %w", name, err)
				}
			}
		}
	}
	return out, sc.Err()
}
