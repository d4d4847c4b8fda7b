package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"github.com/ralab/are/internal/core"
	"github.com/ralab/are/internal/spec"
)

// ShardRequest asks a worker to execute trials [Lo, Hi) of a job
// (POST /v1/shards). The job spec travels with every shard: workers are
// stateless between requests, and the spec is also the cache identity
// under which the worker reuses its generated shard and compiled
// engine.
type ShardRequest struct {
	Job *spec.Job `json:"job"`
	Lo  int       `json:"lo"`
	Hi  int       `json:"hi"`

	// WantYLT is ignored: every shard ships its Year Loss Tables, the
	// only thing a coordinator renders from. The field stays so that
	// older callers still compile and decode.
	WantYLT bool `json:"wantYlt,omitempty"`
}

// Validate checks the request structurally.
func (r *ShardRequest) Validate() error {
	if r.Job == nil {
		return fmt.Errorf("dist: shard request needs a job")
	}
	if err := r.Job.Validate(); err != nil {
		return err
	}
	if r.Lo < 0 || r.Hi > r.Job.YET.Trials || r.Lo >= r.Hi {
		return fmt.Errorf("dist: shard range [%d, %d) outside job's %d trials", r.Lo, r.Hi, r.Job.YET.Trials)
	}
	return nil
}

// ShardResult is one executed shard: its materialised Year Loss
// Tables over [Lo, Hi), plus the facts of how the worker ran it.
type ShardResult struct {
	Lo       int            `json:"lo"`
	Hi       int            `json:"hi"`
	LayerIDs []uint32       `json:"layerIds"`
	YLT      *core.YLTState `json:"ylt,omitempty"`

	ElapsedMS    int64 `json:"elapsedMs"`
	YETCached    bool  `json:"yetCached"`
	EngineCached bool  `json:"engineCached"`
}

// RegisterRequest announces a worker to the coordinator
// (POST /v1/cluster/workers). URL is the base the coordinator will
// dial for shard requests; Capacity is how many shards the worker
// accepts concurrently (<= 0 means 1).
type RegisterRequest struct {
	URL      string `json:"url"`
	Capacity int    `json:"capacity,omitempty"`
}

// RegisterResponse acknowledges registration with the worker's assigned
// ID and the heartbeat interval the coordinator expects.
type RegisterResponse struct {
	ID          string `json:"id"`
	HeartbeatMS int64  `json:"heartbeatMs"`
}

// WorkerStatus is one worker's row in GET /v1/cluster.
type WorkerStatus struct {
	ID           string `json:"id"`
	URL          string `json:"url"`
	Capacity     int    `json:"capacity"`
	Alive        bool   `json:"alive"`
	RegisteredAt string `json:"registeredAt"`
	LastSeen     string `json:"lastSeen"`
	ShardsDone   int64  `json:"shardsDone"`
	ShardsFailed int64  `json:"shardsFailed"`
}

// ClusterStatus is the coordinator's introspection surface
// (GET /v1/cluster).
type ClusterStatus struct {
	Workers        []WorkerStatus `json:"workers"`
	Alive          int            `json:"alive"`
	WorkerTTLMS    int64          `json:"workerTtlMs"`
	ShardTrials    int            `json:"shardTrials"`
	MaxAttempts    int            `json:"maxAttempts"`
	JobsDispatched int64          `json:"jobsDispatched"`
	ShardsDone     int64          `json:"shardsDone"`
	ShardsRetried  int64          `json:"shardsRetried"`
}

// reqBufPool recycles the request-body encode buffers: heartbeats and
// shard dispatches repeat for the life of the cluster, so the protocol
// should not allocate a fresh body per call.
var reqBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// newJSONRequest builds a POST with in encoded through a pooled buffer
// and an explicit Content-Length. The caller must return the buffer to
// the pool once the request has completed (the body reader aliases it).
func newJSONRequest(ctx context.Context, url string, in any) (*http.Request, *bytes.Buffer, error) {
	buf := reqBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(in); err != nil {
		reqBufPool.Put(buf)
		return nil, nil, fmt.Errorf("dist: encode %s: %w", url, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf.Bytes()))
	if err != nil {
		reqBufPool.Put(buf)
		return nil, nil, fmt.Errorf("dist: request %s: %w", url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = int64(buf.Len())
	return req, buf, nil
}

// checkStatus surfaces a non-2xx reply as a *StatusError; on success
// the body is left unread for the caller to decode.
func checkStatus(resp *http.Response, url string) error {
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return &StatusError{Code: resp.StatusCode, URL: url, Body: strings.TrimSpace(string(msg))}
}

// postJSON is the protocol's plain HTTP verb: POST in as JSON, decode a
// 2xx response into out (when non-nil), surface non-2xx bodies as
// errors.
func postJSON(ctx context.Context, client *http.Client, url string, in, out any) error {
	req, buf, err := newJSONRequest(ctx, url, in)
	if err != nil {
		return err
	}
	defer reqBufPool.Put(buf)
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("dist: post %s: %w", url, err)
	}
	defer resp.Body.Close()
	if err := checkStatus(resp, url); err != nil {
		return err
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("dist: decode %s: %w", url, err)
	}
	return nil
}

// postShard dispatches one shard request, negotiating the binary result
// format: the request advertises it via Accept, and the decode follows
// the response's Content-Type — a worker that answers JSON (older
// build, or any non-negotiating server) is decoded exactly as before.
func postShard(ctx context.Context, client *http.Client, url string, in ShardRequest) (*ShardResult, error) {
	req, buf, err := newJSONRequest(ctx, url, &in)
	if err != nil {
		return nil, err
	}
	defer reqBufPool.Put(buf)
	req.Header.Set("Accept", ShardMediaType+", application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dist: post %s: %w", url, err)
	}
	defer resp.Body.Close()
	if err := checkStatus(resp, url); err != nil {
		return nil, err
	}
	if ct := resp.Header.Get("Content-Type"); strings.HasPrefix(ct, ShardMediaType) {
		res, err := DecodeShardResult(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("dist: decode %s: %w", url, err)
		}
		return res, nil
	}
	res := new(ShardResult)
	if err := json.NewDecoder(resp.Body).Decode(res); err != nil {
		return nil, fmt.Errorf("dist: decode %s: %w", url, err)
	}
	return res, nil
}

// StatusError is a non-2xx protocol reply.
type StatusError struct {
	Code int
	URL  string
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("dist: %s returned %d: %s", e.URL, e.Code, e.Body)
}

// RegisterWorker announces a worker to a coordinator, returning the
// assigned ID and expected heartbeat cadence. The worker role's
// registration loop calls this at startup and again whenever a
// heartbeat reports the coordinator no longer knows it (restart).
func RegisterWorker(ctx context.Context, client *http.Client, coordinatorURL string, req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := postJSON(ctx, client, strings.TrimRight(coordinatorURL, "/")+"/v1/cluster/workers", req, &resp)
	return resp, err
}

// HeartbeatWorker refreshes a worker's liveness lease on the
// coordinator. A 404 (wrapped as *StatusError) means the coordinator
// forgot the worker and it must re-register.
func HeartbeatWorker(ctx context.Context, client *http.Client, coordinatorURL, id string) error {
	url := strings.TrimRight(coordinatorURL, "/") + "/v1/cluster/workers/" + id + "/heartbeat"
	return postJSON(ctx, client, url, struct{}{}, nil)
}
