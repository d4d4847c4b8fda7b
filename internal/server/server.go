// Package server implements ared, the analysis service layer over the
// engine: a long-running HTTP daemon that multiplexes many concurrent
// aggregate-risk analyses across one process — and, in its cluster
// roles, across many processes.
//
// The paper frames the aggregate risk engine as the core of a production
// analytics system that a reinsurer runs continuously — underwriters
// re-quote layers in real time while portfolio managers roll up group
// risk — and this package is that operational shell. Clients POST
// analysis jobs (an inline portfolio spec, a Year Event Table spec, and
// the metrics wanted back) to a JSON API; a bounded worker pool runs
// each batch of compatible jobs through one engine pass into per-job
// Year Loss Tables and renders every metric from them (a lone job is
// the batch of one; see fused.go); job
// status (including live trial-level progress), results, cancellation,
// health and Prometheus-style metrics are all HTTP resources.
//
// Three design points carry the load:
//
//   - Shared-artifact caching (artifact.Cache): YET generation and
//     portfolio compilation dominate small-job latency, and both are
//     deterministic in their specs. Artifacts are therefore cached under
//     the SHA-256 of the spec's canonical JSON with singleflight
//     semantics, so any number of concurrent jobs describing the same
//     table or portfolio trigger exactly one build.
//   - Bounded concurrency (scheduler): JobWorkers jobs run at once, each
//     with its own engine worker pool; the rest queue (QueueDepth deep,
//     then 503). A running job holds its YLT column, 16 B per (trial,
//     layer, variant) drawn from a recycled slab pool, and MaxTrials
//     bounds its trials.
//   - Cooperative cancellation: every job owns a context. DELETE on a
//     job, or server shutdown, cancels it; the engine's pipeline polls
//     contexts between trial spans, so cancellation and shutdown are
//     prompt without poisoning shared state.
//
// Cluster roles (internal/dist holds the machinery): a worker serves
// POST /v1/shards — one trial shard of a job, executed through the same
// artifact cache as direct jobs — and keeps itself registered with its
// coordinator; a coordinator accepts ordinary job submissions but fans
// each job's trial range out across the registered workers and
// reassembles their shards' YLTs, exposing the registry at GET
// /v1/cluster.
//
// See docs/api.md for the wire contract, docs/architecture.md for where
// the service sits in the system, and docs/distributed.md for the
// cluster protocol.
package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/dist"
	"github.com/ralab/are/internal/store"
	"github.com/ralab/are/internal/tenant"
)

// Roles a server process can play.
const (
	RoleSingle      = "single"
	RoleWorker      = "worker"
	RoleCoordinator = "coordinator"
)

// Config sizes the service.
type Config struct {
	// Addr is the listen address for ListenAndServe (e.g. ":8321").
	Addr string

	// Role selects the process's cluster position: "" or "single" (the
	// default) runs jobs locally; "worker" additionally serves
	// POST /v1/shards and keeps itself registered with CoordinatorURL;
	// "coordinator" fans submitted jobs out across registered workers
	// and serves GET /v1/cluster.
	Role string

	// CoordinatorURL is the coordinator base URL a worker registers
	// with (worker role; empty skips self-registration, for clusters
	// whose operator registers workers out of band).
	CoordinatorURL string

	// AdvertiseURL is the base URL a worker announces for shard
	// dispatch — how the coordinator reaches it, which may differ from
	// Addr behind NAT or a service mesh.
	AdvertiseURL string

	// ShardTrials is the coordinator's target trials per shard; 0
	// selects the dist default (25000).
	ShardTrials int

	// MaxShardAttempts is how many workers one shard may be tried on
	// before the job fails; 0 selects the dist default (3).
	MaxShardAttempts int

	// WorkerTTL is how long past its last heartbeat the coordinator
	// still dispatches to a worker; 0 selects the dist default (15s).
	WorkerTTL time.Duration

	// ShardTimeout bounds one shard's dispatch round trip (coordinator
	// role); 0 selects the dist default (5m). Lowering it makes a
	// coordinator recover quickly from workers that accept connections
	// but never answer — a partitioned or wedged worker costs one
	// timeout, then the shard is requeued elsewhere.
	ShardTimeout time.Duration

	// JobWorkers is the number of jobs that run concurrently; 0 selects
	// 2. Each job additionally runs EngineWorkers engine goroutines. In
	// the worker role it also bounds concurrently executing shards.
	JobWorkers int

	// QueueDepth is how many submitted jobs may wait behind the running
	// ones before submissions are refused with 503; 0 selects 64.
	QueueDepth int

	// FuseWait bounds how long the admission planner lets a freshly
	// popped head job wait for fusable batchmates (same base artifacts,
	// same effective worker count, combined variants within the sweep
	// budget) before running: the latency bound that lets bursts
	// coalesce into one gather pass without starving interactive jobs.
	// 0 selects 2ms; negative disables cross-job fusion entirely (every
	// job runs solo). Ignored in the coordinator role, where jobs fan
	// out per job.
	FuseWait time.Duration

	// EngineWorkers is the default per-job engine worker count when the
	// job does not name one; 0 selects GOMAXPROCS / JobWorkers (so a
	// fully loaded pool saturates the machine without oversubscribing).
	EngineWorkers int

	// MaxTrials caps yet.trials per job at submission time; 0 means no
	// cap.
	MaxTrials int

	// CacheEntries bounds the shared-artifact cache; 0 selects 64.
	CacheEntries int

	// SpillDir, when non-empty, enables the zero-copy table path:
	// generated Year Event Tables are serialised once into this
	// directory and served to all jobs (and shard executions) as views
	// of shared read-only file mappings instead of per-job heap decodes.
	// The directory is created if absent and doubles as a warm table
	// cache across restarts. Empty keeps tables on the heap.
	SpillDir string

	// MaxJobsRetained bounds the job registry: once exceeded, the
	// oldest finished jobs (and their results) are evicted, so a
	// long-running daemon's memory scales with its retention window,
	// not its lifetime traffic. 0 selects 1000. Queued and running jobs
	// are never evicted.
	MaxJobsRetained int

	// ShutdownGrace is how long Shutdown waits for queued and running
	// jobs to drain before force-cancelling them; 0 selects 10s.
	ShutdownGrace time.Duration

	// DataDir, when non-empty, makes the job table durable: every job
	// lifecycle transition is journaled to an append-only log under this
	// directory (created if absent), and a restarting daemon replays it —
	// finished jobs come back serving their exact recorded result bytes,
	// jobs the previous process left queued or running are requeued under
	// their original IDs and re-run. Empty keeps the job table in memory
	// only (the historical behaviour).
	DataDir string

	// StoreCompactBytes overrides the journal size at which the durable
	// store compacts (rewrites the log as just the live job table);
	// 0 selects the store default (8 MiB). Only meaningful with DataDir.
	StoreCompactBytes int64

	// Tenants, when non-nil, turns on multi-tenant auth: the job
	// endpoints require a configured API key (Authorization: Bearer or
	// X-API-Key), jobs are owned by the submitting tenant, and each
	// tenant's concurrency and rate quotas are enforced ahead of
	// submission with 429 + Retry-After. Nil keeps the API open.
	Tenants *tenant.Registry

	// Logf, when non-nil, receives operational log lines (registration
	// failures, shutdown drain accounting). Nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() error {
	switch c.Role {
	case "", RoleSingle:
		c.Role = RoleSingle
	case RoleWorker, RoleCoordinator:
	default:
		return fmt.Errorf("server: unknown role %q (want single, worker or coordinator)", c.Role)
	}
	if c.Role == RoleWorker && c.CoordinatorURL != "" && c.AdvertiseURL == "" {
		return fmt.Errorf("server: worker role with a coordinator needs AdvertiseURL")
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.FuseWait == 0 {
		c.FuseWait = 2 * time.Millisecond
	}
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = max(1, runtime.GOMAXPROCS(0)/c.JobWorkers)
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.MaxJobsRetained <= 0 {
		c.MaxJobsRetained = 1000
	}
	return nil
}

// serverMetrics are the atomic counters behind GET /metrics.
type serverMetrics struct {
	start           time.Time
	httpRequests    atomic.Int64
	jobsSubmitted   atomic.Int64
	jobsCompleted   atomic.Int64
	jobsFailed      atomic.Int64
	jobsCancelled   atomic.Int64
	jobsRunning     atomic.Int64
	trialsProcessed atomic.Int64
	shardsServed    atomic.Int64
	shardsFailed    atomic.Int64

	// Cross-job fusion accounting: fusedBatches counts executed fused
	// passes (batch size >= 2), fusedJobs the jobs that rode them, and
	// batchSizes observes every admission batch the planner hands a
	// worker — size 1 included, so the histogram shows how often
	// traffic actually coalesces.
	fusedBatches atomic.Int64
	fusedJobs    atomic.Int64
	batchSizes   batchHistogram

	// tenants holds per-tenant counters, created lazily on first touch;
	// tmu guards the map only (the counters themselves are atomics).
	tmu     sync.Mutex
	tenants map[string]*tenantCounters
}

// batchBuckets are the histogram's upper bounds; the variant budget
// (spec.MaxSweepVariants) caps real batches at the last bucket.
var batchBuckets = [...]int64{1, 2, 4, 8, 16, 32, 64}

// batchHistogram is a Prometheus-style cumulative histogram over
// admission batch sizes, all atomics so the hot path never locks.
type batchHistogram struct {
	buckets [len(batchBuckets)]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

func (h *batchHistogram) observe(n int) {
	for i, le := range batchBuckets {
		if int64(n) <= le {
			h.buckets[i].Add(1)
		}
	}
	h.count.Add(1)
	h.sum.Add(int64(n))
}

// tenantCounters are one tenant's labelled counters: job lifecycle
// outcomes, quota rejections, and the tenant's artifact-cache
// consumption (artifacts stay shared and immutable across tenants;
// only the accounting is per tenant).
type tenantCounters struct {
	submitted  atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
	cancelled  atomic.Int64
	rejected   atomic.Int64
	fused      atomic.Int64 // jobs admitted to fused passes
	cacheHits  atomic.Int64
	cacheMiss  atomic.Int64
	cacheBytes atomic.Int64
}

// tenantCounters returns (creating if needed) the named tenant's
// counter block.
func (m *serverMetrics) tenantCounters(name string) *tenantCounters {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	if m.tenants == nil {
		m.tenants = make(map[string]*tenantCounters)
	}
	tc, ok := m.tenants[name]
	if !ok {
		tc = &tenantCounters{}
		m.tenants[name] = tc
	}
	return tc
}

// tenantSnapshot returns the tenant names with live counters, sorted
// for stable /metrics output.
func (m *serverMetrics) tenantSnapshot() []string {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Server is the ared HTTP service: a scheduler plus its API surface.
// Construct with New; serve either via ListenAndServe or by mounting
// Handler on a listener of your own (httptest does the latter).
type Server struct {
	cfg     Config
	cache   *artifact.Cache
	sched   *scheduler
	coord   *dist.Coordinator // non-nil in the coordinator role
	store   *store.Store      // non-nil in durable mode (Config.DataDir)
	tenants *tenant.Registry  // non-nil when auth is on (Config.Tenants)
	metrics *serverMetrics
	handler http.Handler
}

// New builds a server and starts its job workers (and, for a worker
// with a CoordinatorURL, its registration loop). Callers must
// eventually Shutdown to stop them.
func New(cfg Config) (*Server, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	m := &serverMetrics{start: time.Now()}
	cache := artifact.NewCache(cfg.CacheEntries)
	if err := cache.SetSpillDir(cfg.SpillDir); err != nil {
		return nil, err
	}
	var coord *dist.Coordinator
	if cfg.Role == RoleCoordinator {
		coord = dist.NewCoordinator(dist.Config{
			ShardTrials:    cfg.ShardTrials,
			MaxAttempts:    cfg.MaxShardAttempts,
			WorkerTTL:      cfg.WorkerTTL,
			RequestTimeout: cfg.ShardTimeout,
		})
	}
	var st *store.Store
	if cfg.DataDir != "" {
		var err error
		st, err = store.Open(cfg.DataDir, store.Options{
			CompactBytes: cfg.StoreCompactBytes,
			Retain:       cfg.MaxJobsRetained,
		})
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		coord:   coord,
		store:   st,
		tenants: cfg.Tenants,
		metrics: m,
	}
	s.sched = newScheduler(cfg, cache, coord, m, st, cfg.Tenants)
	if st != nil {
		sm := st.Metrics()
		s.logf("ared: durable store %s: %d jobs recovered (%d requeued), %d tail bytes dropped",
			cfg.DataDir, sm.RecoveredJobs, sm.RecoveredInterrupted, sm.DroppedTailBytes)
	}
	s.handler = s.routes()
	if cfg.Role == RoleWorker && cfg.CoordinatorURL != "" {
		go s.registerLoop()
	}
	return s, nil
}

// logf writes one operational log line if a logger was configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// registerLoop keeps the worker registered with its coordinator for the
// life of the server: register, heartbeat at the coordinator's cadence,
// and re-register whenever the coordinator stops recognising us (a
// restart wipes its registry). Runs until the scheduler shuts down.
func (s *Server) registerLoop() {
	ctx := s.sched.baseCtx
	client := &http.Client{Timeout: 10 * time.Second}
	var id string
	every := 5 * time.Second
	for {
		if id == "" {
			resp, err := dist.RegisterWorker(ctx, client, s.cfg.CoordinatorURL, dist.RegisterRequest{
				URL:      s.cfg.AdvertiseURL,
				Capacity: s.cfg.JobWorkers,
			})
			if err != nil {
				s.logf("ared: worker registration with %s failed: %v", s.cfg.CoordinatorURL, err)
			} else {
				id = resp.ID
				if resp.HeartbeatMS > 0 {
					every = time.Duration(resp.HeartbeatMS) * time.Millisecond
				}
				s.logf("ared: registered with %s as %s (heartbeat %v)", s.cfg.CoordinatorURL, id, every)
			}
		} else if err := dist.HeartbeatWorker(ctx, client, s.cfg.CoordinatorURL, id); err != nil {
			s.logf("ared: heartbeat as %s failed: %v", id, err)
			if se, ok := err.(*dist.StatusError); ok && se.Code == http.StatusNotFound {
				id = "" // coordinator restarted; re-register next tick
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(every):
		}
	}
}

// Coordinator exposes the cluster registry in the coordinator role
// (nil otherwise); tests and embedders register in-process workers
// through it.
func (s *Server) Coordinator() *dist.Coordinator { return s.coord }

// Handler returns the full API surface, ready to mount on any listener.
func (s *Server) Handler() http.Handler { return s.handler }

// Shutdown stops intake (submissions get 503 and /healthz reports
// draining), drains queued and running jobs within ctx's deadline, then
// force-cancels whatever remains. It returns nil on a clean drain and
// ctx's error if force cancellation was needed; either way the drained
// versus force-cancelled job counts are logged through Config.Logf.
func (s *Server) Shutdown(ctx context.Context) error {
	stats, err := s.sched.shutdown(ctx)
	s.logf("ared: shutdown: %d jobs drained, %d force-cancelled", stats.Drained, stats.ForceCancelled)
	if s.store != nil {
		// After the drain: every terminal transition is journaled by
		// now, and Close is idempotent for repeated Shutdowns.
		if cerr := s.store.Close(); cerr != nil {
			s.logf("ared: store close: %v", cerr)
		}
	}
	return err
}

// Listen binds the API listener on cfg.Addr without serving yet. The
// split from Serve exists so a caller can fail fast (and loudly) on a
// port that is already bound, and so an ":0" address resolves to its
// real port — ln.Addr() — before the first request can arrive. cmd/ared
// announces that resolved address on stdout, which is what lets a test
// harness start daemons on OS-assigned ports without races.
func (s *Server) Listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	return ln, nil
}

// Serve serves the API on ln until ctx is cancelled, then shuts down
// gracefully exactly as ListenAndServe does.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// conns tracks each open connection's state so a shutdown whose
	// grace expired can tell a request cut off mid-flight from a
	// connection that never carried one: net/http's Shutdown only counts
	// a connection still in StateNew (a client's pre-dialed spare) as
	// idle once it is 5s old, and that alone is no unclean drain.
	var (
		connMu sync.Mutex
		conns  = make(map[net.Conn]http.ConnState)
	)
	hs := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
		ConnState: func(c net.Conn, st http.ConnState) {
			connMu.Lock()
			defer connMu.Unlock()
			if st == http.StateClosed || st == http.StateHijacked {
				delete(conns, c)
				return
			}
			conns[c] = st
		},
	}
	busy := func() bool {
		connMu.Lock()
		defer connMu.Unlock()
		for _, st := range conns {
			if st == http.StateActive {
				return true
			}
		}
		return false
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	httpErr := hs.Shutdown(grace)
	if httpErr != nil && !busy() {
		hs.Close() // only never-used connections remain; nothing is cut off
		httpErr = nil
	}
	jobErr := s.Shutdown(grace)
	if httpErr != nil {
		return httpErr
	}
	return jobErr
}

// ListenAndServe is Listen followed by Serve: the API on cfg.Addr until
// ctx is cancelled, then a graceful shutdown (the HTTP server stops
// accepting connections and the scheduler drains within ShutdownGrace).
// The returned error is nil on a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := s.Listen()
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Addr returns the configured listen address.
func (s *Server) Addr() string { return s.cfg.Addr }
