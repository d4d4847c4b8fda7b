package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/core"
	"github.com/ralab/are/internal/dist"
	"github.com/ralab/are/internal/layer"
	"github.com/ralab/are/internal/metrics"
	"github.com/ralab/are/internal/pricing"
	"github.com/ralab/are/internal/spec"
	"github.com/ralab/are/internal/store"
	"github.com/ralab/are/internal/tenant"
	"github.com/ralab/are/internal/yet"
)

// JobState is the lifecycle state of a submitted analysis.
type JobState string

// Job lifecycle: queued -> running -> done | failed | cancelled. A
// queued job that is cancelled skips running entirely. Interrupted is
// the durable-mode recovery state: a job the previous process left
// queued or running is requeued under its original ID and runs again —
// it is "queued with a history", and transitions exactly like queued.
const (
	JobQueued      JobState = "queued"
	JobRunning     JobState = "running"
	JobDone        JobState = "done"
	JobFailed      JobState = "failed"
	JobCancelled   JobState = "cancelled"
	JobInterrupted JobState = "interrupted"
)

// Scheduler errors.
var (
	ErrQueueFull    = errors.New("server: job queue full")
	ErrShuttingDown = errors.New("server: shutting down")
	ErrUnknownJob   = errors.New("server: unknown job")
	ErrJobFinished  = errors.New("server: job already finished")
	ErrStore        = errors.New("server: durable store write failed")
)

// Job is one submitted analysis and its run state. Mutable fields are
// guarded by mu; progress uses an atomic so the hot Progress hook never
// contends with status reads.
type Job struct {
	ID     string
	Spec   *spec.Job
	Tenant string // owning tenant's name; "" when auth is off

	// fuseKey groups jobs the admission planner may run in one fused
	// pass: equal keys mean identical base artifacts (portfolio,
	// lookup, YET — hence trial range) and identical effective worker
	// count. Empty means the job never fuses (distributed role, fusion
	// disabled, or an unhashable spec). Immutable after creation.
	fuseKey string
	// variants is the job's contribution to a fused pass's variant
	// budget: 1 for a plain job, the variant count for a sweep.
	// Immutable after creation.
	variants int

	mu    sync.Mutex
	state JobState
	err   string
	// fused marks a job that ran as part of a multi-job fused pass of
	// fusedBatch jobs. Status-only: the journaled result bytes must
	// stay bitwise-identical to a solo run, so this never enters
	// JobResult.
	fused      bool
	fusedBatch int
	submitted  time.Time
	started    time.Time
	finished   time.Time
	result     *JobResult
	// raw is the encoded result body (with trailing newline) served
	// verbatim by handleResult. Durable mode fills it at completion —
	// the same bytes go into the journal, which is what makes a done
	// job's result bitwise-stable across restarts.
	raw []byte
	// specRaw is the submitted body as journaled (durable mode only).
	specRaw []byte
	// watch is closed and replaced on every state or progress change;
	// nil until the first SSE subscriber asks (lazy, so jobs nobody
	// watches pay one nil check per transition).
	watch chan struct{}
	// tenantRef holds the admission slot released exactly once at the
	// terminal transition.
	tenantRef *tenant.Tenant

	total      int
	trialsDone atomic.Int64

	cancel context.CancelFunc
	ctx    context.Context
}

// changed returns a channel closed at the job's next state or progress
// change. Subscribers must call changed BEFORE snapshotting Status —
// subscribing after would miss a transition landing between the
// snapshot and the wait.
func (j *Job) changed() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.watch == nil {
		j.watch = make(chan struct{})
	}
	return j.watch
}

// notifyLocked wakes every changed() subscriber. Caller holds j.mu.
func (j *Job) notifyLocked() {
	if j.watch != nil {
		close(j.watch)
		j.watch = nil
	}
}

// poke is notifyLocked for callers outside j.mu (the progress hook).
func (j *Job) poke() {
	j.mu.Lock()
	j.notifyLocked()
	j.mu.Unlock()
}

// releaseQuotaLocked frees the job's tenant admission slot, exactly
// once per admitted job. Caller holds j.mu; tenant's own lock never
// takes a job lock, so the ordering is safe.
func (j *Job) releaseQuotaLocked() {
	if j.tenantRef != nil {
		j.tenantRef.Release()
		j.tenantRef = nil
	}
}

// Status is the wire form of a job's state (GET /v1/jobs/{id}).
type Status struct {
	ID          string  `json:"id"`
	State       string  `json:"state"`
	SubmittedAt string  `json:"submittedAt"`
	StartedAt   string  `json:"startedAt,omitempty"`
	FinishedAt  string  `json:"finishedAt,omitempty"`
	TrialsDone  int     `json:"trialsDone"`
	TotalTrials int     `json:"totalTrials"`
	Progress    float64 `json:"progress"` // 0..1, 1 exactly when finished
	// Fused reports that the job ran inside a multi-job fused pass of
	// FusedBatch jobs. Advisory (not journaled): a job recovered after
	// a restart reports unfused even if its first life fused.
	Fused      bool   `json:"fused,omitempty"`
	FusedBatch int    `json:"fusedBatch,omitempty"`
	Error      string `json:"error,omitempty"`
}

// JobResult is the wire form of a completed analysis
// (GET /v1/jobs/{id}/result). Shards, Retried and WorkersUsed are
// populated only for jobs a coordinator fanned out across the cluster.
// Variants is populated only for sweep jobs: one entry per requested
// variant, in request order (Layers then carries variant 0 — the view
// closest to the plain job — so existing clients keep working).
type JobResult struct {
	ID           string          `json:"id"`
	Trials       int             `json:"trials"`
	ElapsedMS    int64           `json:"elapsedMs"`
	YETCached    bool            `json:"yetCached"`
	EngineCached bool            `json:"engineCached"`
	Shards       int             `json:"shards,omitempty"`
	Retried      int             `json:"retried,omitempty"`
	WorkersUsed  int             `json:"workersUsed,omitempty"`
	Layers       []LayerResult   `json:"layers"`
	Variants     []VariantResult `json:"variants,omitempty"`
}

// VariantResult carries one sweep variant's per-layer metrics.
type VariantResult struct {
	Index  int           `json:"index"`
	Name   string        `json:"name"`
	Layers []LayerResult `json:"layers"`
}

// LayerResult carries one layer's metrics.
type LayerResult struct {
	ID         uint32      `json:"id"`
	Name       string      `json:"name"`
	Summary    SummaryJSON `json:"summary"`    // aggregate (YLT) moments
	OccSummary SummaryJSON `json:"occSummary"` // per-trial max occurrence loss moments
	EP         []PointJSON `json:"ep"`         // aggregate exceedance (AEP) points
	OEP        []PointJSON `json:"oep"`        // occurrence exceedance (OEP) points
	Quote      *QuoteJSON  `json:"quote,omitempty"`
}

// SummaryJSON mirrors metrics.Summary.
type SummaryJSON struct {
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stdDev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Trials int     `json:"trials"`
}

// PointJSON mirrors metrics.Point.
type PointJSON struct {
	ReturnPeriod float64 `json:"returnPeriod"`
	Prob         float64 `json:"prob"`
	Loss         float64 `json:"loss"`
}

// QuoteJSON mirrors pricing.Quote.
type QuoteJSON struct {
	ExpectedLoss     float64 `json:"expectedLoss"`
	StdDev           float64 `json:"stdDev"`
	RiskLoad         float64 `json:"riskLoad"`
	ExpenseLoad      float64 `json:"expenseLoad"`
	TechnicalPremium float64 `json:"technicalPremium"`
	RateOnLine       float64 `json:"rateOnLine"`
	PML100           float64 `json:"pml100"`
	TVaR99           float64 `json:"tvar99"`
}

func summaryJSON(s metrics.Summary) SummaryJSON {
	return SummaryJSON{Mean: s.Mean, StdDev: s.StdDev, Min: s.Min, Max: s.Max, Trials: s.Trials}
}

func pointsJSON(pts []metrics.Point) []PointJSON {
	out := make([]PointJSON, len(pts))
	for i, p := range pts {
		out[i] = PointJSON{ReturnPeriod: p.ReturnPeriod, Prob: p.Prob, Loss: p.Loss}
	}
	return out
}

// Status snapshots the job for the API.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.ID,
		State:       string(j.state),
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
		TrialsDone:  int(j.trialsDone.Load()),
		TotalTrials: j.total,
		Fused:       j.fused,
		FusedBatch:  j.fusedBatch,
		Error:       j.err,
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	switch {
	case j.state == JobDone:
		st.Progress = 1
	case j.total > 0:
		st.Progress = float64(st.TrialsDone) / float64(j.total)
	}
	return st
}

// scheduler runs submitted jobs on a bounded worker pool. Submissions
// land in an explicit admission queue; jobWorkers goroutines drain it
// for the life of the server, each asking the admission planner
// (nextBatch) for the head job plus any queued jobs fusable with it.
// Artifacts (YETs, compiled engines) come from the shared cache, so the
// pool's concurrency multiplies throughput without multiplying
// generation work, and fusion multiplies it again by pricing N
// compatible jobs in one gather pass.
type scheduler struct {
	cfg     Config
	cache   *artifact.Cache
	metrics *serverMetrics
	coord   *dist.Coordinator // non-nil in coordinator role: jobs fan out to the cluster
	store   *store.Store      // non-nil in durable mode: lifecycle transitions journal through it
	tenants *tenant.Registry  // non-nil when auth is on: recovery re-attaches quota slots

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// execSem bounds concurrent engine executions across BOTH direct
	// jobs and shard requests (worker role): `-job-workers` is the one
	// knob an operator sizes the machine with, so mixed traffic must
	// not stack two separate pools on top of it. A fused batch holds
	// one slot however many jobs it carries — that IS the throughput
	// win.
	execSem chan struct{}

	draining atomic.Bool // set once shutdown begins; /healthz reports it

	mu        sync.Mutex
	accepting bool
	seq       int
	jobs      map[string]*Job
	order     []string // submission order, for listing
	// pending is the admission queue, head first. Guarded by mu so the
	// planner can scan and splice it; depth is bounded by cfg.QueueDepth
	// at submit time (recovery may exceed it transiently).
	pending []*Job
	// arrival is closed and replaced whenever pending grows or intake
	// stops — a broadcast that wakes planners waiting for batchmates or
	// for work.
	arrival chan struct{}
}

// DrainStats is shutdown's accounting: of the jobs that were queued or
// running when shutdown began, how many finished their work (drained)
// versus were cancelled (force-cancelled, including queued jobs that
// never started).
type DrainStats struct {
	Drained        int
	ForceCancelled int
}

func newScheduler(cfg Config, cache *artifact.Cache, coord *dist.Coordinator, m *serverMetrics, st *store.Store, tenants *tenant.Registry) *scheduler {
	ctx, cancel := context.WithCancel(context.Background())
	var recovered []*store.JobRecord
	if st != nil {
		recovered = st.Recovered()
	}
	s := &scheduler{
		cfg:        cfg,
		cache:      cache,
		metrics:    m,
		coord:      coord,
		store:      st,
		tenants:    tenants,
		baseCtx:    ctx,
		baseCancel: cancel,
		execSem:    make(chan struct{}, cfg.JobWorkers),
		accepting:  true,
		jobs:       make(map[string]*Job),
		arrival:    make(chan struct{}),
	}
	for _, rec := range recovered {
		s.recoverJob(rec)
	}
	for i := 0; i < cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *scheduler) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// jobSeq parses the numeric tail of a "j-%06d" job ID. Recovery seeds
// the sequence from the journal's maximum so a restarted daemon never
// hands out an ID that collides with a recovered job.
func jobSeq(id string) int {
	tail, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(tail)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// recoverJob rebuilds one journaled job at startup (before workers or
// the listener exist, so no locks are needed). Terminal records become
// finished jobs serving their journaled result bytes verbatim —
// bitwise-identical to what the previous life served. Submitted and
// running records requeue under their original IDs in the interrupted
// state: the deterministic engine plus the artifact cache make the
// re-run produce the same result the crash interrupted.
func (s *scheduler) recoverJob(rec *store.JobRecord) {
	if n := jobSeq(rec.ID); n > s.seq {
		s.seq = n
	}
	j := &Job{
		ID:        rec.ID,
		Tenant:    rec.Tenant,
		submitted: rec.Submitted,
		started:   rec.Started,
		finished:  rec.Finished,
		specRaw:   rec.Spec,
	}
	js, perr := spec.ParseJob(bytes.NewReader(rec.Spec))
	if perr == nil {
		j.Spec = js
		j.total = js.YET.Trials
	}
	switch {
	case rec.State == store.StateDone:
		j.state = JobDone
		j.raw = rec.Result
		j.trialsDone.Store(int64(j.total))
		j.cancel = func() {}
	case rec.State == store.StateFailed:
		j.state = JobFailed
		j.err = rec.Error
		j.cancel = func() {}
	case rec.State == store.StateCancelled:
		j.state = JobCancelled
		j.cancel = func() {}
	case perr != nil:
		// The journaled spec no longer parses (format drift across an
		// upgrade). Failing the job visibly beats silently dropping an
		// accepted submission.
		j.state = JobFailed
		j.err = "recovery: journaled spec unparsable: " + perr.Error()
		j.finished = time.Now()
		j.cancel = func() {}
		if serr := s.store.Failed(j.ID, j.finished, j.err); serr != nil {
			s.logf("store: failed %s: %v", j.ID, serr)
		}
	default: // submitted or running: requeue for a re-run
		ctx, cancel := context.WithCancel(s.baseCtx)
		j.ctx, j.cancel = ctx, cancel
		j.state = JobInterrupted
		j.started = time.Time{} // not running yet in this life
		j.fuseKey, j.variants = s.fuseKeyFor(js)
		if s.tenants != nil {
			if tn, ok := s.tenants.Lookup(rec.Tenant); ok {
				// The job was admitted (and journaled) in a previous
				// life; it occupies concurrency again but spends no
				// fresh rate token.
				tn.Reacquire()
				j.tenantRef = tn
			}
		}
		// Workers do not exist yet, so appending needs no arrival
		// broadcast, and pending may exceed QueueDepth here: every
		// interrupted job must requeue even if the previous life ran
		// with a deeper queue than this one.
		s.pending = append(s.pending, j)
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
}

// submit enqueues a validated job and returns it, or ErrQueueFull /
// ErrShuttingDown / ErrStore. raw is the submitted body for the
// journal (nil when the server is not durable); tn is the admitting
// tenant whose quota slot the job now holds (nil when auth is off) —
// on error the caller releases the slot.
func (s *scheduler) submit(js *spec.Job, raw []byte, tn *tenant.Tenant) (*Job, error) {
	var tenantName string
	if tn != nil {
		tenantName = tn.Name
	}
	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	// Refuse before burning a sequence number or journaling.
	if len(s.pending) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.seq++
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		ID:        fmt.Sprintf("j-%06d", s.seq),
		Spec:      js,
		Tenant:    tenantName,
		tenantRef: tn,
		state:     JobQueued,
		submitted: time.Now(),
		total:     js.YET.Trials,
		ctx:       ctx,
		cancel:    cancel,
	}
	j.fuseKey, j.variants = s.fuseKeyFor(js)
	if s.store != nil {
		// Journal before the job becomes runnable: once the client has
		// its 202 the job must survive a crash, and a Started record
		// must never precede its Submitted record.
		if err := s.store.Submitted(j.ID, tenantName, raw, j.submitted); err != nil {
			s.mu.Unlock()
			cancel()
			return nil, fmt.Errorf("%w: %v", ErrStore, err)
		}
		j.specRaw = raw
	}
	s.enqueueLocked(j)
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.evictFinishedLocked()
	s.mu.Unlock()
	s.metrics.jobsSubmitted.Add(1)
	if tenantName != "" {
		s.metrics.tenantCounters(tenantName).submitted.Add(1)
	}
	return j, nil
}

// enqueueLocked appends j to the admission queue and wakes every
// planner waiting on arrivals. Caller holds s.mu.
func (s *scheduler) enqueueLocked(j *Job) {
	s.pending = append(s.pending, j)
	close(s.arrival)
	s.arrival = make(chan struct{})
}

// queueLen reports the admission queue depth (for /healthz and
// /metrics).
func (s *scheduler) queueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// evictFinishedLocked drops the oldest terminal jobs (and their
// results) once the registry exceeds cfg.MaxJobsRetained, so a
// long-running daemon's memory is bounded by its retention window
// rather than its lifetime traffic. Queued and running jobs are never
// evicted. Caller holds s.mu.
func (s *scheduler) evictFinishedLocked() {
	excess := len(s.jobs) - s.cfg.MaxJobsRetained
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		evict := false
		if excess > 0 {
			j.mu.Lock()
			switch j.state {
			case JobDone, JobFailed, JobCancelled:
				evict = true
			}
			j.mu.Unlock()
		}
		if evict {
			delete(s.jobs, id)
			excess--
		} else {
			kept = append(kept, id)
		}
	}
	s.order = kept
}

// get returns a job by ID.
func (s *scheduler) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// listJobs snapshots the registry newest-first — the listing order:
// the most recently submitted job is the one a client is most likely
// paging for, and a stable descending order makes the `after` cursor
// deterministic under concurrent submissions.
func (s *scheduler) listJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		out = append(out, s.jobs[s.order[i]])
	}
	return out
}

// tenantTerminal bumps the owning tenant's terminal-state counter.
func (s *scheduler) tenantTerminal(name string, final JobState) {
	if name == "" {
		return
	}
	tc := s.metrics.tenantCounters(name)
	switch final {
	case JobDone:
		tc.completed.Add(1)
	case JobFailed:
		tc.failed.Add(1)
	case JobCancelled:
		tc.cancelled.Add(1)
	}
}

// cancelJob requests cancellation. Queued (and recovered interrupted)
// jobs are marked cancelled immediately; running jobs get their context
// cancelled and transition when the engine unwinds. Finished jobs
// return ErrJobFinished.
func (s *scheduler) cancelJob(id string) (*Job, error) {
	j, ok := s.get(id)
	if !ok {
		return nil, ErrUnknownJob
	}
	j.mu.Lock()
	switch j.state {
	case JobDone, JobFailed, JobCancelled:
		j.mu.Unlock()
		return j, ErrJobFinished
	case JobQueued, JobInterrupted:
		now := time.Now()
		if s.store != nil {
			// Journal before publishing: no observer may see a terminal
			// state the journal could lose.
			if err := s.store.Cancelled(j.ID, now); err != nil {
				s.logf("store: cancelled %s: %v", j.ID, err)
			}
		}
		j.state = JobCancelled
		j.finished = now
		s.metrics.jobsCancelled.Add(1)
		s.tenantTerminal(j.Tenant, JobCancelled)
		j.releaseQuotaLocked()
		j.notifyLocked()
	}
	j.mu.Unlock()
	j.cancel() // running worker unwinds via RunPipelineContext
	return j, nil
}

// shutdown stops intake, drains the queue, and waits for workers. If ctx
// expires before the drain completes, running jobs are force-cancelled
// and the wait resumes (the pipeline polls its context, so this is
// prompt). The returned stats classify every job that was still open
// when shutdown began: finished normally (drained) or cancelled.
func (s *scheduler) shutdown(ctx context.Context) (DrainStats, error) {
	s.draining.Store(true)
	s.mu.Lock()
	s.accepting = false
	// Wake idle planners so they observe the closed intake and exit
	// once pending drains.
	close(s.arrival)
	s.arrival = make(chan struct{})
	// Snapshot the jobs shutdown must dispose of, for the drain report.
	var open []*Job
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == JobQueued || j.state == JobRunning || j.state == JobInterrupted {
			open = append(open, j)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var expired error
	select {
	case <-done:
	case <-ctx.Done():
		expired = ctx.Err()
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	// A forced stop makes planners exit via baseCtx without draining
	// the queue; mark whatever is still pending cancelled so no job is
	// stranded reporting "queued" forever.
	s.mu.Lock()
	stranded := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, j := range stranded {
		j.mu.Lock()
		if j.state == JobQueued || j.state == JobInterrupted {
			now := time.Now()
			if s.store != nil {
				// A graceful shutdown disposes of its stragglers
				// durably; only a crash leaves jobs to recover.
				if serr := s.store.Cancelled(j.ID, now); serr != nil {
					s.logf("store: cancelled %s: %v", j.ID, serr)
				}
			}
			j.state = JobCancelled
			j.finished = now
			s.metrics.jobsCancelled.Add(1)
			s.tenantTerminal(j.Tenant, JobCancelled)
			j.releaseQuotaLocked()
			j.notifyLocked()
		}
		j.mu.Unlock()
	}
	var stats DrainStats
	for _, j := range open {
		j.mu.Lock()
		switch j.state {
		case JobDone, JobFailed:
			stats.Drained++
		default:
			stats.ForceCancelled++
		}
		j.mu.Unlock()
	}
	// An expired ctx is an unclean drain only if it cut a job short: with
	// nothing open, the planners merely had not yet observed the closed
	// intake when the deadline was checked.
	if stats.ForceCancelled == 0 {
		expired = nil
	}
	return stats, expired
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		batch := s.nextBatch()
		if batch == nil {
			return
		}
		s.runBatch(batch)
	}
}

// start transitions a batch member from queued (or interrupted) to
// running, journaling its own Started record — each fused job's journal
// trail is exactly a solo job's. Returns false for a job cancelled
// while queued, which therefore never runs.
func (s *scheduler) start(j *Job) bool {
	j.mu.Lock()
	if j.state != JobQueued && j.state != JobInterrupted { // cancelled while queued
		j.mu.Unlock()
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	if s.store != nil {
		// Journaled inside the same critical section that publishes the
		// state, so "running" can never be observed before it is
		// recorded. Started records are not fsynced — losing one to a
		// power cut only means the job replays as submitted.
		if err := s.store.Started(j.ID, j.started); err != nil {
			s.logf("store: started %s: %v", j.ID, err)
		}
	}
	j.notifyLocked()
	j.mu.Unlock()
	s.metrics.jobsRunning.Add(1)
	return true
}

// finish journals and publishes a started job's terminal state. Every
// job that passed start() must reach finish exactly once — that pairs
// the jobsRunning gauge and releases the tenant's quota slot exactly
// once, fused or not.
func (s *scheduler) finish(j *Job, res *JobResult, err error) {
	var final JobState
	switch {
	case err == nil:
		final = JobDone
	case errors.Is(err, context.Canceled):
		final = JobCancelled
	default:
		final = JobFailed
	}
	// Encode the result body outside the lock: the journaled bytes ARE
	// the response handleResult serves, which is what makes a done
	// job's result bitwise-stable across crash and restart.
	var raw []byte
	if final == JobDone && s.store != nil {
		raw = encodeResultBytes(res)
	}
	now := time.Now()
	j.mu.Lock()
	j.finished = now
	if s.store != nil {
		// Journal (with fsync) before publishing the terminal state: a
		// client that reads "done" must find the job done after any
		// crash. A failed journal write degrades durability, not
		// service — log and serve from memory.
		var serr error
		switch final {
		case JobDone:
			serr = s.store.Done(j.ID, now, raw)
			j.raw = raw
		case JobCancelled:
			serr = s.store.Cancelled(j.ID, now)
		case JobFailed:
			serr = s.store.Failed(j.ID, now, err.Error())
		}
		if serr != nil {
			s.logf("store: %s %s: %v", final, j.ID, serr)
		}
	}
	j.state = final
	switch final {
	case JobDone:
		j.result = res
		s.metrics.jobsCompleted.Add(1)
		s.metrics.trialsProcessed.Add(int64(res.Trials))
	case JobCancelled:
		s.metrics.jobsCancelled.Add(1)
	case JobFailed:
		j.err = err.Error()
		s.metrics.jobsFailed.Add(1)
	}
	s.tenantTerminal(j.Tenant, final)
	j.releaseQuotaLocked()
	j.notifyLocked()
	j.mu.Unlock()
	j.cancel()
	s.metrics.jobsRunning.Add(-1)
}

// jobArtifacts is the prelude of the local execution path: the cached
// compile/generation products plus the engine options a job runs
// under.
type jobArtifacts struct {
	art               *artifact.Engine
	table             *yet.Table
	engineHit, yetHit bool
	opt               core.Options
}

// prepare fetches the job's artifacts from the shared cache and builds
// its engine options, attributing cache traffic to the job's tenant.
// Artifacts stay shared and immutable across tenants (the cache key is
// the spec hash, never the tenant); only the accounting is per tenant:
// hit/miss per artifact lookup, plus the job's table bytes walked
// (yet.OccurrenceBytes per occurrence) as the tenant's data-plane
// consumption.
func (s *scheduler) prepare(j *Job) (*jobArtifacts, error) {
	a, err := prepareLocal(j.ctx, s.cache, j.Spec, s.cfg.EngineWorkers, j.progress())
	if err == nil && j.Tenant != "" {
		tc := s.metrics.tenantCounters(j.Tenant)
		for _, hit := range [2]bool{a.engineHit, a.yetHit} {
			if hit {
				tc.cacheHits.Add(1)
			} else {
				tc.cacheMiss.Add(1)
			}
		}
		tc.cacheBytes.Add(int64(a.table.NumOccurrences()) * yet.OccurrenceBytes)
	}
	return a, err
}

// prepareLocal is the scheduler-independent artifact prelude shared by
// the scheduler and RunLocal. The leading ctx check runs before
// any artifact build: the cache builds are not ctx-aware, and a
// force-cancelled shutdown must not pay for engine compilation or YET
// generation of jobs it is abandoning; the trailing check keeps a
// cancelled job from starting its run.
func prepareLocal(ctx context.Context, cache *artifact.Cache, js *spec.Job, engineWorkers int, progress func(done, total int)) (*jobArtifacts, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	art, engineHit, err := artifact.EngineFor(cache, js)
	if err != nil {
		return nil, err
	}
	table, yetHit, err := artifact.TableFor(cache, js)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := js.Workers
	if workers <= 0 {
		workers = engineWorkers
	}
	return &jobArtifacts{
		art:       art,
		table:     table,
		engineHit: engineHit,
		yetHit:    yetHit,
		opt: core.Options{
			Workers:     workers,
			Lookup:      artifact.LookupKind(js.Lookup),
			Uncertainty: artifact.Uncertainty(js),
			Progress:    progress,
		},
	}, nil
}

// sinkSet is one recyclable pair of online sinks. The server runs one
// per job (per variant for sweeps), and both sinks rearm in place —
// Begin resets their layer state, Rearm swaps the return periods — so
// pooling the pair removes the per-job sketch construction (two
// sketches per layer, each growing O(k log n) level storage during the
// run) from the steady state.
type sinkSet struct {
	sum *metrics.SummarySink
	ep  *metrics.EPSink
}

var sinkSetPool = sync.Pool{New: func() any {
	return &sinkSet{sum: metrics.NewSummarySink(), ep: metrics.NewEPSink(nil)}
}}

// release returns the pair to the pool. Callers release only after the
// job's result is assembled (the sinks' states are read by then) and
// only on the success path — a cancelled or failed run may still have
// a straggling worker holding a sink reference.
func (ss *sinkSet) release() { sinkSetPool.Put(ss) }

// jobSinks builds one job-shaped sink stack: pooled online moments +
// EP always, a materialising sink only when quotes were requested or
// the caller keeps the YLT. The pool-backed pieces live exactly from
// the run to result rendering, so each caller must release them once
// the result is built; a kept YLT is unpooled because it outlives that.
func jobSinks(js *spec.Job, keepYLT bool) (*sinkSet, *core.FullYLT, core.MultiSink) {
	set := sinkSetPool.Get().(*sinkSet)
	set.ep.Rearm(js.Metrics.ReturnPeriods)
	sinks := core.MultiSink{set.sum, set.ep}
	var full *core.FullYLT
	switch {
	case keepYLT:
		full = core.NewFullYLT()
	case js.Metrics.Quotes:
		full = core.NewPooledYLT()
	}
	if full != nil {
		sinks = append(sinks, full)
	}
	return set, full, sinks
}

// executeDistributed fans the job out across the registered workers and
// merges their partial sink states; quotes, when requested, are priced
// on the coordinator from the reassembled (bitwise-identical) YLTs.
func (s *scheduler) executeDistributed(j *Job) (*JobResult, error) {
	js := j.Spec
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	// The coordinator needs layer metadata (names, occurrence limits for
	// pricing) but never runs the engine, so it builds the portfolio
	// only.
	p, _, err := artifact.PortfolioFor(s.cache, js)
	if err != nil {
		return nil, err
	}
	// After a durable restart, recovered jobs reach this point before
	// the workers' registration loops have found the new process — the
	// registry is in-memory, so it restarts empty and RunJob would fail
	// every recovered job with "no workers" in the first seconds of the
	// new life. Durable mode waits briefly for the first worker;
	// non-durable keeps the historical fail-fast.
	if s.store != nil && s.coord.Status().Alive == 0 {
		deadline := time.Now().Add(10 * time.Second)
		for s.coord.Status().Alive == 0 && time.Now().Before(deadline) {
			select {
			case <-j.ctx.Done():
				return nil, j.ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	start := time.Now()
	m, err := s.coord.RunJob(j.ctx, js, j.progress())
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	layers, err := layerResults(js, p.P, core.Variant{}, m.Summary, m.EP, m.Result)
	if err != nil {
		return nil, err
	}
	return &JobResult{
		ID:          j.ID,
		Trials:      js.YET.Trials,
		ElapsedMS:   elapsed.Milliseconds(),
		Shards:      m.Shards,
		Retried:     m.Retried,
		WorkersUsed: m.WorkersUsed,
		Layers:      layers,
	}, nil
}

// progress returns the job's trial-progress hook. Reports may arrive
// out of order across workers; keep the max.
func (j *Job) progress() func(done, total int) {
	return func(done, total int) {
		for {
			cur := j.trialsDone.Load()
			if int64(done) <= cur {
				return
			}
			if j.trialsDone.CompareAndSwap(cur, int64(done)) {
				j.poke() // wake SSE subscribers on forward progress
				return
			}
		}
	}
}

// RunLocal executes one validated job spec in-process through the
// scheduler's local execution path — shared artifact cache, one
// compiled-variant pass, quotes priced from the materialised YLT — as a
// batch of one with the YLT kept: for plain jobs it additionally
// returns the materialised per-layer tables. It exists for oracles: the
// chaos harness replays every completed cluster job through RunLocal
// and holds the service's wire results to this output (bitwise for
// single-node jobs, within the documented merge tolerances for
// distributed ones, with the returned Result supplying the exact
// empirical quantiles behind the EP rank windows). The Result is nil
// for sweep jobs — sweeps never fan out, so nothing needs rank data.
func RunLocal(ctx context.Context, cache *artifact.Cache, js *spec.Job) (*JobResult, *core.Result, error) {
	a, err := prepareLocal(ctx, cache, js, 1, nil)
	if err != nil {
		return nil, nil, err
	}
	m := newMember("oracle", js, a)
	keepYLT := js.Sweep == nil
	elapsed, err := runPass(ctx, []*member{m}, keepYLT)
	if err != nil {
		return nil, nil, err
	}
	var full *core.Result
	if keepYLT {
		full = m.fulls[0].Result() // read before render releases the sink
	}
	res, err := m.render(elapsed)
	if err != nil {
		return nil, nil, err
	}
	return res, full, nil
}

// layerResults renders one sink stack's per-layer metrics — fed by a
// local pass or reassembled from cluster shards alike. v supplies the
// effective layer terms (sweep variants override attachments and
// limits, so quotes must price against the variant's occurrence limit,
// not the base portfolio's); plain jobs pass the zero Variant.
func layerResults(js *spec.Job, p *layer.Portfolio, v core.Variant, sum *metrics.SummarySink, ep *metrics.EPSink, full *core.Result) ([]LayerResult, error) {
	out := make([]LayerResult, 0, len(p.Layers))
	for li, l := range p.Layers {
		lr := LayerResult{
			ID:         l.ID,
			Name:       l.Name,
			Summary:    summaryJSON(sum.Summary(li)),
			OccSummary: summaryJSON(sum.OccSummary(li)),
			EP:         pointsJSON(ep.Points(li)),
			OEP:        pointsJSON(ep.OccPoints(li)),
		}
		if full != nil {
			q, err := pricing.Price(full.YLT(li), pricing.Config{
				VolatilityMultiplier: js.Metrics.VolatilityMultiplier,
				ExpenseRatio:         js.Metrics.ExpenseRatio,
				OccLimit:             v.LayerTerms(l.LTerms).OccLimit,
			})
			if err != nil {
				return nil, fmt.Errorf("quote layer %d: %w", l.ID, err)
			}
			lr.Quote = &QuoteJSON{
				ExpectedLoss:     q.ExpectedLoss,
				StdDev:           q.StdDev,
				RiskLoad:         q.RiskLoad,
				ExpenseLoad:      q.ExpenseLoad,
				TechnicalPremium: q.TechnicalPremium,
				RateOnLine:       q.RateOnLine,
				PML100:           q.PML100,
				TVaR99:           q.TVaR99,
			}
		}
		out = append(out, lr)
	}
	return out, nil
}
