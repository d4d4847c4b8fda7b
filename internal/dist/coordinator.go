package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ralab/are/internal/spec"
)

// Config sizes a Coordinator.
type Config struct {
	// ShardTrials is the target trial count per shard; 0 selects 25000.
	// Jobs smaller than one shard per live worker are split evenly so
	// every worker participates.
	ShardTrials int

	// MaxAttempts is how many workers a shard may be tried on before
	// the job fails; 0 selects 3.
	MaxAttempts int

	// WorkerTTL is how long after its last heartbeat a worker is still
	// dispatched to; 0 selects 15s.
	WorkerTTL time.Duration

	// HeartbeatEvery is the cadence workers are told to heartbeat at
	// (returned from registration); 0 selects WorkerTTL / 3.
	HeartbeatEvery time.Duration

	// RequestTimeout bounds one shard's round trip; 0 selects 5m.
	RequestTimeout time.Duration

	// Client is the HTTP client used for shard dispatch; nil selects a
	// dedicated client with sane defaults.
	Client *http.Client
}

func (c *Config) setDefaults() {
	if c.ShardTrials <= 0 {
		c.ShardTrials = 25_000
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 15 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.WorkerTTL / 3
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Minute
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
}

// Coordinator errors.
var (
	ErrNoWorkers     = errors.New("dist: no live workers registered")
	ErrUnknownWorker = errors.New("dist: unknown worker")
)

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id  string
	url string

	mu         sync.Mutex
	capacity   int // re-registration may change it while jobs dispatch
	registered time.Time
	lastSeen   time.Time

	done   atomic.Int64
	failed atomic.Int64
}

func (w *workerState) slots() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.capacity
}

func (w *workerState) seen(now time.Time) {
	w.mu.Lock()
	w.lastSeen = now
	w.mu.Unlock()
}

func (w *workerState) aliveAt(now time.Time, ttl time.Duration) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return now.Sub(w.lastSeen) <= ttl
}

// Coordinator owns the worker registry and turns one job into a fanned
// out, retried, merged cluster execution. It is safe for concurrent use;
// the ared scheduler runs one RunJob per job worker.
type Coordinator struct {
	cfg Config

	mu    sync.Mutex
	seq   int
	byID  map[string]*workerState
	byURL map[string]*workerState

	jobs    atomic.Int64
	shards  atomic.Int64
	retries atomic.Int64
}

// NewCoordinator builds an empty coordinator; workers arrive via
// Register.
func NewCoordinator(cfg Config) *Coordinator {
	cfg.setDefaults()
	return &Coordinator{
		cfg:   cfg,
		byID:  make(map[string]*workerState),
		byURL: make(map[string]*workerState),
	}
}

// HeartbeatEvery returns the cadence workers should heartbeat at.
func (c *Coordinator) HeartbeatEvery() time.Duration { return c.cfg.HeartbeatEvery }

// Register adds a worker (or refreshes one re-registering under the
// same URL — a restarted worker keeps its identity and counters are
// preserved) and returns its assigned ID.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	url := strings.TrimRight(req.URL, "/")
	if url == "" || (!strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://")) {
		return RegisterResponse{}, fmt.Errorf("dist: register: worker url must be absolute http(s), got %q", req.URL)
	}
	capacity := req.Capacity
	if capacity <= 0 {
		capacity = 1
	}
	now := time.Now()
	c.mu.Lock()
	w, ok := c.byURL[url]
	if !ok {
		c.seq++
		w = &workerState{id: fmt.Sprintf("w-%04d", c.seq), url: url, registered: now}
		c.byID[w.id] = w
		c.byURL[url] = w
	}
	w.mu.Lock() // capacity is read by RunJob and Status without c.mu
	w.capacity = capacity
	w.mu.Unlock()
	c.mu.Unlock()
	w.seen(now)
	return RegisterResponse{ID: w.id, HeartbeatMS: c.cfg.HeartbeatEvery.Milliseconds()}, nil
}

// Heartbeat refreshes a worker's lease; ErrUnknownWorker tells a worker
// the coordinator restarted and it must re-register.
func (c *Coordinator) Heartbeat(id string) error {
	c.mu.Lock()
	w, ok := c.byID[id]
	c.mu.Unlock()
	if !ok {
		return ErrUnknownWorker
	}
	w.seen(time.Now())
	return nil
}

// alive snapshots the workers whose lease has not expired.
func (c *Coordinator) alive() []*workerState {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*workerState, 0, len(c.byID))
	for _, w := range c.byID {
		if w.aliveAt(now, c.cfg.WorkerTTL) {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Status renders the cluster introspection surface.
func (c *Coordinator) Status() ClusterStatus {
	now := time.Now()
	c.mu.Lock()
	workers := make([]*workerState, 0, len(c.byID))
	for _, w := range c.byID {
		workers = append(workers, w)
	}
	c.mu.Unlock()
	sort.Slice(workers, func(i, j int) bool { return workers[i].id < workers[j].id })
	st := ClusterStatus{
		WorkerTTLMS:    c.cfg.WorkerTTL.Milliseconds(),
		ShardTrials:    c.cfg.ShardTrials,
		MaxAttempts:    c.cfg.MaxAttempts,
		JobsDispatched: c.jobs.Load(),
		ShardsDone:     c.shards.Load(),
		ShardsRetried:  c.retries.Load(),
	}
	for _, w := range workers {
		w.mu.Lock()
		ws := WorkerStatus{
			ID:           w.id,
			URL:          w.url,
			Capacity:     w.capacity,
			Alive:        now.Sub(w.lastSeen) <= c.cfg.WorkerTTL,
			RegisteredAt: w.registered.UTC().Format(time.RFC3339Nano),
			LastSeen:     w.lastSeen.UTC().Format(time.RFC3339Nano),
			ShardsDone:   w.done.Load(),
			ShardsFailed: w.failed.Load(),
		}
		w.mu.Unlock()
		st.Workers = append(st.Workers, ws)
		if ws.Alive {
			st.Alive++
		}
	}
	return st
}

// shardPlan splits [0, trials) into contiguous shards of about
// shardTrials each, but never fewer shards than live workers (so small
// jobs still use the whole cluster).
func shardPlan(trials, shardTrials, workers int) [][2]int {
	if workers < 1 {
		workers = 1
	}
	span := shardTrials
	if even := (trials + workers - 1) / workers; even < span {
		span = even
	}
	if span < 1 {
		span = 1
	}
	var plan [][2]int
	for lo := 0; lo < trials; lo += span {
		hi := lo + span
		if hi > trials {
			hi = trials
		}
		plan = append(plan, [2]int{lo, hi})
	}
	return plan
}

// shardJob is one pending shard plus the distinct workers it has
// already failed on. Attempts are counted per distinct worker — a dead
// worker re-failing one shard cannot burn through the attempt budget,
// so "-shard-attempts" really means "workers one shard may be tried
// on".
type shardJob struct {
	lo, hi   int
	failedOn []string // worker IDs, distinct
}

func (s *shardJob) noteFailure(workerID string) {
	for _, id := range s.failedOn {
		if id == workerID {
			return
		}
	}
	s.failedOn = append(s.failedOn, workerID)
}

// jobWorker is RunJob's per-job view of one worker: failure accounting
// is job-scoped (shared by the worker's dispatcher slots), so a worker
// abandoned in one job starts the next with a clean slate.
type jobWorker struct {
	w      *workerState
	consec atomic.Int64
}

// outcome is one dispatch attempt's report back to the collector.
type outcome struct {
	shard  shardJob
	result *ShardResult
	err    error
	worker *workerState
}

// RunJob executes one job across the live workers: plan shards,
// dispatch, retry failures elsewhere, reassemble the shards' YLTs in
// trial order. progress (optional) receives cumulative trials completed.
//
// Failure model: a shard that fails on a worker is requeued and picked
// up by another dispatcher; a worker that fails two shards in a row is
// abandoned for the rest of the job (its lease will also lapse without
// heartbeats). The job fails only when a shard exhausts MaxAttempts or
// no dispatchers remain — so any single worker dying mid-job is
// absorbed, which the end-to-end tests exercise.
func (c *Coordinator) RunJob(ctx context.Context, js *spec.Job, progress func(done, total int)) (*Merged, error) {
	workers := c.alive()
	if len(workers) == 0 {
		return nil, ErrNoWorkers
	}
	c.jobs.Add(1)
	trials := js.YET.Trials
	plan := shardPlan(trials, c.cfg.ShardTrials, len(workers))

	ctx, cancel := context.WithCancel(ctx)

	// Every shard is in exactly one place (pending, in flight, or done),
	// so len(plan) capacity means requeues can never block the
	// collector. The outcomes buffer only needs to absorb bursts: the
	// collector drains it continuously and cancellation unblocks any
	// sender once the collector returns.
	pending := make(chan shardJob, len(plan))
	outcomes := make(chan outcome, len(plan)+8)
	for _, sh := range plan {
		pending <- shardJob{lo: sh[0], hi: sh[1]}
	}

	var dispatchers atomic.Int64
	var wg sync.WaitGroup
	// Cancel before waiting: dispatchers idle on the pending channel
	// only wake via ctx, and deferred calls run LIFO.
	defer func() {
		cancel()
		wg.Wait()
	}()
	for _, w := range workers {
		jw := &jobWorker{w: w}
		for slot := 0; slot < w.slots(); slot++ {
			dispatchers.Add(1)
			wg.Add(1)
			go func(jw *jobWorker) {
				w := jw.w
				counted := true
				leave := func() {
					if counted {
						dispatchers.Add(-1)
						counted = false
					}
				}
				defer wg.Done()
				defer leave()
				for {
					var sh shardJob
					select {
					case <-ctx.Done():
						return
					case sh = <-pending:
					}
					res, err := c.execRemote(ctx, w, js, sh)
					abandoning := false
					if err != nil && ctx.Err() == nil {
						// Failure accounting is per worker, not per slot:
						// two consecutive failures anywhere on the worker
						// abandon all of its slots for this job.
						abandoning = jw.consec.Add(1) >= 2
					} else if err == nil {
						jw.consec.Store(0)
					}
					if abandoning {
						// Leave the dispatcher count BEFORE reporting the
						// failure: the collector decides between requeue and
						// "no one left" from that count, and must never
						// requeue a shard no dispatcher will ever see.
						leave()
					}
					select {
					case outcomes <- outcome{shard: sh, result: res, err: err, worker: w}:
					case <-ctx.Done():
						return
					}
					if err != nil {
						if ctx.Err() != nil || abandoning || jw.consec.Load() >= 2 {
							return
						}
					}
				}
			}(jw)
		}
	}

	results := make([]*ShardResult, 0, len(plan))
	var doneTrials, retried int
	used := make(map[string]bool)
	for len(results) < len(plan) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case out := <-outcomes:
			if out.err != nil {
				out.worker.failed.Add(1)
				out.shard.noteFailure(out.worker.id)
				retried++
				c.retries.Add(1)
				if len(out.shard.failedOn) >= c.cfg.MaxAttempts {
					return nil, fmt.Errorf("dist: shard [%d, %d) failed on %d workers, last on %s: %w",
						out.shard.lo, out.shard.hi, len(out.shard.failedOn), out.worker.id, out.err)
				}
				if dispatchers.Load() == 0 {
					return nil, fmt.Errorf("dist: all workers abandoned with shard [%d, %d) outstanding: %w",
						out.shard.lo, out.shard.hi, out.err)
				}
				pending <- out.shard
				continue
			}
			out.worker.done.Add(1)
			out.worker.seen(time.Now())
			c.shards.Add(1)
			used[out.worker.id] = true
			results = append(results, out.result)
			doneTrials += out.result.Hi - out.result.Lo
			if progress != nil {
				progress(doneTrials, trials)
			}
		}
	}
	cancel() // release dispatchers before the merge

	m, err := mergeShards(trials, results)
	if err != nil {
		return nil, err
	}
	m.Shards = len(plan)
	m.Retried = retried
	m.WorkersUsed = len(used)
	return m, nil
}

// execRemote round-trips one shard to a worker.
func (c *Coordinator) execRemote(ctx context.Context, w *workerState, js *spec.Job, sh shardJob) (*ShardResult, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	res, err := postShard(ctx, c.cfg.Client, w.url+"/v1/shards", ShardRequest{Job: js, Lo: sh.lo, Hi: sh.hi})
	if err != nil {
		return nil, err
	}
	if res.Lo != sh.lo || res.Hi != sh.hi {
		return nil, fmt.Errorf("dist: worker %s answered shard [%d, %d) for request [%d, %d)", w.id, res.Lo, res.Hi, sh.lo, sh.hi)
	}
	return res, nil
}
