package main

import (
	"sync"
	"time"

	"github.com/ralab/are/internal/spec"
)

// maxFailures ends a loop early: the workloads are chosen so that nothing
// fails, and a broken service should not be hammered until the deadline.
const maxFailures = 10

// measured is what one loop saw, or several merged.
type measured struct {
	served    []*served // a service workload's completed jobs
	lib       []*libJob // engine.paper's completed jobs
	attempted int
	errs      []error
	wall      time.Duration
	pre, post counters // either side of a traced loop
}

// latencies returns the completed jobs' times in milliseconds: all of
// them, those that recorded spans, and those that did not.
func (m *measured) latencies() (all, traced, plain []float64) {
	add := func(ms float64, tr bool) {
		all = append(all, ms)
		if tr {
			traced = append(traced, ms)
		} else {
			plain = append(plain, ms)
		}
	}
	for _, d := range m.served {
		add(d.ms(), d.traced)
	}
	for _, j := range m.lib {
		add(j.ms(), j.traced)
	}
	return all, traced, plain
}

// merge appends another loop's outcome: a workload measured across several
// set-ups reports over all their jobs.
func (m *measured) merge(o *measured) {
	m.served = append(m.served, o.served...)
	m.lib = append(m.lib, o.lib...)
	m.attempted += o.attempted
	m.errs = append(m.errs, o.errs...)
	m.wall += o.wall
}

// stream hands each client its jobs' request bodies in order. A workload
// whose clients cycle through a few specs gets them marshalled once; a
// distinct stream marshals each job as it is issued (microseconds against
// a job of hundreds of milliseconds).
type stream struct {
	w     *workload
	build func(client, i int) *spec.Job
	next  []int // per client: index of its next job
	memo  map[[2]int][]byte
	mu    sync.Mutex
}

func newStream(w *workload, g gen, sz sizes) *stream {
	return &stream{w: w, build: w.jobs(g, sz), next: make([]int, w.clients), memo: make(map[[2]int][]byte)}
}

// body returns the client's next job and advances its cursor.
func (s *stream) body(client int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.next[client]
	s.next[client]++
	if s.w.distinct {
		return jobBody(s.build(client, i))
	}
	key := [2]int{client, i % s.w.cycle}
	b, ok := s.memo[key]
	if !ok {
		b = jobBody(s.build(client, i))
		s.memo[key] = b
	}
	return b
}

// first is the spec of client 0's first job, the one the stage replay and
// the oracle use.
func (s *stream) first() *spec.Job { return s.build(0, 0) }

// warm runs every distinct job of each client's cycle once, serially, so
// that the measured loop meets built artifacts (for a distinct stream:
// warm code paths and pools, since its artifacts are never reused).
func (s *stream) warm(sys *system) error {
	c := newClient(sys.url)
	defer c.close()
	for client := 0; client < s.w.clients; client++ {
		for k := 0; k < s.w.cycle; k++ {
			if _, err := c.run(s.body(client), false); err != nil {
				return err
			}
		}
	}
	return nil
}

// minRounds is how many jobs (or bursts) a client issues at the least,
// however short the loop: one, or with a tracer two, one of each kind.
func minRounds(tr *tracer) int {
	if tr != nil {
		return 2
	}
	return 1
}

// runLoop drives the workload's clients against the system for about dur
// (every client finishes the job or burst it is in). With a tracer, every
// second job of a client (every second burst) records its spans and the
// others do not: traced and untraced jobs then meet the same drift, and
// their medians differ by the tracing alone.
func runLoop(s *stream, sys *system, dur time.Duration, tr *tracer) *measured {
	res := &measured{}
	var mu sync.Mutex
	note := func(d *served, err error) bool { // reports whether to go on
		mu.Lock()
		defer mu.Unlock()
		res.attempted++
		if err == nil && d.traced {
			err = d.trace(tr)
		}
		if err != nil {
			res.errs = append(res.errs, err)
			return len(res.errs) < maxFailures
		}
		res.served = append(res.served, d)
		return true
	}
	clients := make([]*client, s.w.clients)
	for i := range clients {
		clients[i] = newClient(sys.url)
		defer clients[i].close()
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	switch s.w.loop {
	case loopSerial:
		for ci, c := range clients {
			wg.Add(1)
			go func(ci int, c *client) {
				defer wg.Done()
				for k := 0; ; k++ {
					ok := note(c.run(s.body(ci), tr != nil && k%2 == 1))
					if !ok || k+1 >= minRounds(tr) && !time.Now().Before(deadline) {
						return
					}
				}
			}(ci, c)
		}
		wg.Wait()
	case loopBurst:
		per := burstSize / len(clients)
		for b := 0; ; b++ {
			var failed bool
			for ci, c := range clients {
				wg.Add(1)
				go func(ci int, c *client) {
					defer wg.Done()
					// Back-to-back POSTs first, so that the whole burst is
					// queued while the planner holds the first job for
					// batchmates; then collect.
					batch := make([]*served, per)
					errs := make([]error, per)
					for k := range batch {
						body := s.body(ci)
						batch[k] = &served{body: body, traced: tr != nil && b%2 == 1, t0: time.Now()}
						batch[k].id, errs[k] = c.submit(body)
					}
					for k, d := range batch {
						if errs[k] == nil {
							errs[k] = c.collect(d)
						}
						if !note(d, errs[k]) {
							mu.Lock()
							failed = true
							mu.Unlock()
						}
					}
				}(ci, c)
			}
			wg.Wait()
			if failed || b+1 >= minRounds(tr) && !time.Now().Before(deadline) {
				break
			}
		}
	}
	res.wall = time.Since(start)
	return res
}
