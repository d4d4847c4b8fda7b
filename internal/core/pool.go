package core

import "sync"

// Job-lifetime buffer pools. A service running jobs back to back
// allocates the same large buffers every time — per-worker kernel
// scratch and, for quoted jobs, the O(layers x trials) FullYLT
// tables — and at steady state those dominate both the allocation
// count and the GC's scan work. Both are strictly job-scoped (scratch
// never outlives the pipeline, the YLT never outlives result
// assembly), which is exactly the lifetime sync.Pool serves: the
// steady state allocates O(result), not O(trials).

// workerPool recycles per-goroutine kernel scratch (the lox vector,
// per-variant span result and fan-out buffers) across pipeline runs.
var workerPool sync.Pool

// getWorker returns a worker ready for one pipeline run, reusing a
// pooled one's scratch when available. The scratch fields all size
// themselves grow-only at first use (buf, idsBuf, bufK, ...), so a
// recycled worker's buffers are as valid as a fresh worker's — the
// kernels overwrite before reading, within a run and across runs
// alike.
func getWorker(sw *SweepEngine, opt Options, meanTrialLen float64) *worker {
	w, ok := workerPool.Get().(*worker)
	if !ok {
		return newWorker(sw, opt, meanTrialLen)
	}
	w.sw = sw
	w.opt = opt
	w.phases = PhaseBreakdown{}
	w.sampled = opt.Uncertainty.Mode == UncertaintySampled && sw.e.sampled
	w.zTrial = -1 // stale z from a previous run must never be reused
	n := int(meanTrialLen) + 64
	if n < 256 {
		n = 256
	}
	if cap(w.lox) < n {
		w.lox = make([]float64, 0, n)
	}
	if opt.ChunkSize > 0 && len(w.chunk) != opt.ChunkSize {
		w.chunk = make([]float64, opt.ChunkSize)
	}
	return w
}

// release returns the worker's scratch to the pool. The engine and
// option references are dropped so a pooled worker pins no compiled
// portfolio; callers must not touch the worker afterwards. Safe to
// call on any path — scratch is never retained by sinks (EmitBatch's
// contract) or results.
func (w *worker) release() {
	w.sw = nil
	w.opt = Options{}
	workerPool.Put(w)
}

// yltSlabPool recycles the flat backing array behind pooled FullYLT
// sinks (see NewPooledYLT). Stored as *[]float64 so Put does not
// allocate a header.
var yltSlabPool sync.Pool

// getYLTSlab returns a zeroed slab of at least n float64s.
func getYLTSlab(n int) *[]float64 {
	if p, ok := yltSlabPool.Get().(*[]float64); ok && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		*p = s
		return p
	}
	s := make([]float64, n)
	return &s
}
