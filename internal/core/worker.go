package core

import (
	"time"

	"github.com/ralab/are/internal/layer"
	"github.com/ralab/are/internal/rng"
	"github.com/ralab/are/internal/stats"
)

// worker holds the per-goroutine scratch state for the kernels: the lox
// occurrence-loss buffer of the paper's algorithm, the fixed-size chunk
// buffer standing in for GPU shared memory (chunked mode), span-sized
// result buffers for batched sink delivery, and the profiled kernel's
// ids/raw vectors. Everything is allocated once per worker and reused
// across trials, so the steady-state hot path performs no allocation.
type worker struct {
	// sw is the compiled variant set the run evaluates — the engine's
	// one-variant identity sweep for a plain run.
	sw  *SweepEngine
	opt Options

	// lox[d] is the combined loss of occurrence d net of financial
	// terms, then net of occurrence terms — the paper's lox vector.
	lox []float64

	// chunk is the ChunkSize-long local buffer used by the optimised
	// kernel (and the fan-out gather's raw-loss chunk scratch).
	chunk []float64

	// ids and raw are the profiled kernel's phase vectors (fetched
	// event IDs; per-ELT raw losses), hoisted here so profiling does
	// not allocate per trial. The basic fan-out gather reuses raw as
	// its gathered loss column.
	ids []uint32
	raw []float64

	// Sampled-severity state: sampled is set when the run draws
	// severities (UncertaintySampled and the engine has parameter
	// columns); z is the trial's standard-normal column, parallel to
	// the event column, filled once per (global trial) by fillZ and
	// shared by every sampled ELT across the trial's layers; zTrial
	// remembers which global trial z currently holds (-1 = none), so
	// consecutive kernels over the same trial skip the inverse-CDF
	// pass.
	sampled bool
	z       []float64
	zTrial  int

	// Per-variant scratch: occurrence-loss buffers for the fan-out
	// gathers (sweep_worker.go), per-trial variant results, and
	// per-variant span buffers for batched sink delivery. Sized lazily
	// on the first span.
	loxK               [][]float64
	varAgg, varOcc     []float64
	sweepAgg, sweepOcc [][]float64

	phases PhaseBreakdown
}

func newWorker(sw *SweepEngine, opt Options, meanTrialLen float64) *worker {
	w := &worker{sw: sw, opt: opt}
	w.sampled = opt.Uncertainty.Mode == UncertaintySampled && sw.e.sampled
	w.zTrial = -1
	n := int(meanTrialLen) + 64
	if n < 256 {
		n = 256
	}
	w.lox = make([]float64, 0, n)
	if opt.ChunkSize > 0 {
		w.chunk = make([]float64, opt.ChunkSize)
	}
	return w
}

// fillZ materialises the standard-normal column of global trial gt:
// z[i] = Φ⁻¹(u(seed, gt, events[i])), with u from the counter-based
// generator — a pure function of its coordinates, so any worker on any
// shard computes identical deviates. Duplicate occurrences of one
// event within a trial share a draw by construction. Lanes for events
// outside the engine's sampled-occupancy bitset are left unwritten —
// the gather kernels never read z for an event without a positive
// (mean, sigma) record, and skipping them skips the expensive
// inverse-CDF for most of a sparse portfolio's column. No-op when z
// already holds this trial (consecutive layers, sweep variants).
func (w *worker) fillZ(events []uint32, gt int) {
	if w.zTrial == gt && len(w.z) == len(events) {
		return
	}
	if cap(w.z) < len(events) {
		w.z = make([]float64, len(events))
	}
	w.z = w.z[:len(events)]
	cs := rng.NewCounterStream(w.opt.Uncertainty.Seed, uint64(gt))
	occ := w.sw.e.zOcc
	for i, ev := range events {
		if occ[ev>>6]&(1<<(ev&63)) != 0 {
			w.z[i] = stats.InvNormCDF(cs.Float64Open(uint64(ev)))
		}
	}
	w.zTrial = gt
}

// runSweepSpan is the one span kernel: it evaluates a batch of trials
// for every layer and every variant (one, the empty delta, for a plain
// run), delivering results span-at-a-time — one EmitBatch per
// (variant, layer, span) with the layer index flattened to
// variant*NumLayers+layer (VariantSinks demultiplexes; with one variant
// the flattened index is the layer index). No per-cell interface
// dispatch survives on the hot path.
func (w *worker) runSweepSpan(b Batch, sink Sink) {
	sw := w.sw
	span := b.Hi - b.Lo
	numK := len(sw.variants)
	numL := len(sw.layers)
	w.sizeSweepScratch(numK, span)

	for li := range sw.layers {
		sl := &sw.layers[li]
		for t := b.Lo; t < b.Hi; t++ {
			events := b.Table.TrialEvents(t)
			if w.sampled {
				w.fillZ(events, w.opt.Uncertainty.TrialOffset+b.Offset+t)
			}
			// Slice to this run's variant count: recycled workers may
			// carry wider scratch from an earlier, larger sweep.
			w.sweepTrial(sl, events, w.varAgg[:numK], w.varOcc[:numK])
			for k := 0; k < numK; k++ {
				w.sweepAgg[k][t-b.Lo] = w.varAgg[k]
				w.sweepOcc[k][t-b.Lo] = w.varOcc[k]
			}
		}
		for k := 0; k < numK; k++ {
			sink.EmitBatch(k*numL+li, b.Offset+b.Lo, w.sweepAgg[k][:span], w.sweepOcc[k][:span])
		}
	}
}

// sizeSweepScratch grows the per-variant result scratch to K variants
// and span trials; steady-state spans reuse it without allocating.
func (w *worker) sizeSweepScratch(numK, span int) {
	if len(w.varAgg) < numK {
		w.varAgg = make([]float64, numK)
		w.varOcc = make([]float64, numK)
	}
	for len(w.sweepAgg) < numK {
		w.sweepAgg = append(w.sweepAgg, nil)
		w.sweepOcc = append(w.sweepOcc, nil)
	}
	for k := 0; k < numK; k++ {
		if cap(w.sweepAgg[k]) < span {
			w.sweepAgg[k] = make([]float64, span)
			w.sweepOcc[k] = make([]float64, span)
		}
	}
}

// sweepTrial computes every variant's (aggLoss, maxOcc) for one trial
// of one layer into aggs/maxs (each len K) — steps 1-4 of §II.B. The
// gather is paid once: shared layers (every plain run) compute a single
// occurrence-loss buffer and fan out only at the layer terms; fan-out
// layers gather each ELT's raw losses once and apply all K programs to
// the column (sweep_worker.go). Options pick the gather discipline —
// basic (whole event column), chunked (ChunkSize blocks) or profiled
// (phase-separated, timed) — all bitwise identical.
func (w *worker) sweepTrial(sl *sweepLayer, events []uint32, aggs, maxs []float64) {
	if len(events) == 0 {
		clear(aggs)
		clear(maxs)
		return
	}
	if sl.shared() {
		var lox []float64
		switch {
		case w.opt.Profile:
			lox = w.profiledLox(sl.base, events)
		case w.opt.ChunkSize > 0:
			lox = w.chunkedLox(sl.base, events)
		default:
			lox = w.basicLox(sl.base, events)
		}
		w.sweepLayerPhase(sl, lox, nil, aggs, maxs)
		return
	}

	loxK := w.bufK(len(aggs), len(events))
	switch {
	case w.opt.Profile:
		w.profiledLoxK(sl, events, loxK)
	case w.opt.ChunkSize > 0:
		w.chunkedLoxK(sl, events, loxK)
	default:
		w.basicLoxK(sl, events, loxK)
	}
	w.sweepLayerPhase(sl, nil, loxK, aggs, maxs)
}

// basicLox is the paper's basic kernel's gather phase: every plan step
// batch-gathered over the whole event column into the zeroed lox
// buffer (steps 1-2 of §II.B; lines 5-9 per ELT) — ELT-major, matching
// the packed flat-vector layout, with a monomorphic inner loop per step
// (see plan.go).
func (w *worker) basicLox(cl *compiledLayer, events []uint32) []float64 {
	lox := w.buf(len(events))
	if w.sampled {
		z := w.z[:len(events)]
		for i := range cl.steps {
			cl.steps[i].gatherSampled(lox, events, z)
		}
		return lox
	}
	for i := range cl.steps {
		cl.steps[i].gather(lox, events)
	}
	return lox
}

// chunkedLox is the optimised kernel's gather phase: identical
// arithmetic to basicLox, but events move through the fixed-size chunk
// buffer so the working set per step is ChunkSize values (the GPU
// shared-memory discipline), each fully gathered block copied into lox.
// The floating-point operation sequence per occurrence is unchanged, so
// results are bitwise identical.
func (w *worker) chunkedLox(cl *compiledLayer, events []uint32) []float64 {
	n := len(events)
	lox := w.buf(n)
	cs := len(w.chunk)

	for base := 0; base < n; base += cs {
		end := base + cs
		if end > n {
			end = n
		}
		chunk := w.chunk[:end-base]
		clear(chunk)
		if w.sampled {
			z := w.z[base:end]
			for i := range cl.steps {
				cl.steps[i].gatherSampled(chunk, events[base:end], z)
			}
		} else {
			for i := range cl.steps {
				cl.steps[i].gather(chunk, events[base:end])
			}
		}
		copy(lox[base:end], chunk)
	}
	return lox
}

// profiledLox mirrors the paper's phase-separated loops (one pass per
// algorithm step) for phases (a)-(c) — event fetch, ELT lookup,
// financial terms — accumulating wall time per phase, producing the
// Figure 6b breakdown, and returning the combined occurrence losses
// (phase (d), the layer terms, is timed by sweepLayerPhase). The
// raw-loss pass accumulates in the same ELT order as the fused gathers,
// so results are bitwise identical (tests assert equality).
func (w *worker) profiledLox(cl *compiledLayer, events []uint32) []float64 {
	n := len(events)
	lox := w.buf(n)

	// Phase (a): fetch events from the YET into a local vector
	// (lines 3-4: walking Et in b) — a straight copy of the event
	// column into worker scratch.
	t0 := time.Now()
	ids := w.idsBuf(n)
	copy(ids, events)
	t1 := time.Now()
	w.phases.EventFetch += t1.Sub(t0)

	if cl.isCombined() {
		// Phase (b): the single combined lookup replaces both the
		// per-ELT lookups and the financial-terms pass (folded at
		// compile time), so all of it is attributed to lookup.
		tbl := cl.steps[0].combined
		for d, ev := range ids {
			lox[d] = tbl[ev]
		}
		w.phases.ELTLookup += time.Since(t1)
		return lox
	}

	// Phase (b): ELT lookups (line 5), raw losses gathered per ELT
	// into the hoisted scratch matrix. Sampled runs draw the losses
	// here, so sampling time is attributed to the lookup phase.
	raw := w.rawBuf(len(cl.steps) * n)
	if w.sampled {
		z := w.z[:n]
		for e := range cl.steps {
			cl.steps[e].lossesSampled(raw[e*n:(e+1)*n], ids, z)
		}
	} else {
		for e := range cl.steps {
			cl.steps[e].losses(raw[e*n:(e+1)*n], ids)
		}
	}
	t2 := time.Now()
	w.phases.ELTLookup += t2.Sub(t1)

	// Phase (c): financial terms and cross-ELT accumulation
	// (lines 6-9), via each step's compiled program (bitwise-identical
	// to Terms.Apply).
	for e := range cl.steps {
		prog := cl.steps[e].prog
		row := raw[e*n : (e+1)*n]
		for d := 0; d < n; d++ {
			if row[d] != 0 {
				lox[d] += prog.Apply(row[d])
			}
		}
	}
	w.phases.Financial += time.Since(t2)
	return lox
}

// sweepLayerPhase applies each variant's layer terms — to the shared
// lox buffer when every variant gathered the same losses, else to the
// variant's own buffer — accumulating profile time (phase (d),
// lines 10-19) when enabled.
func (w *worker) sweepLayerPhase(sl *sweepLayer, lox []float64, loxK [][]float64, aggs, maxs []float64) {
	var t0 time.Time
	if w.opt.Profile {
		t0 = time.Now()
	}
	for k := range aggs {
		v := lox
		if v == nil {
			v = loxK[k]
		}
		aggs[k], maxs[k] = sweepLayerTerms(sl.lterms[k], v)
	}
	if w.opt.Profile {
		w.phases.LayerTerms += time.Since(t0)
	}
}

// sweepLayerTerms applies steps 3 and 4 of the algorithm to the
// combined occurrence losses without touching them, so one gathered lox
// buffer can serve every variant: occurrence terms per occurrence
// (line 11), then the running-sum aggregate terms (lines 12-17) whose
// differenced payouts sum to the trial loss (line 19).
func sweepLayerTerms(lt layer.Terms, lox []float64) (aggLoss, maxOcc float64) {
	var running, prev float64
	for _, l := range lox {
		v := lt.ApplyOcc(l)
		if v > maxOcc {
			maxOcc = v
		}
		running += v
		capped := lt.ApplyAgg(running)
		aggLoss += capped - prev
		prev = capped
	}
	return aggLoss, maxOcc
}

// buf returns the zeroed lox buffer of length n.
func (w *worker) buf(n int) []float64 {
	if cap(w.lox) < n {
		w.lox = make([]float64, n)
		return w.lox
	}
	w.lox = w.lox[:n]
	clear(w.lox)
	return w.lox
}

// idsBuf returns the event-ID scratch of length n (contents arbitrary).
func (w *worker) idsBuf(n int) []uint32 {
	if cap(w.ids) < n {
		w.ids = make([]uint32, n)
	}
	return w.ids[:n]
}

// rawBuf returns the raw-loss scratch of length n (contents arbitrary —
// every use overwrites before reading).
func (w *worker) rawBuf(n int) []float64 {
	if cap(w.raw) < n {
		w.raw = make([]float64, n)
	}
	return w.raw[:n]
}
