package core

// Fan-out gathers: the gather phase of layers whose variants alter
// financial terms. One raw-loss gather per (ELT, trial), K program
// applications — see sweep.go for the design and the bitwise contract
// these loops uphold. Layers every variant gathers alike (every layer
// of a plain run) take the shared gathers in worker.go instead.

import (
	"time"

	"github.com/ralab/are/internal/elt"
)

// bufK returns K zeroed occurrence-loss buffers of length n.
func (w *worker) bufK(numK, n int) [][]float64 {
	for len(w.loxK) < numK {
		w.loxK = append(w.loxK, nil)
	}
	for k := 0; k < numK; k++ {
		if cap(w.loxK[k]) < n {
			w.loxK[k] = make([]float64, n)
		} else {
			w.loxK[k] = w.loxK[k][:n]
			clear(w.loxK[k])
		}
	}
	return w.loxK[:numK]
}

// basicLoxK is the fan-out gather of the basic kernel: per plan step,
// one raw-loss gather over the whole event column, then K program
// applications to the gathered column. Combined layers (terms folded
// into the table) gather each variant's folded table instead.
func (w *worker) basicLoxK(sl *sweepLayer, events []uint32, loxK [][]float64) {
	raw := w.rawBuf(len(events))
	for i := range sl.steps {
		s := &sl.steps[i]
		if s.combinedK != nil {
			for k := range loxK {
				gatherCombined(loxK[k], events, s.combinedK[k])
			}
			continue
		}
		if w.sampled {
			s.base.lossesSampled(raw, events, w.z[:len(events)])
		} else {
			s.base.losses(raw, events)
		}
		elt.FanOut(loxK, raw, s.progs)
	}
}

// chunkedLoxK is the fan-out gather of the chunked kernel: the event
// column moves through ChunkSize blocks, each block's raw losses
// gathered once into the chunk buffer and fanned out to every
// variant's lox range. Accumulation order per occurrence matches the
// plain chunked kernel exactly.
func (w *worker) chunkedLoxK(sl *sweepLayer, events []uint32, loxK [][]float64) {
	n := len(events)
	cs := len(w.chunk)
	for base := 0; base < n; base += cs {
		end := base + cs
		if end > n {
			end = n
		}
		ev := events[base:end]
		raw := w.chunk[:end-base]
		for i := range sl.steps {
			s := &sl.steps[i]
			if s.combinedK != nil {
				for k := range loxK {
					gatherCombined(loxK[k][base:end], ev, s.combinedK[k])
				}
				continue
			}
			if w.sampled {
				s.base.lossesSampled(raw, ev, w.z[base:end])
			} else {
				s.base.losses(raw, ev)
			}
			for k := range loxK {
				elt.ApplyInto(loxK[k][base:end], raw, s.progs[k])
			}
		}
	}
}

// profiledLoxK is the fan-out gather of the profiled kernel, phase
// timings preserved: fetch once, look every ELT up once (phase b),
// then apply each variant's programs to the shared raw matrix
// (phase c) — so the breakdown shows exactly how little of a fused
// sweep is spent outside the gather.
func (w *worker) profiledLoxK(sl *sweepLayer, events []uint32, loxK [][]float64) {
	n := len(events)

	t0 := time.Now()
	ids := w.idsBuf(n)
	copy(ids, events)
	t1 := time.Now()
	w.phases.EventFetch += t1.Sub(t0)

	if s := &sl.steps[0]; s.combinedK != nil {
		// Per-variant folded tables: the lookup pass is per variant by
		// construction, all of it attributed to lookup as in the plain
		// profiled kernel.
		for k := range loxK {
			tbl := s.combinedK[k]
			dst := loxK[k]
			for d, ev := range ids {
				dst[d] = tbl[ev]
			}
		}
		w.phases.ELTLookup += time.Since(t1)
		return
	}

	numELTs := len(sl.steps)
	raw := w.rawBuf(numELTs * n)
	if w.sampled {
		z := w.z[:n]
		for e := range sl.steps {
			sl.steps[e].base.lossesSampled(raw[e*n:(e+1)*n], ids, z)
		}
	} else {
		for e := range sl.steps {
			sl.steps[e].base.losses(raw[e*n:(e+1)*n], ids)
		}
	}
	t2 := time.Now()
	w.phases.ELTLookup += t2.Sub(t1)

	for k := range loxK {
		for e := range sl.steps {
			elt.ApplyInto(loxK[k], raw[e*n:(e+1)*n], sl.steps[e].progs[k])
		}
	}
	w.phases.Financial += time.Since(t2)
}

// gatherCombined accumulates a folded layer table's per-event losses:
// dst[i] += tbl[events[i]] — the stepCombined gather body.
func gatherCombined(dst []float64, events []uint32, tbl []float64) {
	for i, ev := range events {
		dst[i] += tbl[ev]
	}
}
