package core

import (
	"fmt"
	"math"

	"github.com/ralab/are/internal/catalog"
	"github.com/ralab/are/internal/elt"
	"github.com/ralab/are/internal/layer"
	"github.com/ralab/are/internal/rng"
	"github.com/ralab/are/internal/stats"
	"github.com/ralab/are/internal/yet"
)

// Reference evaluates the portfolio with the most literal transcription of
// the paper's pseudocode (§II.B lines 1-19), using plain maps for ELT
// lookup and making no attempt at performance. It exists solely as the
// golden implementation the optimised engines are tested against.
func Reference(p *layer.Portfolio, y *yet.Table, catalogSize int) (*Result, error) {
	if p == nil || len(p.Layers) == 0 {
		return nil, ErrNilPortfolio
	}
	if y == nil {
		return nil, ErrNilYET
	}
	nt := y.NumTrials()
	res := &Result{
		LayerIDs:   make([]uint32, len(p.Layers)),
		AggLoss:    make([][]float64, len(p.Layers)),
		MaxOccLoss: make([][]float64, len(p.Layers)),
	}

	// for all a in L
	for li, a := range p.Layers {
		res.LayerIDs[li] = a.ID
		res.AggLoss[li] = make([]float64, nt)
		res.MaxOccLoss[li] = make([]float64, nt)

		maps := make([]map[catalog.EventID]float64, len(a.ELTs))
		for e, t := range a.ELTs {
			m := make(map[catalog.EventID]float64, t.Len())
			for _, rec := range t.Records() {
				if int(rec.Event) >= catalogSize {
					return nil, fmt.Errorf("%w: event %d, catalog %d", ErrEventOutside, rec.Event, catalogSize)
				}
				m[rec.Event] = rec.Loss
			}
			maps[e] = m
		}

		// for all b in YET
		for ti := 0; ti < nt; ti++ {
			trial := y.TrialEvents(ti)
			n := len(trial)
			for _, ev := range trial {
				if int(ev) >= catalogSize {
					return nil, fmt.Errorf("%w: event %d, catalog %d", ErrEventOutside, ev, catalogSize)
				}
			}

			// Lines 3-5: xd — raw loss per (ELT, occurrence).
			x := make([][]float64, len(a.ELTs))
			for e := range x {
				x[e] = make([]float64, n)
				for d := 0; d < n; d++ {
					x[e][d] = maps[e][catalog.EventID(trial[d])]
				}
			}

			// Lines 6-7: lxd — financial terms per ELT loss.
			lx := make([][]float64, len(a.ELTs))
			for e := range lx {
				lx[e] = make([]float64, n)
				for d := 0; d < n; d++ {
					if x[e][d] != 0 {
						lx[e][d] = a.ELTs[e].Terms.Apply(x[e][d])
					}
				}
			}

			// Lines 8-9: loxd — accumulate across ELTs.
			lox := make([]float64, n)
			for e := range lx {
				for d := 0; d < n; d++ {
					lox[d] += lx[e][d]
				}
			}

			res.AggLoss[li][ti], res.MaxOccLoss[li][ti] = referenceLayerTerms(a.LTerms, lox)
		}
	}
	return res, nil
}

// referenceLayerTerms is lines 10-19 of the pseudocode, one literal
// pass per line pair, shared by both oracles: it consumes the combined
// occurrence losses lox (overwriting them) and returns the trial loss
// and the largest occurrence loss net of occurrence terms.
func referenceLayerTerms(lt layer.Terms, lox []float64) (trialLoss, maxOcc float64) {
	n := len(lox)

	// Lines 10-11: occurrence terms.
	for d := 0; d < n; d++ {
		lox[d] = lt.ApplyOcc(lox[d])
		if lox[d] > maxOcc {
			maxOcc = lox[d]
		}
	}

	// Lines 12-13: running sum.
	for d := 1; d < n; d++ {
		lox[d] += lox[d-1]
	}

	// Lines 14-15: aggregate terms on the cumulative sums.
	for d := 0; d < n; d++ {
		lox[d] = lt.ApplyAgg(lox[d])
	}

	// Lines 16-17: difference back to per-occurrence payouts.
	for d := n - 1; d >= 1; d-- {
		lox[d] -= lox[d-1]
	}

	// Lines 18-19: trial loss.
	for d := 0; d < n; d++ {
		trialLoss += lox[d]
	}
	return trialLoss, maxOcc
}

// ReferenceSampled is Reference under sampled severities (§IV): the
// naive per-occurrence oracle the vectorised sampled kernels are
// tested (and benchmarked) against. For every single occurrence it
// re-derives the trial's counter stream, draws the uniform, inverts
// the normal CDF and recomputes the lognormal location parameter —
// no batching, no amortisation — using exactly the floating-point
// expressions the kernels use (rng.CounterStream, stats.InvNormCDF,
// elt.LogNormalMu), so its YLTs are bitwise identical to a sampled
// engine run with Uncertainty{Seed: seed} over the same table.
func ReferenceSampled(p *layer.Portfolio, y *yet.Table, catalogSize int, seed uint64) (*Result, error) {
	if p == nil || len(p.Layers) == 0 {
		return nil, ErrNilPortfolio
	}
	if y == nil {
		return nil, ErrNilYET
	}
	nt := y.NumTrials()
	res := &Result{
		LayerIDs:   make([]uint32, len(p.Layers)),
		AggLoss:    make([][]float64, len(p.Layers)),
		MaxOccLoss: make([][]float64, len(p.Layers)),
	}

	for li, a := range p.Layers {
		res.LayerIDs[li] = a.ID
		res.AggLoss[li] = make([]float64, nt)
		res.MaxOccLoss[li] = make([]float64, nt)

		means := make([]map[catalog.EventID]float64, len(a.ELTs))
		sigmas := make([]map[catalog.EventID]float64, len(a.ELTs))
		for e, t := range a.ELTs {
			m := make(map[catalog.EventID]float64, t.Len())
			for _, rec := range t.Records() {
				if int(rec.Event) >= catalogSize {
					return nil, fmt.Errorf("%w: event %d, catalog %d", ErrEventOutside, rec.Event, catalogSize)
				}
				m[rec.Event] = rec.Loss
			}
			means[e] = m
			if t.Sampled() {
				sm := make(map[catalog.EventID]float64, t.Len())
				for i, rec := range t.Records() {
					sm[rec.Event] = t.Sigmas()[i]
				}
				sigmas[e] = sm
			}
		}

		for ti := 0; ti < nt; ti++ {
			trial := y.TrialEvents(ti)
			n := len(trial)
			for _, ev := range trial {
				if int(ev) >= catalogSize {
					return nil, fmt.Errorf("%w: event %d, catalog %d", ErrEventOutside, ev, catalogSize)
				}
			}

			// Lines 3-5 with §IV sampling: xd per (ELT, occurrence) —
			// the stored mean for mean-only ELTs and degenerate
			// (sigma 0) records, a fresh lognormal draw otherwise.
			x := make([][]float64, len(a.ELTs))
			for e := range x {
				x[e] = make([]float64, n)
				for d := 0; d < n; d++ {
					ev := catalog.EventID(trial[d])
					mean := means[e][ev]
					if mean == 0 {
						continue
					}
					sg := 0.0
					if sigmas[e] != nil {
						sg = sigmas[e][ev]
					}
					if sg == 0 {
						x[e][d] = mean
						continue
					}
					u := rng.NewCounterStream(seed, uint64(ti)).Float64Open(uint64(ev))
					z := stats.InvNormCDF(u)
					x[e][d] = math.Exp(elt.LogNormalMu(mean, sg) + sg*z)
				}
			}

			// Lines 6-7: lxd — financial terms per ELT loss.
			lx := make([][]float64, len(a.ELTs))
			for e := range lx {
				lx[e] = make([]float64, n)
				for d := 0; d < n; d++ {
					if x[e][d] != 0 {
						lx[e][d] = a.ELTs[e].Terms.Apply(x[e][d])
					}
				}
			}

			// Lines 8-9: loxd — accumulate across ELTs.
			lox := make([]float64, n)
			for e := range lx {
				for d := 0; d < n; d++ {
					lox[d] += lx[e][d]
				}
			}

			res.AggLoss[li][ti], res.MaxOccLoss[li][ti] = referenceLayerTerms(a.LTerms, lox)
		}
	}
	return res, nil
}
