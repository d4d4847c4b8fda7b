package core

// Scenario-sweep execution: evaluate K term/share variants of one
// portfolio in a single streaming pass over the trials.
//
// The paper's §III analysis says the engine is memory-bound: the random
// ELT lookups and the event-ID stream dominate, the financial-terms
// arithmetic is nearly free. A pricing sweep over K candidate
// structures — vary the attachment, the occurrence/aggregate limits,
// the share — therefore should not re-run the pipeline K times and
// re-pay the gather each time. A SweepEngine compiles the variant set
// against a base engine and the kernels split per trial into
//
//   - one gather phase, paid once: each (ELT, trial) event column is
//     looked up exactly once (into worker scratch when variants alter
//     financial terms, straight into the occurrence-loss buffer when
//     they do not), and
//   - a fan-out phase, paid K times but branch-predictable and
//     cache-hot: per-variant compiled financial programs applied to the
//     gathered losses (elt.ApplyInto), then per-variant layer terms.
//
// Results are delivered through the same Sink interface with the layer
// index flattened to variant*NumLayers+layer; VariantSinks (sink.go)
// demultiplexes that stream into one ordinary sink per variant.
//
// A plain run is the degenerate sweep: NewEngine lowers the one-variant
// identity plan (identitySweep) and Engine.RunPipeline executes it
// through the same kernel, so there is one loop nest to hold to the
// reference oracle.
//
// Bitwise contract: every variant is bitwise identical to a plain run
// of an engine compiled on the delta-applied portfolio, for every
// LookupKind and kernel — the fan-out loops replicate the shared
// gathers' floating-point operation sequence (asserted by the oracle
// sweep in sweep_test.go).

import (
	"context"
	"errors"
	"fmt"

	"github.com/ralab/are/internal/financial"
	"github.com/ralab/are/internal/layer"
	"github.com/ralab/are/internal/yet"
)

// Variant describes one candidate reinsurance structure as deltas on
// the base portfolio: layer-term overrides (nil inherits the base
// layer's value) plus an ELT participation scale. The zero Variant is
// the empty delta — it reproduces the base portfolio bitwise.
type Variant struct {
	// Name labels the variant in results ("50M xs 10M", "60% share").
	Name string

	// Layer-term overrides, applied to every layer of the portfolio.
	// nil inherits the base layer's term.
	OccRetention *float64 // attachment
	OccLimit     *float64
	AggRetention *float64
	AggLimit     *float64

	// ParticipationScale multiplies every ELT's participation — the
	// "vary the share" axis. 0 and 1 both mean unchanged. Scaled
	// participations must stay in (0, 1].
	ParticipationScale float64
}

// LayerTerms returns base with the variant's layer-term overrides
// applied — the terms the sweep evaluates (and prices) this variant's
// layers under.
func (v Variant) LayerTerms(base layer.Terms) layer.Terms {
	if v.OccRetention != nil {
		base.OccRetention = *v.OccRetention
	}
	if v.OccLimit != nil {
		base.OccLimit = *v.OccLimit
	}
	if v.AggRetention != nil {
		base.AggRetention = *v.AggRetention
	}
	if v.AggLimit != nil {
		base.AggLimit = *v.AggLimit
	}
	return base
}

// scalesFinancial reports whether the variant alters ELT financial
// terms (forcing the fan-out gather path on its layers).
func (v Variant) scalesFinancial() bool {
	return v.ParticipationScale != 0 && v.ParticipationScale != 1
}

// financialTerms returns the variant's effective financial terms for
// one ELT. Unchanged variants return base untouched (no arithmetic).
func (v Variant) financialTerms(base financial.Terms) (financial.Terms, error) {
	if !v.scalesFinancial() {
		return base, nil
	}
	return financial.ScaleParticipation(base, v.ParticipationScale)
}

// sweepLayer is one layer lowered for the variant set: per-variant
// layer terms always; per-ELT sweep steps only when some variant alters
// financial terms (otherwise the base plan's gather serves every
// variant and steps stays nil — the shared-gather fast path).
type sweepLayer struct {
	base   *compiledLayer
	steps  []sweepStep   // nil => shared gather
	lterms []layer.Terms // one per variant
}

// shared reports whether one gathered occurrence-loss buffer serves
// every variant of this layer.
func (sl *sweepLayer) shared() bool { return sl.steps == nil }

// SweepEngine is a base engine paired with K compiled variants, ready
// to evaluate all of them in one pass over any YET. Like Engine it is
// immutable after construction and safe for concurrent use.
type SweepEngine struct {
	e        *Engine
	variants []Variant
	layers   []sweepLayer
	extraMem int // per-variant combined tables beyond the base engine's
}

// Sweep compilation errors.
var (
	ErrNoVariants        = errors.New("core: sweep needs at least one variant")
	ErrSweepPortfolio    = errors.New("core: sweep portfolio does not match the compiled engine")
	ErrNilSweepPortfolio = errors.New("core: sweep needs the engine's source portfolio")
)

// NewSweepEngine compiles the portfolio and the variant set in one
// call. Use Engine.CompileSweep instead when a compiled base engine is
// already at hand (e.g. from an artifact cache) — variants share its
// lookup structures.
func NewSweepEngine(p *layer.Portfolio, catalogSize int, kind LookupKind, variants []Variant) (*SweepEngine, error) {
	e, err := NewEngine(p, catalogSize, kind)
	if err != nil {
		return nil, err
	}
	return e.CompileSweep(p, variants)
}

// CompileSweep lowers the variant set against this engine. p must be
// the portfolio the engine was compiled from — the sweep reuses the
// engine's lookup representations and needs the portfolio only for the
// base financial terms (and, under LookupCombined, the records to fold
// per-variant tables from). Compilation is cheap relative to engine
// construction: programs are a classification pass, and only
// share-varying sweeps under LookupCombined build new tables.
func (e *Engine) CompileSweep(p *layer.Portfolio, variants []Variant) (*SweepEngine, error) {
	if len(variants) == 0 {
		return nil, ErrNoVariants
	}
	if p == nil {
		return nil, ErrNilSweepPortfolio
	}
	if len(p.Layers) != len(e.layers) {
		return nil, fmt.Errorf("%w: %d layers vs %d compiled", ErrSweepPortfolio, len(p.Layers), len(e.layers))
	}
	anyFin := false
	for _, v := range variants {
		if v.scalesFinancial() {
			anyFin = true
			break
		}
	}

	sw := &SweepEngine{e: e, variants: append([]Variant(nil), variants...)}
	sw.layers = make([]sweepLayer, len(e.layers))
	for li := range e.layers {
		cl := &e.layers[li]
		l := p.Layers[li]
		if l.ID != cl.id {
			return nil, fmt.Errorf("%w: layer %d has id %d, engine compiled id %d",
				ErrSweepPortfolio, li, l.ID, cl.id)
		}
		if !cl.isCombined() && len(cl.steps) != len(l.ELTs) {
			return nil, fmt.Errorf("%w: layer %d covers %d ELTs, engine compiled %d steps",
				ErrSweepPortfolio, l.ID, len(l.ELTs), len(cl.steps))
		}

		sl := sweepLayer{base: cl, lterms: make([]layer.Terms, len(variants))}
		for k, v := range variants {
			lt := v.LayerTerms(l.LTerms)
			if err := lt.Validate(); err != nil {
				return nil, fmt.Errorf("core: sweep variant %d (%s), layer %d: %w", k, v.Name, l.ID, err)
			}
			sl.lterms[k] = lt
		}

		if anyFin {
			steps, mem, err := e.sweepSteps(l, cl, variants)
			if err != nil {
				return nil, err
			}
			sl.steps = steps
			sw.extraMem += mem
		}
		sw.layers[li] = sl
	}
	return sw, nil
}

// identitySweep lowers the engine itself as the sweep of the empty
// delta: one variant, every layer shared, the compiled layer terms
// verbatim. NewEngine builds it once, so a plain run pays no per-run
// compile.
func (e *Engine) identitySweep() *SweepEngine {
	sw := &SweepEngine{e: e, variants: []Variant{{}}, layers: make([]sweepLayer, len(e.layers))}
	for li := range e.layers {
		cl := &e.layers[li]
		sw.layers[li] = sweepLayer{base: cl, lterms: []layer.Terms{cl.lterms}}
	}
	return sw
}

// sweepSteps lowers one layer's per-variant financial programs (or, for
// a combined layer, its per-variant folded tables). Returns the extra
// memory the variant tables cost beyond the base engine's.
func (e *Engine) sweepSteps(l *layer.Layer, cl *compiledLayer, variants []Variant) ([]sweepStep, int, error) {
	if cl.isCombined() {
		base := &cl.steps[0]
		combinedK := make([][]float64, len(variants))
		mem := 0
		for k, v := range variants {
			if !v.scalesFinancial() {
				combinedK[k] = base.combined
				continue
			}
			// Fold the variant's table exactly as NewEngine folds the
			// base one: same ELT order, same per-event accumulation, so
			// the variant is bitwise identical to a plain LookupCombined
			// compile of the delta-applied portfolio.
			tbl := make([]float64, e.catalogSize)
			for _, t := range l.ELTs {
				vt, err := v.financialTerms(t.Terms)
				if err != nil {
					return nil, 0, fmt.Errorf("core: sweep variant %d (%s), layer %d, elt %d: %w",
						k, v.Name, l.ID, t.ID, err)
				}
				for _, rec := range t.Records() {
					tbl[rec.Event] += vt.Apply(rec.Loss)
				}
			}
			combinedK[k] = tbl
			mem += 8 * e.catalogSize
		}
		return []sweepStep{{base: *base, combinedK: combinedK}}, mem, nil
	}

	steps := make([]sweepStep, len(cl.steps))
	vterms := make([]financial.Terms, len(variants))
	for i := range cl.steps {
		for k, v := range variants {
			vt, err := v.financialTerms(l.ELTs[i].Terms)
			if err != nil {
				return nil, 0, fmt.Errorf("core: sweep variant %d (%s), layer %d, elt %d: %w",
					k, v.Name, l.ID, l.ELTs[i].ID, err)
			}
			vterms[k] = vt
		}
		// Compile is deterministic, so an unchanged variant's program
		// equals the base step's verbatim and its fan-out stays bitwise
		// identical to the plain gather.
		steps[i] = sweepStep{base: cl.steps[i], progs: financial.CompileAll(vterms)}
	}
	return steps, 0, nil
}

// NumVariants returns the number of compiled variants.
func (s *SweepEngine) NumVariants() int { return len(s.variants) }

// Variants returns a copy of the compiled variant set, in index order.
func (s *SweepEngine) Variants() []Variant { return append([]Variant(nil), s.variants...) }

// Base returns the base engine the sweep was compiled against.
func (s *SweepEngine) Base() *Engine { return s.e }

// LookupMemory returns the total bytes held by ELT representations,
// including per-variant combined tables.
func (s *SweepEngine) LookupMemory() int { return s.e.lookupMem + s.extraMem }

// flatLayerIDs returns the sweep's flattened (variant-major) layer IDs:
// slot k*NumLayers+l carries variant k's copy of layer l. This is the
// layer-index space sweep sinks see; VariantSinks splits it back.
func (s *SweepEngine) flatLayerIDs() []uint32 {
	base := s.e.layerIDs()
	ids := make([]uint32, 0, len(s.variants)*len(base))
	for range s.variants {
		ids = append(ids, base...)
	}
	return ids
}

// RunPipeline evaluates every variant in one streaming pass: workers
// pull trial spans from src and deliver per-variant results to sink
// with the layer index flattened to variant*NumLayers+layer (wrap
// per-variant sinks in VariantSinks to demultiplex). Scheduling,
// cancellation and Options behave exactly as Engine.RunPipeline — it
// is the same orchestrator (RunPipelineContext, pipeline.go).
func (s *SweepEngine) RunPipeline(src TrialSource, sink Sink, opt Options) (PhaseBreakdown, error) {
	return s.RunPipelineContext(context.Background(), src, sink, opt)
}

// Run evaluates every variant over y and materialises one Result per
// variant, in variant order — the sweep counterpart of Engine.Run.
// Result k is bitwise identical to Engine.Run on an engine compiled
// from the variant-k-applied portfolio, except that Phases (profiled
// runs) carries the fused pass's aggregate breakdown — the run is
// shared, so every variant reports the same breakdown, which is the
// point: the gather is paid once for all of them.
func (s *SweepEngine) Run(y *yet.Table, opt Options) ([]*Result, error) {
	if y == nil {
		return nil, ErrNilYET
	}
	if !opt.SkipValidation {
		if err := s.e.validate(y); err != nil {
			return nil, err
		}
		opt.SkipValidation = true
	}
	fulls := make([]*FullYLT, len(s.variants))
	sinks := make([]Sink, len(s.variants))
	for k := range fulls {
		fulls[k] = NewFullYLT()
		sinks[k] = fulls[k]
	}
	phases, err := s.RunPipelineContext(context.Background(), NewTableSource(y), NewVariantSinks(sinks...), opt)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(fulls))
	for k := range fulls {
		out[k] = fulls[k].Result()
		out[k].Phases = phases
		out[k].LookupMemory = s.LookupMemory()
	}
	return out, nil
}
