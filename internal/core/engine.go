package core

import (
	"context"
	"fmt"

	"github.com/ralab/are/internal/elt"
	"github.com/ralab/are/internal/layer"
	"github.com/ralab/are/internal/yet"
)

// NewEngine compiles a portfolio against a catalog of catalogSize events
// using the given ELT representation.
func NewEngine(p *layer.Portfolio, catalogSize int, kind LookupKind) (*Engine, error) {
	if p == nil || len(p.Layers) == 0 {
		return nil, ErrNilPortfolio
	}
	if catalogSize <= 0 {
		return nil, ErrBadCatalog
	}
	e := &Engine{catalogSize: catalogSize, kind: kind}
	// Share representations between layers that reference the same
	// *elt.Table, as real books share cedant ELTs across contracts.
	cache := make(map[*elt.Table]elt.Lookup)
	// Severity-parameter sidecars for sampled tables, likewise shared.
	// They are built at compile time regardless of the run mode —
	// whether a given Run samples is an Options decision, and engines
	// are cached across runs.
	pcache := make(map[*elt.Table]*elt.Params)
	paramsFor := func(t *elt.Table) (*elt.Params, error) {
		if !t.Sampled() {
			return nil, nil
		}
		p, ok := pcache[t]
		if !ok {
			var err error
			p, err = elt.BuildParams(t, catalogSize)
			if err != nil {
				return nil, err
			}
			pcache[t] = p
			e.lookupMem += p.MemoryBytes()
			// Fold the table's z-consuming events into the engine-wide
			// occupancy bitset: fillZ inverts the normal CDF only for
			// events some sampled record actually covers (mean and
			// sigma both positive — degenerate records read the mean,
			// not z). Engine-wide rather than per-layer so the z column
			// stays shareable across consecutive layers of one trial.
			if e.zOcc == nil {
				e.zOcc = make([]uint64, (catalogSize+63)/64)
				e.lookupMem += 8 * len(e.zOcc)
			}
			for i, rec := range t.Records() {
				if rec.Loss > 0 && t.Sigmas()[i] > 0 {
					e.zOcc[rec.Event>>6] |= 1 << (rec.Event & 63)
				}
			}
		}
		e.sampled = true
		return p, nil
	}
	for _, l := range p.Layers {
		cl := compiledLayer{id: l.ID, lterms: l.LTerms}
		if kind == LookupCombined {
			combined := make([]float64, catalogSize)
			for _, t := range l.ELTs {
				if int(t.MaxEvent()) >= catalogSize {
					return nil, fmt.Errorf("core: layer %d: event %d outside catalog of %d",
						l.ID, t.MaxEvent(), catalogSize)
				}
				// Same ELT order as the runtime accumulation of the
				// direct kernel, so the per-event sums are bitwise
				// identical.
				for _, rec := range t.Records() {
					combined[rec.Event] += t.Terms.Apply(rec.Loss)
				}
			}
			cl.steps = []gatherStep{{kind: stepCombined, combined: combined}}
			e.lookupMem += 8 * catalogSize
			e.layers = append(e.layers, cl)
			continue
		}
		if kind == LookupDirect {
			ld, err := elt.BuildLayerDense(l.ELTs, catalogSize)
			if err != nil {
				return nil, fmt.Errorf("core: layer %d: %w", l.ID, err)
			}
			cl.steps = make([]gatherStep, ld.NumELTs())
			for i := range cl.steps {
				params, err := paramsFor(l.ELTs[i])
				if err != nil {
					return nil, fmt.Errorf("core: layer %d: %w", l.ID, err)
				}
				cl.steps[i] = gatherStep{
					kind: stepDense, dense: ld, eltIdx: i,
					prog:   ld.Terms(i).Compile(),
					params: params,
				}
			}
			e.lookupMem += ld.MemoryBytes()
		} else {
			cl.steps = make([]gatherStep, len(l.ELTs))
			for i, t := range l.ELTs {
				if int(t.MaxEvent()) >= catalogSize {
					return nil, fmt.Errorf("core: layer %d: event %d outside catalog of %d",
						l.ID, t.MaxEvent(), catalogSize)
				}
				look, ok := cache[t]
				if !ok {
					var err error
					look, err = buildLookup(t, catalogSize, kind)
					if err != nil {
						return nil, err
					}
					cache[t] = look
					e.lookupMem += look.MemoryBytes()
				}
				step, err := planStep(look, t.Terms.Compile())
				if err != nil {
					return nil, fmt.Errorf("core: layer %d: %w", l.ID, err)
				}
				if step.params, err = paramsFor(t); err != nil {
					return nil, fmt.Errorf("core: layer %d: %w", l.ID, err)
				}
				cl.steps[i] = step
			}
		}
		e.layers = append(e.layers, cl)
	}
	e.plain = e.identitySweep()
	return e, nil
}

func buildLookup(t *elt.Table, catalogSize int, kind LookupKind) (elt.Lookup, error) {
	switch kind {
	case LookupDirect:
		return elt.NewDirect(t, catalogSize)
	case LookupSorted:
		return elt.NewSorted(t), nil
	case LookupHash:
		return elt.NewHash(t), nil
	case LookupCuckoo:
		return elt.NewCuckoo(t), nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownLookup, kind)
	}
}

// CatalogSize returns the catalog size the engine was compiled against.
func (e *Engine) CatalogSize() int { return e.catalogSize }

// NumLayers returns the number of compiled layers.
func (e *Engine) NumLayers() int { return len(e.layers) }

// LookupKind returns the compiled ELT representation.
func (e *Engine) LookupKind() LookupKind { return e.kind }

// LookupMemory returns the total bytes held by ELT representations.
func (e *Engine) LookupMemory() int { return e.lookupMem }

// Sampled reports whether any compiled ELT carries severity
// parameters, i.e. UncertaintySampled runs would actually sample.
func (e *Engine) Sampled() bool { return e.sampled }

// Run executes the aggregate analysis of every compiled layer over every
// trial of y and returns the Year Loss Tables. It is the materialising
// entry point over the streaming pipeline: an in-memory TrialSource
// feeds the orchestrator and a FullYLT sink collects every cell, so
// results are bitwise identical under every scheduling policy.
func (e *Engine) Run(y *yet.Table, opt Options) (*Result, error) {
	if y == nil {
		return nil, ErrNilYET
	}
	if !opt.SkipValidation {
		// Whole-table validation up front preserves the classic
		// contract: no partial work before the error surfaces.
		if err := e.validate(y); err != nil {
			return nil, err
		}
		opt.SkipValidation = true
	}
	return e.runMaterialised(context.Background(), NewTableSource(y), opt)
}

// validate scans the YET's event column once, rejecting event IDs
// outside the catalog so the direct-table kernels can index without
// bounds anxiety.
func (e *Engine) validate(y *yet.Table) error {
	for t := 0; t < y.NumTrials(); t++ {
		for _, ev := range y.TrialEvents(t) {
			if int(ev) >= e.catalogSize {
				return fmt.Errorf("%w: event %d, catalog %d", ErrEventOutside, ev, e.catalogSize)
			}
		}
	}
	return nil
}

// LayerIDs returns the compiled layer IDs in layer index order — the
// order sinks index layers by and the identity shard results carry.
func (e *Engine) LayerIDs() []uint32 { return e.layerIDs() }
