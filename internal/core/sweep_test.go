package core

// The scenario-sweep oracle (the tentpole's safety net): every variant
// of a fused sweep must be bitwise identical to a plain run of an
// engine compiled on the delta-applied portfolio — in particular,
// variant 0 with an empty delta must reproduce today's single-run YLT
// exactly — for every LookupKind × kernel {basic, chunked, profiled} ×
// worker count. The fixture is the columnar test's deliberately nasty
// portfolio (all four financial program classes, a zero-loss record,
// empty trials, events absent from every ELT).

import (
	"fmt"
	"math"
	"testing"

	"github.com/ralab/are/internal/elt"
	"github.com/ralab/are/internal/layer"
	"github.com/ralab/are/internal/rng"
	"github.com/ralab/are/internal/yet"
)

func fptr(v float64) *float64 { return &v }

// sweepVariantsFanOut exercises both the layer-term and the share axes,
// forcing the per-ELT program fan-out path (participation scales != 1).
func sweepVariantsFanOut() []Variant {
	return []Variant{
		{Name: "base"}, // the empty delta: must be bitwise identical to a plain run
		{Name: "higher-attach", OccRetention: fptr(5_000), OccLimit: fptr(30_000)},
		{Name: "half-share", ParticipationScale: 0.5},
		{Name: "restructured", AggRetention: fptr(10_000), AggLimit: fptr(150_000), ParticipationScale: 0.8},
	}
}

// sweepVariantsLayerOnly varies only layer terms, exercising the
// shared-gather fast path (one lox buffer serves every variant).
func sweepVariantsLayerOnly() []Variant {
	return []Variant{
		{Name: "base"},
		{Name: "low-attach", OccRetention: fptr(500)},
		{Name: "stop-loss", AggRetention: fptr(20_000), AggLimit: fptr(100_000)},
		{Name: "saturating", AggRetention: fptr(2_000), AggLimit: fptr(30_000)},
	}
}

// variedPortfolio applies one variant's deltas to a fresh portfolio —
// the naive oracle's input: what re-running the whole pipeline on the
// restructured book would evaluate.
func variedPortfolio(t testing.TB, p *layer.Portfolio, v Variant) *layer.Portfolio {
	t.Helper()
	cache := map[*elt.Table]*elt.Table{}
	out := &layer.Portfolio{}
	for _, l := range p.Layers {
		tables := make([]*elt.Table, len(l.ELTs))
		for i, tab := range l.ELTs {
			if !v.scalesFinancial() {
				tables[i] = tab
				continue
			}
			nt, ok := cache[tab]
			if !ok {
				terms, err := v.financialTerms(tab.Terms)
				if err != nil {
					t.Fatal(err)
				}
				nt, err = elt.New(tab.ID, terms, append([]elt.Record(nil), tab.Records()...))
				if err != nil {
					t.Fatal(err)
				}
				cache[tab] = nt
			}
			tables[i] = nt
		}
		nl, err := layer.New(l.ID, l.Name, tables, v.LayerTerms(l.LTerms))
		if err != nil {
			t.Fatal(err)
		}
		out.Layers = append(out.Layers, nl)
	}
	return out
}

func assertBitwise(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if len(got.AggLoss) != len(want.AggLoss) {
		t.Fatalf("%s: layer count %d != %d", ctx, len(got.AggLoss), len(want.AggLoss))
	}
	for l := range want.AggLoss {
		for tr := range want.AggLoss[l] {
			if math.Float64bits(got.AggLoss[l][tr]) != math.Float64bits(want.AggLoss[l][tr]) {
				t.Fatalf("%s: layer %d trial %d agg %v != %v",
					ctx, l, tr, got.AggLoss[l][tr], want.AggLoss[l][tr])
			}
			if math.Float64bits(got.MaxOccLoss[l][tr]) != math.Float64bits(want.MaxOccLoss[l][tr]) {
				t.Fatalf("%s: layer %d trial %d maxOcc %v != %v",
					ctx, l, tr, got.MaxOccLoss[l][tr], want.MaxOccLoss[l][tr])
			}
		}
	}
}

// TestSweepMatchesNaiveRuns is the oracle sweep: for both variant sets
// (fan-out and shared-gather), every LookupKind, every kernel and both
// worker counts, each fused variant must equal the naive per-variant
// run bitwise — and, since the naive run is the same kernel over the
// identity plan, the reference oracle of the delta-applied portfolio
// too.
func TestSweepMatchesNaiveRuns(t *testing.T) {
	p := columnarPortfolio(t)
	y := columnarYET(t)

	kinds := []LookupKind{LookupDirect, LookupSorted, LookupHash, LookupCuckoo, LookupCombined}
	kernels := []struct {
		name string
		opt  Options
	}{
		{"basic", Options{}},
		{"chunked", Options{ChunkSize: 8}},
		{"profiled", Options{Profile: true}},
	}
	variantSets := []struct {
		name     string
		variants []Variant
	}{
		{"fanout", sweepVariantsFanOut()},
		{"layer-only", sweepVariantsLayerOnly()},
	}

	for _, vs := range variantSets {
		// Naive oracle per variant: an engine compiled on the
		// delta-applied portfolio, run per kind × kernel below.
		varied := make([]*layer.Portfolio, len(vs.variants))
		oracle := make([]*Result, len(vs.variants))
		for k, v := range vs.variants {
			varied[k] = variedPortfolio(t, p, v)
			var err error
			if oracle[k], err = Reference(varied[k], y, columnarCatalog); err != nil {
				t.Fatal(err)
			}
		}
		for _, kind := range kinds {
			sw, err := NewSweepEngine(p, columnarCatalog, kind, vs.variants)
			if err != nil {
				t.Fatal(err)
			}
			naive := make([]*Engine, len(vs.variants))
			for k := range vs.variants {
				if naive[k], err = NewEngine(varied[k], columnarCatalog, kind); err != nil {
					t.Fatal(err)
				}
			}
			for _, kr := range kernels {
				for _, workers := range []int{1, 4} {
					opt := kr.opt
					opt.Lookup = kind
					opt.Workers = workers
					got, err := sw.Run(y, opt)
					if err != nil {
						t.Fatal(err)
					}
					for k, v := range vs.variants {
						want, err := naive[k].Run(y, opt)
						if err != nil {
							t.Fatal(err)
						}
						ctx := fmt.Sprintf("%s/%s/%s/workers=%d/variant=%d(%s)",
							vs.name, kind, kr.name, workers, k, v.Name)
						assertBitwise(t, ctx, got[k], want)
						assertBitwise(t, ctx+"/oracle", got[k], oracle[k])
					}
				}
			}
		}
	}
}

// TestSweepVariantZeroIsPlainRun pins the headline contract directly:
// variant 0 with the empty delta — gathered through the fan-out plan —
// and the plain run — the identity plan's shared gather — both
// reproduce the reference oracle of the unmodified portfolio, bitwise,
// under dynamic scheduling too.
func TestSweepVariantZeroIsPlainRun(t *testing.T) {
	p := columnarPortfolio(t)
	y := columnarYET(t)
	want, err := Reference(p, y, columnarCatalog)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []LookupKind{LookupDirect, LookupSorted, LookupHash, LookupCuckoo, LookupCombined} {
		e, err := NewEngine(p, columnarCatalog, kind)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := e.CompileSweep(p, sweepVariantsFanOut())
		if err != nil {
			t.Fatal(err)
		}
		plain, err := e.Run(y, Options{Lookup: kind, Workers: 3, Dynamic: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sw.Run(y, Options{Lookup: kind, Workers: 3, Dynamic: true})
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, kind.String()+"/plain", plain, want)
		assertBitwise(t, kind.String()+"/variant0", got[0], want)
	}
}

// TestSweepPipelineVariantSinks drives the sweep through the streaming
// pipeline into VariantSinks over materialising members, checking the
// demultiplexed stream equals SweepEngine.Run.
func TestSweepPipelineVariantSinks(t *testing.T) {
	p := columnarPortfolio(t)
	y := columnarYET(t)
	sw, err := NewSweepEngine(p, columnarCatalog, LookupDirect, sweepVariantsFanOut())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sw.Run(y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fulls := make([]*FullYLT, sw.NumVariants())
	sinks := make([]Sink, sw.NumVariants())
	for k := range fulls {
		fulls[k] = NewFullYLT()
		sinks[k] = fulls[k]
	}
	vs := NewVariantSinks(sinks...)
	if _, err := sw.RunPipeline(NewTableSource(y), vs, Options{Workers: 3, Dynamic: true}); err != nil {
		t.Fatal(err)
	}
	for k := range fulls {
		assertBitwise(t, fmt.Sprintf("variant %d", k), fulls[k].Result(), want[k])
	}
	// Each member must have seen the base engine's layer IDs, not the
	// flattened space.
	for k := range fulls {
		ids := fulls[k].Result().LayerIDs
		if len(ids) != sw.Base().NumLayers() {
			t.Fatalf("variant %d sink saw %d layers, want %d", k, len(ids), sw.Base().NumLayers())
		}
	}
}

// TestSweepLayerTermsMatchesReference holds the kernel's single-pass
// layer terms to the oracle's line-by-line transcription
// (referenceLayerTerms) over random inputs, bitwise — including empty
// trials, occurrences the retention zeroes out and trials that saturate
// the aggregate limit, each asserted to occur.
func TestSweepLayerTermsMatchesReference(t *testing.T) {
	r := rng.New(23)
	var empty, zeroed, saturated int
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(40)
		lox := make([]float64, n)
		for i := range lox {
			lox[i] = r.Range(0, 100_000)
		}
		lt := layer.Terms{
			OccRetention: r.Range(0, 20_000),
			OccLimit:     r.Range(1, 80_000),
			AggRetention: r.Range(0, 100_000),
			AggLimit:     r.Range(1, 500_000),
		}
		gotAgg, gotMax := sweepLayerTerms(lt, lox)
		for _, l := range lox {
			if lt.ApplyOcc(l) == 0 {
				zeroed++
			}
		}
		wantAgg, wantMax := referenceLayerTerms(lt, append([]float64(nil), lox...))

		if math.Float64bits(gotAgg) != math.Float64bits(wantAgg) ||
			math.Float64bits(gotMax) != math.Float64bits(wantMax) {
			t.Fatalf("trial %d: kernel (%v, %v) != reference (%v, %v)",
				trial, gotAgg, gotMax, wantAgg, wantMax)
		}
		if n == 0 {
			empty++
		}
		if gotAgg == lt.AggLimit {
			saturated++
		}
	}
	if empty == 0 || zeroed == 0 || saturated == 0 {
		t.Fatalf("fixture missed an edge: %d empty, %d zeroed occurrences, %d saturated", empty, zeroed, saturated)
	}
}

// TestCompileSweepErrors covers the compile-time rejections.
func TestCompileSweepErrors(t *testing.T) {
	p := columnarPortfolio(t)
	e, err := NewEngine(p, columnarCatalog, LookupDirect)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CompileSweep(p, nil); err != ErrNoVariants {
		t.Fatalf("no variants: got %v", err)
	}
	if _, err := e.CompileSweep(nil, []Variant{{}}); err != ErrNilSweepPortfolio {
		t.Fatalf("nil portfolio: got %v", err)
	}
	if _, err := e.CompileSweep(p, []Variant{{ParticipationScale: -1}}); err == nil {
		t.Fatal("negative scale accepted")
	}
	if _, err := e.CompileSweep(p, []Variant{{ParticipationScale: 4}}); err == nil {
		t.Fatal("scale pushing participation above 1 accepted")
	}
	if _, err := e.CompileSweep(p, []Variant{{OccLimit: fptr(-5)}}); err == nil {
		t.Fatal("invalid layer override accepted")
	}
	other := &layer.Portfolio{Layers: p.Layers[:1]}
	if _, err := e.CompileSweep(other, []Variant{{}}); err == nil {
		t.Fatal("mismatched portfolio accepted")
	}
}

// TestVariantSinksBeginMismatch rejects a flattened layer space that
// does not split evenly across the member sinks.
func TestVariantSinksBeginMismatch(t *testing.T) {
	vs := NewVariantSinks(NewFullYLT(), NewFullYLT())
	if err := vs.Begin([]uint32{1, 2, 3}, 10); err == nil {
		t.Fatal("uneven split accepted")
	}
	if err := NewVariantSinks().Begin([]uint32{1, 2}, 10); err == nil {
		t.Fatal("empty sink set accepted")
	}
}

// TestSweepEmptyTrials checks a sweep over a table with empty trials
// emits exact zeros for them in every variant (the n==0 early-out).
func TestSweepEmptyTrials(t *testing.T) {
	p := columnarPortfolio(t)
	y, err := yet.Generate(yet.UniformSource(columnarCatalog), yet.Config{
		Seed: 31, Trials: 64, MeanEvents: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSweepEngine(p, columnarCatalog, LookupDirect, sweepVariantsFanOut())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run(y, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for tr := 0; tr < y.NumTrials(); tr++ {
		if y.TrialLen(tr) != 0 {
			continue
		}
		for k := range res {
			for l := range res[k].AggLoss {
				if res[k].AggLoss[l][tr] != 0 || res[k].MaxOccLoss[l][tr] != 0 {
					t.Fatalf("variant %d layer %d empty trial %d: non-zero result", k, l, tr)
				}
			}
		}
	}
}

// TestSweepProfiledPhases pins Engine.Run parity for profiling: a
// profiled sweep run must return the fused pass's phase breakdown on
// every variant's Result instead of silently dropping it.
func TestSweepProfiledPhases(t *testing.T) {
	p := columnarPortfolio(t)
	y := columnarYET(t)
	sw, err := NewSweepEngine(p, columnarCatalog, LookupDirect, sweepVariantsLayerOnly())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run(y, Options{Profile: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Phases.Total() <= 0 {
		t.Fatal("profiled sweep returned zero phase breakdown")
	}
	for k := 1; k < len(res); k++ {
		if res[k].Phases != res[0].Phases {
			t.Fatalf("variant %d breakdown differs from variant 0", k)
		}
	}
	// Unprofiled runs stay zero.
	plain, err := sw.Run(y, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].Phases.Total() != 0 {
		t.Fatal("unprofiled sweep carries phase times")
	}
}
