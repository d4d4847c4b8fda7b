package core

// The columnar-refactor equivalence sweep (the tentpole's safety net):
// every LookupKind × kernel {basic, chunked, profiled} × worker count
// must reproduce the map-based reference oracle bitwise — the oracle
// reads row-oriented occurrence views (yet.Table.Trial, the AoS path)
// while the engines consume the raw event columns, so agreement pins
// the layout refactor end to end. The fixture is deliberately nasty:
// financial terms spanning every compiled program class, an explicit
// zero-loss record, empty trials, and events with no loss in any ELT.

import (
	"fmt"
	"math"
	"testing"

	"github.com/ralab/are/internal/catalog"
	"github.com/ralab/are/internal/elt"
	"github.com/ralab/are/internal/financial"
	"github.com/ralab/are/internal/layer"
	"github.com/ralab/are/internal/rng"
	"github.com/ralab/are/internal/yet"
)

const columnarCatalog = 2_000

// columnarPortfolio builds layers whose ELT terms cover all four
// financial.Program op classes, with zero-loss records included.
func columnarPortfolio(t testing.TB) *layer.Portfolio {
	t.Helper()
	terms := []financial.Terms{
		financial.Default(), // identity
		{FX: 1.15, EventLimit: financial.Unlimited, Participation: 0.5},                   // scale
		{FX: 1, EventRetention: 2_000, EventLimit: financial.Unlimited, Participation: 1}, // no-limit
		{FX: 0.9, EventRetention: 1_000, EventLimit: 60_000, Participation: 0.8},          // general
	}
	r := rng.New(5)
	var tables []*elt.Table
	for i, tm := range terms {
		recs := make([]elt.Record, 0, 300)
		seen := map[catalog.EventID]bool{}
		for len(recs) < 300 {
			ev := catalog.EventID(r.Intn(columnarCatalog))
			if seen[ev] {
				continue
			}
			seen[ev] = true
			loss := 500 + 40_000*r.Float64()
			if len(recs) == 0 {
				loss = 0 // explicit zero-loss record: present but silent
			}
			recs = append(recs, elt.Record{Event: ev, Loss: loss})
		}
		tab, err := elt.New(uint32(i+1), tm, recs)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tab)
	}
	l1, err := layer.New(1, "all-op-classes", tables, layer.Terms{
		OccRetention: 1_000, OccLimit: 40_000, AggRetention: 5_000, AggLimit: 200_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := layer.New(2, "pass-through", tables[:2], layer.PassThrough())
	if err != nil {
		t.Fatal(err)
	}
	return &layer.Portfolio{Layers: []*layer.Layer{l1, l2}}
}

// columnarYET draws short trials (Poisson mean 3) so a meaningful
// fraction are empty, plus many events that miss every ELT.
func columnarYET(t testing.TB) *yet.Table {
	t.Helper()
	y, err := yet.Generate(yet.UniformSource(columnarCatalog), yet.Config{
		Seed: 17, Trials: 400, MeanEvents: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for i := 0; i < y.NumTrials(); i++ {
		if y.TrialLen(i) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("fixture produced no empty trials; lower MeanEvents")
	}
	return y
}

// TestColumnarKernelsMatchOracle sweeps every lookup representation and
// kernel against the reference oracle, asserting bitwise identity — over
// the base fixture and over a tight stop-loss restructuring of it whose
// aggregate limit saturates (asserted), the case the base terms never
// reach.
func TestColumnarKernelsMatchOracle(t *testing.T) {
	base := columnarPortfolio(t)
	y := columnarYET(t)
	stopLoss := variedPortfolio(t, base, Variant{AggRetention: fptr(2_000), AggLimit: fptr(30_000)})
	fixtures := []struct {
		name      string
		p         *layer.Portfolio
		saturates bool
	}{
		{"base", base, false},
		{"stop-loss", stopLoss, true},
	}

	kinds := []LookupKind{LookupDirect, LookupSorted, LookupHash, LookupCuckoo, LookupCombined}
	kernels := []struct {
		name string
		opt  Options
	}{
		{"basic", Options{}},
		{"chunked", Options{ChunkSize: 8}},
		{"profiled", Options{Profile: true}},
	}
	for _, fx := range fixtures {
		want, err := Reference(fx.p, y, columnarCatalog)
		if err != nil {
			t.Fatal(err)
		}
		if fx.saturates {
			saturated := 0
			for _, v := range want.AggLoss[0] {
				if v == fx.p.Layers[0].LTerms.AggLimit {
					saturated++
				}
			}
			if saturated == 0 {
				t.Fatalf("%s: no trial saturates the aggregate limit; tighten it", fx.name)
			}
		}
		for _, kind := range kinds {
			e, err := NewEngine(fx.p, columnarCatalog, kind)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range kernels {
				for _, workers := range []int{1, 4} {
					opt := k.opt
					opt.Lookup = kind
					opt.Workers = workers
					got, err := e.Run(y, opt)
					if err != nil {
						t.Fatal(err)
					}
					ctx := fmt.Sprintf("%s/%s/%s/workers=%d", fx.name, kind, k.name, workers)
					for l := range want.AggLoss {
						for tr := range want.AggLoss[l] {
							if math.Float64bits(got.AggLoss[l][tr]) != math.Float64bits(want.AggLoss[l][tr]) {
								t.Fatalf("%s: layer %d trial %d agg %v != oracle %v",
									ctx, l, tr, got.AggLoss[l][tr], want.AggLoss[l][tr])
							}
							if math.Float64bits(got.MaxOccLoss[l][tr]) != math.Float64bits(want.MaxOccLoss[l][tr]) {
								t.Fatalf("%s: layer %d trial %d maxOcc %v != oracle %v",
									ctx, l, tr, got.MaxOccLoss[l][tr], want.MaxOccLoss[l][tr])
							}
						}
					}
				}
			}
		}
	}
}

// TestEmitBatchSpansTileExactly runs the pipeline into a counting sink
// and checks every (layer, trial) cell arrives exactly once through
// the batched path, matching the materialised result bitwise.
func TestEmitBatchSpansTileExactly(t *testing.T) {
	p := columnarPortfolio(t)
	y := columnarYET(t)
	e, err := NewEngine(p, columnarCatalog, LookupDirect)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Run(y, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		sink := &collectSink{}
		if _, err := e.RunPipeline(NewTableSource(y), sink, Options{Workers: workers, Dynamic: true}); err != nil {
			t.Fatal(err)
		}
		for l := range sink.agg {
			for tr := range sink.agg[l] {
				if sink.seen[l][tr] != 1 {
					t.Fatalf("workers=%d: cell (%d,%d) delivered %d times", workers, l, tr, sink.seen[l][tr])
				}
				if math.Float64bits(sink.agg[l][tr]) != math.Float64bits(want.AggLoss[l][tr]) {
					t.Fatalf("workers=%d: cell (%d,%d) differs from materialised run", workers, l, tr)
				}
			}
		}
	}
}
