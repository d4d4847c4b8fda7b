package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/ralab/are/internal/layer"
	"github.com/ralab/are/internal/yet"
)

const testCatalog = 50000

func testPortfolio(t testing.TB, layers, eltsPerLayer, records int) *layer.Portfolio {
	t.Helper()
	p, err := layer.GeneratePortfolio(layer.GenConfig{
		Seed:          7,
		NumLayers:     layers,
		ELTsPerLayer:  eltsPerLayer,
		RecordsPerELT: records,
		CatalogSize:   testCatalog,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testYET(t testing.TB, trials int, meanEvents float64) *yet.Table {
	t.Helper()
	y, err := yet.Generate(yet.UniformSource(testCatalog), yet.Config{
		Seed: 11, Trials: trials, MeanEvents: meanEvents,
	})
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func run(t testing.TB, p *layer.Portfolio, y *yet.Table, opt Options) *Result {
	t.Helper()
	e, err := NewEngine(p, testCatalog, opt.Lookup)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(y, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertResultsEqual(t *testing.T, a, b *Result, context string) {
	t.Helper()
	if len(a.AggLoss) != len(b.AggLoss) {
		t.Fatalf("%s: layer counts differ", context)
	}
	for l := range a.AggLoss {
		for tr := range a.AggLoss[l] {
			if a.AggLoss[l][tr] != b.AggLoss[l][tr] {
				t.Fatalf("%s: layer %d trial %d: agg %v != %v",
					context, l, tr, a.AggLoss[l][tr], b.AggLoss[l][tr])
			}
			if a.MaxOccLoss[l][tr] != b.MaxOccLoss[l][tr] {
				t.Fatalf("%s: layer %d trial %d: maxOcc %v != %v",
					context, l, tr, a.MaxOccLoss[l][tr], b.MaxOccLoss[l][tr])
			}
		}
	}
}

func TestEngineMatchesReference(t *testing.T) {
	p := testPortfolio(t, 3, 5, 2000)
	y := testYET(t, 200, 80)
	want, err := Reference(p, y, testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	got := run(t, p, y, Options{Workers: 1})
	assertResultsEqual(t, got, want, "sequential-vs-reference")
}

func TestEngineProducesNonTrivialLosses(t *testing.T) {
	p := testPortfolio(t, 2, 5, 5000)
	y := testYET(t, 300, 100)
	res := run(t, p, y, Options{Workers: 1})
	for l := range res.AggLoss {
		var nonzero int
		for _, v := range res.AggLoss[l] {
			if v > 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			t.Fatalf("layer %d produced all-zero YLT; generator parameters degenerate", l)
		}
	}
}

func TestAllLookupKindsAgree(t *testing.T) {
	p := testPortfolio(t, 2, 4, 3000)
	y := testYET(t, 150, 60)
	base := run(t, p, y, Options{Workers: 1, Lookup: LookupDirect})
	for _, kind := range []LookupKind{LookupSorted, LookupHash, LookupCuckoo} {
		got := run(t, p, y, Options{Workers: 1, Lookup: kind})
		assertResultsEqual(t, got, base, kind.String())
	}
}

func TestParallelBitwiseIdentical(t *testing.T) {
	p := testPortfolio(t, 2, 5, 2000)
	y := testYET(t, 500, 50)
	base := run(t, p, y, Options{Workers: 1})
	for _, workers := range []int{2, 3, 7, 16, 64} {
		got := run(t, p, y, Options{Workers: workers})
		assertResultsEqual(t, got, base, "workers")
	}
}

func TestWorkersExceedTrials(t *testing.T) {
	p := testPortfolio(t, 1, 3, 500)
	y := testYET(t, 3, 30)
	base := run(t, p, y, Options{Workers: 1})
	got := run(t, p, y, Options{Workers: 50})
	assertResultsEqual(t, got, base, "more-workers-than-trials")
}

func TestChunkedBitwiseIdentical(t *testing.T) {
	p := testPortfolio(t, 2, 5, 2000)
	y := testYET(t, 300, 70)
	base := run(t, p, y, Options{Workers: 1})
	for _, chunk := range []int{1, 2, 4, 13, 64, 10000} {
		got := run(t, p, y, Options{Workers: 1, ChunkSize: chunk})
		assertResultsEqual(t, got, base, "chunked")
		got = run(t, p, y, Options{Workers: 4, ChunkSize: chunk})
		assertResultsEqual(t, got, base, "chunked-parallel")
	}
}

func TestChunkedNonDirectLookup(t *testing.T) {
	p := testPortfolio(t, 1, 3, 1000)
	y := testYET(t, 100, 40)
	base := run(t, p, y, Options{Workers: 1, Lookup: LookupSorted})
	got := run(t, p, y, Options{Workers: 1, Lookup: LookupSorted, ChunkSize: 8})
	assertResultsEqual(t, got, base, "chunked-sorted")
}

func TestProfiledMatchesAndBreaksDown(t *testing.T) {
	p := testPortfolio(t, 2, 5, 2000)
	y := testYET(t, 200, 60)
	base := run(t, p, y, Options{Workers: 1})
	got := run(t, p, y, Options{Workers: 1, Profile: true})
	assertResultsEqual(t, got, base, "profiled")
	if got.Phases.Total() <= 0 {
		t.Fatal("profiled run recorded no phase time")
	}
	pct := got.Phases.Percentages()
	var sum float64
	for _, v := range pct {
		if v < 0 {
			t.Fatalf("negative phase percentage: %v", pct)
		}
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Fatalf("percentages sum to %v", sum)
	}
}

func TestProfiledParallelAggregatesPhases(t *testing.T) {
	p := testPortfolio(t, 1, 4, 1000)
	y := testYET(t, 200, 50)
	got := run(t, p, y, Options{Workers: 4, Profile: true})
	if got.Phases.Total() <= 0 {
		t.Fatal("parallel profiled run recorded no phase time")
	}
}

func TestUnprofiledRunHasNoPhases(t *testing.T) {
	p := testPortfolio(t, 1, 3, 500)
	y := testYET(t, 50, 30)
	got := run(t, p, y, Options{Workers: 1})
	if got.Phases.Total() != 0 {
		t.Fatalf("unprofiled run recorded phases: %+v", got.Phases)
	}
}

func TestValidationRejectsOutOfCatalogEvents(t *testing.T) {
	p := testPortfolio(t, 1, 3, 500)
	// YET over a LARGER catalog than the engine was compiled for.
	y, err := yet.Generate(yet.UniformSource(testCatalog*10), yet.Config{
		Seed: 1, Trials: 50, FixedEvents: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(p, testCatalog, LookupDirect)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(y, Options{Workers: 1}); !errors.Is(err, ErrEventOutside) {
		t.Fatalf("err = %v, want ErrEventOutside", err)
	}
}

func TestConstructorErrors(t *testing.T) {
	p := testPortfolio(t, 1, 3, 500)
	if _, err := NewEngine(nil, testCatalog, LookupDirect); !errors.Is(err, ErrNilPortfolio) {
		t.Errorf("nil portfolio: %v", err)
	}
	if _, err := NewEngine(&layer.Portfolio{}, testCatalog, LookupDirect); !errors.Is(err, ErrNilPortfolio) {
		t.Errorf("empty portfolio: %v", err)
	}
	if _, err := NewEngine(p, 0, LookupDirect); !errors.Is(err, ErrBadCatalog) {
		t.Errorf("bad catalog: %v", err)
	}
	if _, err := NewEngine(p, testCatalog, LookupKind(99)); !errors.Is(err, ErrUnknownLookup) {
		t.Errorf("unknown lookup: %v", err)
	}
	// Catalog smaller than ELT max event must be rejected at compile.
	if _, err := NewEngine(p, 10, LookupDirect); err == nil {
		t.Error("tiny catalog accepted for direct lookup")
	}
	if _, err := NewEngine(p, 10, LookupSorted); err == nil {
		t.Error("tiny catalog accepted for sorted lookup")
	}
	e, err := NewEngine(p, testCatalog, LookupDirect)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(nil, Options{}); !errors.Is(err, ErrNilYET) {
		t.Errorf("nil YET: %v", err)
	}
}

func TestReferenceErrors(t *testing.T) {
	p := testPortfolio(t, 1, 3, 500)
	y := testYET(t, 10, 30)
	if _, err := Reference(nil, y, testCatalog); !errors.Is(err, ErrNilPortfolio) {
		t.Errorf("nil portfolio: %v", err)
	}
	if _, err := Reference(p, nil, testCatalog); !errors.Is(err, ErrNilYET) {
		t.Errorf("nil YET: %v", err)
	}
	if _, err := Reference(p, y, 10); !errors.Is(err, ErrEventOutside) {
		t.Errorf("tiny catalog: %v", err)
	}
}

func TestSkipValidation(t *testing.T) {
	p := testPortfolio(t, 1, 3, 500)
	y := testYET(t, 50, 40)
	base := run(t, p, y, Options{Workers: 1})
	got := run(t, p, y, Options{Workers: 1, SkipValidation: true})
	assertResultsEqual(t, got, base, "skip-validation")
}

func TestEmptyTrialsYieldZero(t *testing.T) {
	p := testPortfolio(t, 1, 3, 500)
	// Mean 0.5 events/trial: many trials will be empty.
	y, err := yet.Generate(yet.UniformSource(testCatalog), yet.Config{
		Seed: 3, Trials: 200, MeanEvents: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, p, y, Options{Workers: 1})
	sawEmpty := false
	for tr := 0; tr < y.NumTrials(); tr++ {
		if y.TrialLen(tr) == 0 {
			sawEmpty = true
			if res.AggLoss[0][tr] != 0 || res.MaxOccLoss[0][tr] != 0 {
				t.Fatalf("empty trial %d has nonzero loss", tr)
			}
		}
	}
	if !sawEmpty {
		t.Skip("no empty trials generated; increase trial count")
	}
}

// Trial losses must respect the layer terms: 0 <= agg <= AggLimit and
// 0 <= maxOcc <= OccLimit.
func TestLossesRespectTermBounds(t *testing.T) {
	p := testPortfolio(t, 3, 5, 2000)
	y := testYET(t, 300, 60)
	res := run(t, p, y, Options{Workers: 4})
	for li, l := range p.Layers {
		for tr := range res.AggLoss[li] {
			agg := res.AggLoss[li][tr]
			occ := res.MaxOccLoss[li][tr]
			if agg < 0 || agg > l.LTerms.AggLimit+1e-9 {
				t.Fatalf("layer %d trial %d: agg %v outside [0, %v]", li, tr, agg, l.LTerms.AggLimit)
			}
			if occ < 0 || occ > l.LTerms.OccLimit+1e-9 {
				t.Fatalf("layer %d trial %d: maxOcc %v outside [0, %v]", li, tr, occ, l.LTerms.OccLimit)
			}
		}
	}
}

// The aggregate loss can never exceed the sum of occurrence losses, and
// with pass-through aggregate terms equals it.
func TestPassThroughAggEqualsOccSum(t *testing.T) {
	p := testPortfolio(t, 1, 4, 2000)
	p.Layers[0].LTerms = layer.Terms{
		OccRetention: 100, OccLimit: 1e7,
		AggRetention: 0, AggLimit: layer.Unlimited,
	}
	y := testYET(t, 100, 50)
	res := run(t, p, y, Options{Workers: 1})
	// Recompute occurrence sums via the reference.
	ref, err := Reference(p, y, testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	for tr := range res.AggLoss[0] {
		if res.AggLoss[0][tr] != ref.AggLoss[0][tr] {
			t.Fatalf("trial %d: %v != %v", tr, res.AggLoss[0][tr], ref.AggLoss[0][tr])
		}
	}
}

func TestEngineConcurrentRuns(t *testing.T) {
	p := testPortfolio(t, 2, 4, 1000)
	y := testYET(t, 200, 40)
	e, err := NewEngine(p, testCatalog, LookupDirect)
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.Run(y, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := e.Run(y, Options{Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r == nil {
			t.Fatalf("run %d failed", i)
		}
		assertResultsEqual(t, r, base, "concurrent")
	}
}

func TestEngineAccessors(t *testing.T) {
	p := testPortfolio(t, 2, 4, 1000)
	e, err := NewEngine(p, testCatalog, LookupCuckoo)
	if err != nil {
		t.Fatal(err)
	}
	if e.CatalogSize() != testCatalog {
		t.Errorf("CatalogSize = %d", e.CatalogSize())
	}
	if e.NumLayers() != 2 {
		t.Errorf("NumLayers = %d", e.NumLayers())
	}
	if e.LookupKind() != LookupCuckoo {
		t.Errorf("LookupKind = %v", e.LookupKind())
	}
	if e.LookupMemory() <= 0 {
		t.Errorf("LookupMemory = %d", e.LookupMemory())
	}
}

func TestSharedELTsCompiledOnce(t *testing.T) {
	// A pool smaller than layers*eltsPerLayer forces sharing; compiled
	// memory must reflect the pool, not the references.
	p, err := layer.GeneratePortfolio(layer.GenConfig{
		Seed: 5, NumLayers: 10, ELTsPerLayer: 4, ELTPool: 6,
		RecordsPerELT: 500, CatalogSize: testCatalog,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(p, testCatalog, LookupSorted)
	if err != nil {
		t.Fatal(err)
	}
	perTable := 12 * 500
	if e.LookupMemory() != 6*perTable {
		t.Fatalf("LookupMemory = %d, want %d (6 shared tables)", e.LookupMemory(), 6*perTable)
	}
}

func TestLookupKindString(t *testing.T) {
	for k, want := range map[LookupKind]string{
		LookupDirect: "direct", LookupSorted: "sorted",
		LookupHash: "hash", LookupCuckoo: "cuckoo", LookupKind(42): "lookup(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestCombinedLookupBitwiseIdentical(t *testing.T) {
	p := testPortfolio(t, 3, 5, 2000)
	y := testYET(t, 300, 70)
	base := run(t, p, y, Options{Workers: 1, Lookup: LookupDirect})
	got := run(t, p, y, Options{Workers: 1, Lookup: LookupCombined})
	assertResultsEqual(t, got, base, "combined")
	// And under every execution strategy.
	for _, opt := range []Options{
		{Workers: 4, Lookup: LookupCombined},
		{Workers: 1, Lookup: LookupCombined, ChunkSize: 8},
		{Workers: 1, Lookup: LookupCombined, Profile: true},
		{Workers: 3, Lookup: LookupCombined, Dynamic: true},
	} {
		got := run(t, p, y, opt)
		assertResultsEqual(t, got, base, "combined-variant")
	}
}

func TestCombinedLookupMemoryPerLayer(t *testing.T) {
	p := testPortfolio(t, 2, 5, 1000)
	e, err := NewEngine(p, testCatalog, LookupCombined)
	if err != nil {
		t.Fatal(err)
	}
	// One catalog-sized table per layer, regardless of ELT count.
	if e.LookupMemory() != 2*8*testCatalog {
		t.Fatalf("LookupMemory = %d, want %d", e.LookupMemory(), 2*8*testCatalog)
	}
	d, err := NewEngine(p, testCatalog, LookupDirect)
	if err != nil {
		t.Fatal(err)
	}
	if e.LookupMemory() >= d.LookupMemory() {
		t.Fatalf("combined (%d) should use less memory than direct (%d) at 5 ELTs/layer",
			e.LookupMemory(), d.LookupMemory())
	}
}

func TestCombinedRejectsOutOfCatalog(t *testing.T) {
	p := testPortfolio(t, 1, 3, 500)
	if _, err := NewEngine(p, 10, LookupCombined); err == nil {
		t.Fatal("tiny catalog accepted for combined lookup")
	}
}
