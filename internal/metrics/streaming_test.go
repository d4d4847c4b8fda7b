package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// sampleLosses builds a deterministic loss-like sample: a point mass at
// zero (quiet years) plus a lognormal body, the shape a reinsurance YLT
// takes.
func sampleLosses(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		if r.Float64() < 0.3 {
			continue // zero-loss year
		}
		out[i] = math.Exp(1.5*r.NormFloat64() + 10)
	}
	return out
}

func TestOnlineSummaryMatchesSummarise(t *testing.T) {
	losses := sampleLosses(20_000, 1)
	want, err := Summarise(losses)
	if err != nil {
		t.Fatal(err)
	}
	var o OnlineSummary
	for _, v := range losses {
		o.Add(v)
	}
	got := o.Summary()
	if got.Trials != want.Trials || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("exact fields differ: got %+v want %+v", got, want)
	}
	if e := relErr(got.Mean, want.Mean); e > 1e-12 {
		t.Errorf("mean rel err %v (got %v want %v)", e, got.Mean, want.Mean)
	}
	if e := relErr(got.StdDev, want.StdDev); e > 1e-9 {
		t.Errorf("stddev rel err %v (got %v want %v)", e, got.StdDev, want.StdDev)
	}
}

func TestOnlineSummaryMerge(t *testing.T) {
	losses := sampleLosses(10_000, 2)
	var whole OnlineSummary
	for _, v := range losses {
		whole.Add(v)
	}
	// Merge unequal shards, including an empty one.
	var a, b, c, empty OnlineSummary
	for _, v := range losses[:100] {
		a.Add(v)
	}
	for _, v := range losses[100:7000] {
		b.Add(v)
	}
	for _, v := range losses[7000:] {
		c.Add(v)
	}
	var merged OnlineSummary
	merged.Merge(a)
	merged.Merge(empty)
	merged.Merge(b)
	merged.Merge(c)
	got, want := merged.Summary(), whole.Summary()
	if got.Trials != want.Trials || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("exact fields differ: got %+v want %+v", got, want)
	}
	if e := relErr(got.Mean, want.Mean); e > 1e-12 {
		t.Errorf("mean rel err %v", e)
	}
	if e := relErr(got.StdDev, want.StdDev); e > 1e-9 {
		t.Errorf("stddev rel err %v", e)
	}
}

func TestOnlineSummaryEmpty(t *testing.T) {
	var o OnlineSummary
	if s := o.Summary(); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarySinkMatchesPerLayer(t *testing.T) {
	const layers, trials = 3, 5_000
	agg := make([][]float64, layers)
	occ := make([][]float64, layers)
	for l := range agg {
		agg[l] = sampleLosses(trials, int64(10+l))
		occ[l] = sampleLosses(trials, int64(20+l))
	}
	s := NewSummarySink()
	if err := s.Begin([]uint32{1, 2, 3}, trials); err != nil {
		t.Fatal(err)
	}
	// Emit concurrently with disjoint trial shards, as engine workers do.
	var wg sync.WaitGroup
	for shard := 0; shard < 4; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for l := 0; l < layers; l++ {
				for tr := shard; tr < trials; tr += 4 {
					s.Emit(l, tr, agg[l][tr], occ[l][tr])
				}
			}
		}(shard)
	}
	wg.Wait()
	if s.NumLayers() != layers {
		t.Fatalf("NumLayers = %d", s.NumLayers())
	}
	for l := 0; l < layers; l++ {
		want, err := Summarise(agg[l])
		if err != nil {
			t.Fatal(err)
		}
		got := s.Summary(l)
		if got.Trials != want.Trials || got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("layer %d exact fields differ: got %+v want %+v", l, got, want)
		}
		if e := relErr(got.Mean, want.Mean); e > 1e-9 {
			t.Errorf("layer %d mean rel err %v", l, e)
		}
		if e := relErr(got.StdDev, want.StdDev); e > 1e-9 {
			t.Errorf("layer %d stddev rel err %v", l, e)
		}
		wantOcc, _ := Summarise(occ[l])
		if got := s.OccSummary(l); got.Min != wantOcc.Min || got.Max != wantOcc.Max {
			t.Errorf("layer %d occ min/max differ", l)
		}
	}
}

func TestEPSinkMatchesEPCurve(t *testing.T) {
	const trials = 40_000
	r := rand.New(rand.NewSource(3))
	agg := make([]float64, trials)
	occ := make([]float64, trials)
	for i := range agg {
		agg[i] = math.Exp(1.2*r.NormFloat64() + 8)
		occ[i] = agg[i] * (0.3 + 0.7*r.Float64())
	}
	s := NewEPSink(nil)
	if err := s.Begin([]uint32{7}, trials); err != nil {
		t.Fatal(err)
	}
	for i := range agg {
		s.Emit(0, i, agg[i], occ[i])
	}
	exactAgg, err := NewEPCurve(agg)
	if err != nil {
		t.Fatal(err)
	}
	exactOcc, err := NewEPCurve(occ)
	if err != nil {
		t.Fatal(err)
	}
	check := func(pts []Point, exact *EPCurve, label string) {
		if len(pts) == 0 {
			t.Fatalf("%s: no points", label)
		}
		for _, pt := range pts {
			want, err := exact.PML(pt.ReturnPeriod)
			if err != nil {
				t.Fatal(err)
			}
			// Sketch tolerance: tight at short return periods, looser in
			// the deep tail where the empirical quantile itself is
			// noisy (documented in the package comment).
			tol := 0.05
			if pt.ReturnPeriod >= 250 {
				tol = 0.15
			}
			if e := relErr(pt.Loss, want); e > tol {
				t.Errorf("%s PML(%v): sketch %v vs exact %v (rel err %v > %v)",
					label, pt.ReturnPeriod, pt.Loss, want, e, tol)
			}
		}
	}
	check(s.Points(0), exactAgg, "AEP")
	check(s.OccPoints(0), exactOcc, "OEP")
}

func TestEPSinkSkipsUnresolvableReturnPeriods(t *testing.T) {
	s := NewEPSink([]float64{2, 100, 0.5, math.Inf(1)})
	if got := s.ReturnPeriods(); len(got) != 2 {
		t.Fatalf("ReturnPeriods = %v", got)
	}
	if err := s.Begin([]uint32{1}, 10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Emit(0, i, float64(i), float64(i))
	}
	pts := s.Points(0)
	if len(pts) != 1 || pts[0].ReturnPeriod != 2 {
		t.Fatalf("points = %v, want only rp=2 at 10 trials", pts)
	}
}

// An explicit empty slice must select the standard return periods, same
// as nil — the ared API documents "omitted or empty means the standard
// set" and a client sending [] must not silently get zero sketches.
func TestNewEPSinkEmptyMeansStandard(t *testing.T) {
	for _, rps := range [][]float64{nil, {}} {
		if got := NewEPSink(rps).ReturnPeriods(); len(got) != len(StandardReturnPeriods) {
			t.Fatalf("NewEPSink(%v) has %d return periods, want %d",
				rps, len(got), len(StandardReturnPeriods))
		}
	}
}
