package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactRankWindow returns the exact empirical values at ranks
// ceil(q*n) ± slack of the sorted sample — the acceptance window a
// sketch answer with rank error <= slack must land in.
func exactRankWindow(sorted []float64, q float64, slack int) (lo, hi float64) {
	n := len(sorted)
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	rlo, rhi := r-slack, r+slack
	if rlo < 1 {
		rlo = 1
	}
	if rhi > n {
		rhi = n
	}
	return sorted[rlo-1], sorted[rhi-1]
}

func TestQuantileSketchExactWhileSmall(t *testing.T) {
	s, err := NewQuantileSketch(64)
	if err != nil {
		t.Fatal(err)
	}
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty sketch should report 0")
	}
	vals := []float64{5, 1, 4, 2, 3}
	for _, v := range vals {
		s.Add(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.2, 0.5, 0.8, 1} {
		want := vals[int(math.Ceil(q*5))-1]
		if got := s.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if s.ErrorBound() != 0 {
		t.Errorf("uncompacted sketch should guarantee exactness, bound %v", s.ErrorBound())
	}
}

func TestQuantileSketchRejectsTinyK(t *testing.T) {
	if _, err := NewQuantileSketch(4); err == nil {
		t.Fatal("k=4 accepted")
	}
}

func TestQuantileSketchTailExact(t *testing.T) {
	// Every rank in the top k must be answered exactly, whatever the
	// body does — that is the property that makes deep-tail PML points
	// trustworthy.
	const n, k = 50_000, 256
	r := rand.New(rand.NewSource(11))
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Exp(1.5*r.NormFloat64() + 8)
	}
	s, err := NewQuantileSketch(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data {
		s.Add(v)
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	for _, rank := range []int{n, n - 1, n - k/2, n - k + 1} {
		q := float64(rank) / float64(n)
		if got, want := s.Quantile(q), sorted[rank-1]; got != want {
			t.Errorf("rank %d (q=%v): got %v, want exact %v", rank, q, got, want)
		}
	}
}

func TestQuantileSketchBoundSingleStream(t *testing.T) {
	const n, k = 200_000, 512
	r := rand.New(rand.NewSource(3))
	data := make([]float64, n)
	for i := range data {
		if r.Float64() < 0.3 {
			continue // zero-loss years: heavy point mass
		}
		data[i] = math.Exp(1.5*r.NormFloat64() + 10)
	}
	s, err := NewQuantileSketch(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data {
		s.Add(v)
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	slack := int(math.Ceil(s.ErrorBound() * float64(n)))
	if slack <= 0 || s.ErrorBound() > 0.05 {
		t.Fatalf("implausible bound %v after %d adds", s.ErrorBound(), n)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999} {
		got := s.Quantile(q)
		lo, hi := exactRankWindow(sorted, q, slack)
		if got < lo || got > hi {
			t.Errorf("q=%v: %v outside rank window [%v, %v] (slack %d ranks)", q, got, lo, hi, slack)
		}
	}
}
