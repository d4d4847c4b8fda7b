package main

import (
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(1..3) = %v, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("percentile or median reordered its input")
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
}

// The tail percentile a timing is reported at must leave at least ten
// samples beyond it.
func TestHighPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{7, 50}, {60, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got := highPercentile(c.n)
		if got != c.want {
			t.Errorf("highPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := c.n - nearestRank(c.n, got); got > 50 && beyond < 10 {
			t.Errorf("highPercentile(%d) = %v leaves fewer than ten samples beyond", c.n, got)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 30, Parent: 1},
		{ID: 3, Name: "b", Start: 20, End: 50, Parent: 1},  // overlaps a: counted once
		{ID: 4, Name: "c", Start: 90, End: 120, Parent: 1}, // clipped to the parent
		{ID: 5, Name: "leaf", Start: 22, End: 28, Parent: 3},
		{ID: 6, Name: "early", Start: -5, End: 5, Parent: 1}, // clipped at the start
	}
	self := selfTimes(spans)
	// covered: [0,5] + [10,50] + [90,100] = 55
	for id, want := range map[int]int64{1: 45, 2: 20, 3: 24, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestChildSumFracAndTracer(t *testing.T) {
	tr := newTracer()
	t0 := tr.origin
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	job := tr.add("job", 0, "j-1", at(0), at(10))
	tr.add("x", job, "j-1", at(0), at(4))
	tr.add("y", job, "j-1", at(4), at(10))
	if got := childSumFrac(tr.spans, "job"); got != 1 {
		t.Errorf("children tiling the parent: sum fraction %v, want 1", got)
	}
	tr.synthetic("busy", job, "j-1", 3*time.Millisecond)
	last := tr.spans[len(tr.spans)-1]
	if !last.Synthetic || last.Start != 0 || last.dur() != 3e6 || last.Parent != job {
		t.Errorf("synthetic span %+v", last)
	}

	// A nil tracer records nothing and never panics.
	var none *tracer
	none.time("z", 0, "", func() {})
	none.end(none.begin("z", 0, ""))
	none.synthetic("z", 1, "", time.Second)

	// adopt renumbers and shifts onto the adopting tracer's clock.
	other := &tracer{origin: t0.Add(time.Second)}
	p := other.add("job", 0, "j-2", other.origin, other.origin.Add(time.Millisecond))
	other.add("x", p, "j-2", other.origin, other.origin.Add(time.Millisecond))
	n := len(tr.spans)
	tr.adopt(other)
	a, b := tr.spans[n], tr.spans[n+1]
	if a.ID != n+1 || b.Parent != a.ID || a.Start != int64(time.Second) || a.dur() != int64(time.Millisecond) {
		t.Errorf("adopted spans %+v %+v", a, b)
	}
}
