package metrics

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// QuantileSketch is a fixed-budget quantile summary built for
// exceedance curves: a compacting (Munro-Paterson / KLL style) body plus
// an exact reserve of the k largest observations.
//
// The tail reserve holds the largest min(n, k) observations exactly, so
// any rank in the top k — every PML point with return period strictly
// above n/k — is answered with the exact order statistic (see Quantile
// for how that still differs from EPCurve). Below that, observations
// live in the body: level h holds items that each stand for 2^h
// observations, and whenever a level fills its k slots it is sorted and
// every other element promoted with doubled weight.
//
// Body compaction keeps odd- or even-indexed survivors alternately
// (deterministically, no RNG), which bounds the rank error of any body
// query: a compaction of level h perturbs any rank by at most 2^h, level
// h compacts at most n/(k*2^h) times, so the total absolute rank error
// after n observations is at most n/k * H with H = log2(n/k) compacted
// levels — a relative rank error of about log2(n/k)/k, under 1% at the
// default capacity for a million observations. ErrorBound reports the
// guarantee; the alternation makes typical error far smaller.
//
// Memory is O(k log(n/k)) float64s regardless of n. The zero value is
// not usable; construct with NewQuantileSketch. Methods are not safe for
// concurrent use — callers (EPSink) serialise access.
type QuantileSketch struct {
	k      int
	n      int64
	tail   []float64   // sorted ascending: the largest min(n, k) observations, weight 1
	levels [][]float64 // level h: unordered items of weight 2^h
	flips  []bool      // per-level alternation bit for deterministic compaction

	rankScratch []weightedValue // reused by bodyRank across quantile queries
}

// DefaultSketchK is the per-level and tail-reserve capacity used when
// callers pass k <= 0: large enough that PML points at the standard
// return periods fall in the tail reserve for trial counts into the
// millions, small enough that per-layer state is tens of kilobytes.
const DefaultSketchK = 1024

// ErrBadSketchK rejects unusably small capacities.
var ErrBadSketchK = errors.New("metrics: sketch k must be >= 8")

// NewQuantileSketch returns an empty sketch with capacity k (k <= 0
// selects DefaultSketchK).
func NewQuantileSketch(k int) (*QuantileSketch, error) {
	if k <= 0 {
		k = DefaultSketchK
	}
	if k < 8 {
		return nil, ErrBadSketchK
	}
	return &QuantileSketch{
		k:      k,
		tail:   make([]float64, 0, k),
		levels: [][]float64{make([]float64, 0, k)},
	}, nil
}

// Count returns the number of observations represented.
func (s *QuantileSketch) Count() int64 { return s.n }

// Reset empties the sketch in place, keeping the tail, level and rank
// scratch storage so a pooled sketch's steady state adds no
// allocations. Retained empty levels behave identically to a fresh
// sketch in every query and compaction; ErrorBound may over-report
// (stay conservative) until those levels fill again.
func (s *QuantileSketch) Reset() {
	s.n = 0
	s.tail = s.tail[:0]
	for h := range s.levels {
		s.levels[h] = s.levels[h][:0]
	}
	for h := range s.flips {
		s.flips[h] = false
	}
}

// K returns the sketch capacity.
func (s *QuantileSketch) K() int { return s.k }

// Add feeds one observation.
func (s *QuantileSketch) Add(v float64) {
	s.n++
	if len(s.tail) < s.k {
		s.tailInsert(v)
		return
	}
	if v > s.tail[0] {
		displaced := s.tail[0]
		copy(s.tail, s.tail[1:])
		s.tail = s.tail[:len(s.tail)-1]
		s.tailInsert(v)
		v = displaced
	}
	s.levels[0] = append(s.levels[0], v)
	if len(s.levels[0]) >= s.k {
		s.compactFrom(0)
	}
}

// tailInsert places v into the sorted tail reserve.
func (s *QuantileSketch) tailInsert(v float64) {
	i := sort.SearchFloat64s(s.tail, v)
	s.tail = append(s.tail, 0)
	copy(s.tail[i+1:], s.tail[i:])
	s.tail[i] = v
}

// compactFrom restores the capacity invariant from level h upward: any
// level at or over capacity is sorted, paired, and one survivor per pair
// promoted with doubled weight. Total represented weight is conserved
// exactly: an odd-length buffer holds its maximum back at the same level
// so pairing is always complete.
func (s *QuantileSketch) compactFrom(h int) {
	for ; h < len(s.levels); h++ {
		if len(s.levels[h]) < s.k {
			continue
		}
		if h+1 == len(s.levels) {
			s.levels = append(s.levels, make([]float64, 0, s.k))
		}
		buf := s.levels[h]
		sort.Float64s(buf)
		var keep []float64
		if len(buf)%2 != 0 {
			keep = []float64{buf[len(buf)-1]}
			buf = buf[:len(buf)-1]
		}
		start := 0
		if s.flip(h) {
			start = 1
		}
		for i := start; i < len(buf); i += 2 {
			s.levels[h+1] = append(s.levels[h+1], buf[i])
		}
		s.levels[h] = append(s.levels[h][:0], keep...)
	}
}

// flip returns and toggles the alternation bit of level h.
func (s *QuantileSketch) flip(h int) bool {
	for len(s.flips) <= h {
		s.flips = append(s.flips, false)
	}
	f := s.flips[h]
	s.flips[h] = !f
	return f
}

// Quantile returns the estimated q-quantile (q clamped to [0, 1]): the
// order statistic of rank ceil(q * n), with no interpolation. That is
// not EPCurve's convention, which interpolates linearly between the
// order statistics around q * (n - 1); so even where the rank lands in
// the tail reserve — all of the top k, where the order statistic itself
// is exact — the answer generally differs from EPCurve's at the same q.
// Body ranks carry the ErrorBound guarantee. An empty sketch returns 0.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.n)))
	if target < 1 {
		target = 1
	}
	bodyWeight := s.n - int64(len(s.tail))
	if target > bodyWeight {
		return s.tail[target-bodyWeight-1]
	}
	return s.bodyRank(target)
}

// bodyRank answers a weighted rank query over the body levels. The
// gathered item list is kept as per-sketch scratch: EP curve rendering
// issues one query per return period, and reusing the buffer (with the
// allocation-free generic sort) keeps result assembly from allocating
// per point.
func (s *QuantileSketch) bodyRank(target int64) float64 {
	total := 0
	for _, lvl := range s.levels {
		total += len(lvl)
	}
	if total == 0 {
		return s.tail[0]
	}
	if cap(s.rankScratch) < total {
		s.rankScratch = make([]weightedValue, 0, total)
	}
	items := s.rankScratch[:0]
	for h, lvl := range s.levels {
		w := int64(1) << uint(h)
		for _, v := range lvl {
			items = append(items, weightedValue{v, w})
		}
	}
	slices.SortFunc(items, func(a, b weightedValue) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	var cum int64
	for _, it := range items {
		cum += it.w
		if cum >= target {
			return it.v
		}
	}
	return items[len(items)-1].v
}

// weightedValue is one body item paired with its level weight for rank
// queries.
type weightedValue struct {
	v float64
	w int64
}

// ErrorBound returns the guaranteed worst-case rank error of a body
// Quantile answer, as a fraction of Count: H/k for H compacted levels.
// Queries whose rank lands in the tail reserve (return periods above
// n/k) return the exact order statistic. The deterministic alternation
// typically does much better than the bound; tests assert the
// guarantee.
func (s *QuantileSketch) ErrorBound() float64 {
	h := len(s.levels) - 1
	if h <= 0 || s.n == 0 {
		return 0 // nothing has been compacted; ranks are exact
	}
	return float64(h) / float64(s.k)
}
