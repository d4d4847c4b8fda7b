// Package metrics derives portfolio risk measures from Year Loss Tables
// (paper §I): exceedance-probability curves, Probable Maximum Loss (PML)
// at return periods, Value at Risk, and Tail Value at Risk (TVaR). These
// are the numbers a reinsurer reports to management, regulators and rating
// agencies, and the inputs to the pricing stage.
//
// Every reported measure is computed from the materialised YLT column:
// Summarise (two-pass moments), EPCurve (exact empirical quantiles,
// one sort per column serving every return period, PML, VaR and TVaR),
// and AllocateTVaR and DiversificationBenefit for the group roll-up.
// The column is indexed by trial, so the numbers are bitwise
// independent of how many workers filled it.
//
// SummarySink (Welford moments) and EPSink (compacting quantile
// sketches) are the bounded-memory alternative for streamed runs too
// large to materialise. They consume one span at a time in O(1) memory
// per layer, in arrival order, so their moments vary in the last
// digits with the worker count and their EP points are estimates;
// streaming.go documents the bounds.
//
// Convergence diagnostics (convergence.go) quantify the Monte Carlo
// error both forms inherit from the trial count.
package metrics

import (
	"errors"
	"math"
	"sort"
)

// Errors returned by the metric constructors.
var (
	ErrEmptyYLT = errors.New("metrics: YLT must be non-empty")
	ErrBadProb  = errors.New("metrics: probability must be in (0, 1)")
	ErrBadRP    = errors.New("metrics: return period must be > 1 year")
)

// Summary holds the moments of a YLT.
type Summary struct {
	Mean   float64 // average annual loss (AAL)
	StdDev float64
	Min    float64
	Max    float64
	Trials int
}

// Summarise computes the YLT's summary statistics.
func Summarise(ylt []float64) (Summary, error) {
	if len(ylt) == 0 {
		return Summary{}, ErrEmptyYLT
	}
	s := Summary{Trials: len(ylt), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range ylt {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(ylt))
	var ss float64
	for _, v := range ylt {
		d := v - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(ylt)))
	return s, nil
}

// EPCurve is an exceedance-probability curve: for each probability p the
// loss exceeded with annual probability p. Built from a YLT it is the AEP
// (aggregate) curve; built from per-trial maximum occurrence losses it is
// the OEP (occurrence) curve.
type EPCurve struct {
	sorted []float64 // losses ascending
}

// NewEPCurve builds a curve from per-trial losses.
func NewEPCurve(losses []float64) (*EPCurve, error) {
	if len(losses) == 0 {
		return nil, ErrEmptyYLT
	}
	s := make([]float64, len(losses))
	copy(s, losses)
	sort.Float64s(s)
	return &EPCurve{sorted: s}, nil
}

// NewEPCurveAt is NewEPCurve building into buf's storage when its
// capacity allows, for transient callers (quote pricing sorts a full
// YLT per layer and discards the curve immediately) that recycle the
// scratch through a pool. It returns the backing slice actually used —
// buf, or a fresh allocation when buf was too small — which the caller
// may reclaim only once the curve itself is discarded: the curve
// aliases it.
func NewEPCurveAt(buf, losses []float64) (*EPCurve, []float64, error) {
	if len(losses) == 0 {
		return nil, buf, ErrEmptyYLT
	}
	if cap(buf) < len(losses) {
		buf = make([]float64, len(losses))
	}
	s := buf[:len(losses)]
	copy(s, losses)
	sort.Float64s(s)
	return &EPCurve{sorted: s}, s, nil
}

// Trials returns the number of trials behind the curve.
func (c *EPCurve) Trials() int { return len(c.sorted) }

// LossAtProb returns the loss exceeded with annual probability p — the
// (1-p) empirical quantile of the loss distribution. p must be in (0, 1).
func (c *EPCurve) LossAtProb(p float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, ErrBadProb
	}
	return c.quantile(1 - p), nil
}

// PML returns the Probable Maximum Loss at a return period in years:
// the loss exceeded once every rp years on average, i.e. the loss at
// exceedance probability 1/rp. rp must exceed 1 year.
func (c *EPCurve) PML(rp float64) (float64, error) {
	if !(rp > 1) || math.IsInf(rp, 0) || math.IsNaN(rp) {
		return 0, ErrBadRP
	}
	return c.quantile(1 - 1/rp), nil
}

// VaR returns the Value at Risk at confidence level q (e.g. 0.99): the
// q-quantile of annual losses.
func (c *EPCurve) VaR(q float64) (float64, error) {
	if !(q > 0 && q < 1) {
		return 0, ErrBadProb
	}
	return c.quantile(q), nil
}

// TVaR returns the Tail Value at Risk at confidence level q: the mean of
// the losses at or beyond the q-quantile — the expected loss given that
// the year is one of the (1-q) worst.
func (c *EPCurve) TVaR(q float64) (float64, error) {
	if !(q > 0 && q < 1) {
		return 0, ErrBadProb
	}
	idx := c.index(q)
	tail := c.sorted[idx:]
	var sum float64
	for _, v := range tail {
		sum += v
	}
	return sum / float64(len(tail)), nil
}

// quantile returns the empirical q-quantile with linear interpolation
// between order statistics.
func (c *EPCurve) quantile(q float64) float64 {
	n := len(c.sorted)
	if n == 1 {
		return c.sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	if lo == hi {
		return c.sorted[lo]
	}
	frac := pos - float64(lo)
	return c.sorted[lo]*(1-frac) + c.sorted[hi]*frac
}

// index returns the order-statistic index of quantile q (no
// interpolation), used for tail averaging.
func (c *EPCurve) index(q float64) int {
	idx := int(math.Floor(q * float64(len(c.sorted))))
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return idx
}

// Point is one row of a printed EP curve.
type Point struct {
	ReturnPeriod float64 // years
	Prob         float64 // annual exceedance probability
	Loss         float64
}

// StandardReturnPeriods are the return periods reinsurers conventionally
// report.
var StandardReturnPeriods = []float64{2, 5, 10, 25, 50, 100, 250, 500, 1000}

// Curve evaluates the EP curve at the given return periods (defaults to
// StandardReturnPeriods when rps is nil), skipping periods that exceed the
// resolution of the trial count.
func (c *EPCurve) Curve(rps []float64) []Point {
	if rps == nil {
		rps = StandardReturnPeriods
	}
	pts := make([]Point, 0, len(rps))
	for _, rp := range rps {
		if rp <= 1 || rp > float64(len(c.sorted)) {
			continue
		}
		loss, err := c.PML(rp)
		if err != nil {
			continue
		}
		pts = append(pts, Point{ReturnPeriod: rp, Prob: 1 / rp, Loss: loss})
	}
	return pts
}
