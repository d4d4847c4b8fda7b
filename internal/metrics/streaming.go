// Streaming (online) counterparts of the batch metrics: moment
// accumulation and exceedance-curve estimation that consume engine
// results one trial at a time in O(1) memory per layer. They implement
// the engine's Sink interface structurally (Begin/Emit), so a streamed
// run over millions of trials can report AAL, PML and exceedance points
// without ever materialising the O(layers x trials) Year Loss Tables.
//
// Accuracy relative to the batch versions, by construction:
//
//   - SummarySink: Trials, Min and Max are exact. Mean and StdDev use
//     Welford's update, which differs from the two-pass Summarise only
//     in floating-point association — relative error is ~1e-12 for
//     well-conditioned YLTs.
//   - EPSink: each layer's curve is answered by a mergeable compacting
//     quantile sketch (see QuantileSketch) with a guaranteed rank-error
//     bound of about log2(n/k)/k — under 1% at the default capacity for
//     a million trials, with observed error typically far smaller.
//     Tail points whose return period approaches the trial count carry
//     Monte Carlo noise of the same order as the sketch error.
//
// Both sinks export serialisable state (state.go) that merges exactly
// (moments) or within the sketch bound (quantiles), which is what lets
// the distributed coordinator combine per-shard partial results into
// one curve.
package metrics

import (
	"math"
	"sync"
)

// OnlineSummary accumulates the moments of a loss sequence one value at
// a time in O(1) memory (Welford's algorithm).
type OnlineSummary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add feeds one observation.
func (o *OnlineSummary) Add(v float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = v, v
	} else {
		if v < o.min {
			o.min = v
		}
		if v > o.max {
			o.max = v
		}
	}
	d := v - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (v - o.mean)
}

// Merge folds another accumulator into o (Chan et al.'s parallel
// variance combination), for callers that accumulate per shard and
// combine at the end rather than emitting through SummarySink's
// per-layer lock.
func (o *OnlineSummary) Merge(p OnlineSummary) {
	if p.n == 0 {
		return
	}
	if o.n == 0 {
		*o = p
		return
	}
	n1, n2 := float64(o.n), float64(p.n)
	d := p.mean - o.mean
	o.m2 += p.m2 + d*d*n1*n2/(n1+n2)
	o.mean += d * n2 / (n1 + n2)
	o.n += p.n
	if p.min < o.min {
		o.min = p.min
	}
	if p.max > o.max {
		o.max = p.max
	}
}

// Count returns the number of observations seen.
func (o *OnlineSummary) Count() int { return o.n }

// Summary renders the accumulated moments in the batch Summary shape
// (population standard deviation, matching Summarise). An empty
// accumulator yields the zero Summary.
func (o *OnlineSummary) Summary() Summary {
	if o.n == 0 {
		return Summary{}
	}
	return Summary{
		Mean:   o.mean,
		StdDev: math.Sqrt(o.m2 / float64(o.n)),
		Min:    o.min,
		Max:    o.max,
		Trials: o.n,
	}
}

// ---------------------------------------------------------------------------
// Engine sinks.

// SummarySink accumulates per-layer streaming moments of both the
// aggregate loss (the YLT behind AEP metrics) and the per-trial maximum
// occurrence loss (behind OEP metrics). It satisfies the engine's Sink
// interface and is safe for concurrent Emit.
type SummarySink struct {
	layers []summaryLayer
}

type summaryLayer struct {
	mu  sync.Mutex
	agg OnlineSummary
	occ OnlineSummary
}

// NewSummarySink returns an empty sink; it sizes itself at Begin.
func NewSummarySink() *SummarySink { return &SummarySink{} }

// Begin sizes the per-layer accumulators. A sink whose previous run
// left enough layer capacity is rearmed in place, so pooled sinks
// (the server recycles one stack per job) begin without allocating.
func (s *SummarySink) Begin(layerIDs []uint32, numTrials int) error {
	if cap(s.layers) >= len(layerIDs) {
		s.layers = s.layers[:len(layerIDs)]
		for i := range s.layers {
			s.layers[i].agg = OnlineSummary{}
			s.layers[i].occ = OnlineSummary{}
		}
		return nil
	}
	s.layers = make([]summaryLayer, len(layerIDs))
	return nil
}

// Emit folds one trial into the layer's accumulators.
func (s *SummarySink) Emit(layer, trial int, aggLoss, maxOcc float64) {
	l := &s.layers[layer]
	l.mu.Lock()
	l.agg.Add(aggLoss)
	l.occ.Add(maxOcc)
	l.mu.Unlock()
}

// EmitBatch folds one span of trials under a single lock acquisition —
// the batched delivery path of the engine's pipeline, which turns the
// per-cell lock-and-dispatch overhead into a per-span one.
func (s *SummarySink) EmitBatch(layer, trialLo int, aggLoss, maxOcc []float64) {
	l := &s.layers[layer]
	l.mu.Lock()
	for i, v := range aggLoss {
		l.agg.Add(v)
		l.occ.Add(maxOcc[i])
	}
	l.mu.Unlock()
}

// NumLayers returns the number of layers the sink was sized for.
func (s *SummarySink) NumLayers() int { return len(s.layers) }

// Summary returns the aggregate-loss (YLT) summary of layer l.
func (s *SummarySink) Summary(l int) Summary {
	sl := &s.layers[l]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.agg.Summary()
}

// OccSummary returns the maximum-occurrence-loss summary of layer l.
func (s *SummarySink) OccSummary(l int) Summary {
	sl := &s.layers[l]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.occ.Summary()
}

// EPSink estimates per-layer exceedance-curve points at fixed return
// periods online: one mergeable quantile sketch per (layer, AEP/OEP)
// pair answers every return period, so memory is O(layers x k log n)
// regardless of trial count. It satisfies the engine's Sink interface
// and is safe for concurrent Emit.
//
// Emit updates the layer's two sketches under one per-layer mutex. With
// many workers funnelling into few layers those critical sections can
// bound scaling — acceptable for the sink's purpose (bounded memory on
// runs too large to materialise); throughput-critical runs that fit in
// memory should prefer the lock-free FullYLT path plus batch metrics.
// Distributed runs avoid the contention entirely: each shard feeds its
// own sink and the coordinator merges states (see Merge).
type EPSink struct {
	rps    []float64
	k      int
	layers []epLayer
}

type epLayer struct {
	mu  sync.Mutex
	n   int
	agg *QuantileSketch
	occ *QuantileSketch
}

// NewEPSink returns a sink estimating PML at the given return periods
// (nil or empty means StandardReturnPeriods); periods <= 1 year are
// dropped. The quantile sketches use DefaultSketchK.
func NewEPSink(rps []float64) *EPSink { return NewEPSinkSize(rps, 0) }

// NewEPSinkSize is NewEPSink with an explicit sketch capacity k
// (<= 0 selects DefaultSketchK): larger k tightens the quantile error
// bound at proportional memory cost.
func NewEPSinkSize(rps []float64, k int) *EPSink {
	if len(rps) == 0 {
		rps = StandardReturnPeriods
	}
	if k <= 0 {
		k = DefaultSketchK
	}
	valid := make([]float64, 0, len(rps))
	for _, rp := range rps {
		if rp > 1 && !math.IsInf(rp, 0) && !math.IsNaN(rp) {
			valid = append(valid, rp)
		}
	}
	return &EPSink{rps: valid, k: k}
}

// ReturnPeriods returns the sink's accepted return periods.
func (s *EPSink) ReturnPeriods() []float64 { return append([]float64(nil), s.rps...) }

// Begin builds the per-layer sketch pairs. Like SummarySink.Begin, a
// sink with enough leftover layer capacity is rearmed in place: kept
// sketches are Reset (their level storage survives), so a pooled sink
// reaches steady state with zero per-run sketch allocation.
func (s *EPSink) Begin(layerIDs []uint32, numTrials int) error {
	if cap(s.layers) >= len(layerIDs) {
		s.layers = s.layers[:len(layerIDs)]
	} else {
		s.layers = make([]epLayer, len(layerIDs))
	}
	for i := range s.layers {
		l := &s.layers[i]
		l.n = 0
		if l.agg != nil && l.occ != nil {
			l.agg.Reset()
			l.occ.Reset()
			continue
		}
		var err error
		if l.agg, err = NewQuantileSketch(s.k); err != nil {
			return err
		}
		if l.occ, err = NewQuantileSketch(s.k); err != nil {
			return err
		}
	}
	return nil
}

// Rearm resets the sink for a new run under a different return-period
// set — the piece of NewEPSink's construction that varies per job —
// while keeping the sketch capacity k and every per-layer sketch for
// Begin to reuse. The server's pooled sink stacks call this between
// jobs.
func (s *EPSink) Rearm(rps []float64) {
	if len(rps) == 0 {
		rps = StandardReturnPeriods
	}
	s.rps = s.rps[:0]
	for _, rp := range rps {
		if rp > 1 && !math.IsInf(rp, 0) && !math.IsNaN(rp) {
			s.rps = append(s.rps, rp)
		}
	}
}

// Emit folds one trial into the layer's sketch pair.
func (s *EPSink) Emit(layer, trial int, aggLoss, maxOcc float64) {
	l := &s.layers[layer]
	l.mu.Lock()
	l.n++
	l.agg.Add(aggLoss)
	l.occ.Add(maxOcc)
	l.mu.Unlock()
}

// EmitBatch folds one span of trials into the layer's sketch pair under
// a single lock acquisition (see SummarySink.EmitBatch).
func (s *EPSink) EmitBatch(layer, trialLo int, aggLoss, maxOcc []float64) {
	l := &s.layers[layer]
	l.mu.Lock()
	l.n += len(aggLoss)
	for i, v := range aggLoss {
		l.agg.Add(v)
		l.occ.Add(maxOcc[i])
	}
	l.mu.Unlock()
}

// NumLayers returns the number of layers the sink was sized for.
func (s *EPSink) NumLayers() int { return len(s.layers) }

// Points returns the layer's AEP (aggregate exceedance) curve points,
// skipping return periods that exceed the resolution of the trials seen
// — the same rule as EPCurve.Curve.
func (s *EPSink) Points(layer int) []Point { return s.points(layer, false) }

// OccPoints returns the layer's OEP (occurrence exceedance) points.
func (s *EPSink) OccPoints(layer int) []Point { return s.points(layer, true) }

func (s *EPSink) points(layer int, occ bool) []Point {
	l := &s.layers[layer]
	l.mu.Lock()
	defer l.mu.Unlock()
	sk := l.agg
	if occ {
		sk = l.occ
	}
	pts := make([]Point, 0, len(s.rps))
	for _, rp := range s.rps {
		if rp > float64(l.n) {
			continue
		}
		pts = append(pts, Point{ReturnPeriod: rp, Prob: 1 / rp, Loss: sk.Quantile(1 - 1/rp)})
	}
	return pts
}

// ErrorBound reports the layer's guaranteed sketch rank-error fraction
// (see QuantileSketch.ErrorBound) — the documented tolerance for
// comparing sharded EP curves against single-node ones.
func (s *EPSink) ErrorBound(layer int) float64 {
	l := &s.layers[layer]
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.agg.ErrorBound()
	if ob := l.occ.ErrorBound(); ob > b {
		b = ob
	}
	return b
}
