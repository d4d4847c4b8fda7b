package core

import (
	"errors"
	"fmt"
	"sort"
)

// Sink consumes per-trial engine output as it is produced, decoupling
// what the run computes from what it keeps. A sink that retains O(1)
// state per layer (streaming moments, quantile sketches) lets a
// streamed run finish without ever allocating the O(layers x trials)
// Year Loss Tables that otherwise cap trial counts.
type Sink interface {
	// Begin is called exactly once, before any Emit, with the compiled
	// layer IDs (in layer index order) and the total trial count of the
	// run.
	Begin(layerIDs []uint32, numTrials int) error

	// Emit delivers the result of one (layer, trial) cell: the trial's
	// aggregate loss (its Year Loss Table entry) and its maximum
	// single-occurrence loss. Emit must be safe for concurrent use by
	// multiple workers; each (layer, trial) pair is emitted exactly
	// once, with trials arriving in no particular order.
	Emit(layer, trial int, aggLoss, maxOcc float64)

	// EmitBatch delivers a contiguous span of one layer's cells:
	// aggLoss[i] and maxOcc[i] are the results of trial trialLo+i. The
	// pipeline's workers deliver span-at-a-time — one EmitBatch per
	// (layer, span) instead of an interface call per cell — so online
	// sinks can take their synchronisation once per span. The slices
	// are worker scratch, valid only for the duration of the call;
	// retaining sinks must copy. Like Emit, EmitBatch must be safe for
	// concurrent use, and each (layer, trial) cell arrives exactly once
	// across all Emit/EmitBatch calls.
	EmitBatch(layer, trialLo int, aggLoss, maxOcc []float64)
}

// FullYLT is the materialising sink: it stores every per-trial result
// into a Result, reproducing the engine's classic output bitwise.
// Writes are lock-free because every (layer, trial) cell is owned by
// exactly one worker.
type FullYLT struct {
	res *Result

	pooled bool       // Begin draws the table backing from the slab pool
	slab   *[]float64 // pooled backing; returned by Release
}

// NewFullYLT returns an empty materialising sink; Result becomes valid
// once a run over the sink completes.
func NewFullYLT() *FullYLT { return &FullYLT{} }

// NewPooledYLT returns a materialising sink whose loss tables are
// carved from one recycled flat slab instead of fresh per-layer
// allocations — the job-lifetime form for services running quoted jobs
// back to back. The caller must Release once done reading Result (and
// must not retain Result or its columns past that).
func NewPooledYLT() *FullYLT { return &FullYLT{pooled: true} }

// Begin allocates the per-layer loss tables.
func (s *FullYLT) Begin(layerIDs []uint32, numTrials int) error {
	res := &Result{
		LayerIDs:   append([]uint32(nil), layerIDs...),
		AggLoss:    make([][]float64, len(layerIDs)),
		MaxOccLoss: make([][]float64, len(layerIDs)),
	}
	if s.pooled {
		// One slab backs every table; three-index slicing keeps a
		// layer's slice from ever growing into its neighbour's cells.
		s.slab = getYLTSlab(2 * len(layerIDs) * numTrials)
		slab := *s.slab
		for i := range layerIDs {
			o := 2 * i * numTrials
			res.AggLoss[i] = slab[o : o+numTrials : o+numTrials]
			res.MaxOccLoss[i] = slab[o+numTrials : o+2*numTrials : o+2*numTrials]
		}
	} else {
		for i := range layerIDs {
			res.AggLoss[i] = make([]float64, numTrials)
			res.MaxOccLoss[i] = make([]float64, numTrials)
		}
	}
	s.res = res
	return nil
}

// Release returns a pooled sink's slab for reuse and invalidates the
// sink: Result, State and the columns they exposed must not be touched
// afterwards. Harmless on unpooled sinks and on every error path (an
// unreleased slab is simply collected).
func (s *FullYLT) Release() {
	if s.slab != nil {
		yltSlabPool.Put(s.slab)
		s.slab = nil
	}
	s.res = nil
}

// Emit stores one cell.
func (s *FullYLT) Emit(layer, trial int, aggLoss, maxOcc float64) {
	s.res.AggLoss[layer][trial] = aggLoss
	s.res.MaxOccLoss[layer][trial] = maxOcc
}

// EmitBatch stores one span of a layer's cells.
func (s *FullYLT) EmitBatch(layer, trialLo int, aggLoss, maxOcc []float64) {
	copy(s.res.AggLoss[layer][trialLo:], aggLoss)
	copy(s.res.MaxOccLoss[layer][trialLo:], maxOcc)
}

// Result returns the materialised result; call it only after the run
// has completed. The pipeline stamps Phases and LookupMemory when this
// sink is passed to it directly (wrapped inside a MultiSink those two
// engine-owned fields stay zero).
func (s *FullYLT) Result() *Result { return s.res }

// YLTState is the serialisable content of a FullYLT sink — the wire
// form of one shard's materialised Year Loss Tables in the distributed
// protocol. JSON round-trips float64 bit-exactly for finite values, so
// shipping a shard's YLT does not perturb it.
type YLTState struct {
	LayerIDs   []uint32    `json:"layerIds"`
	NumTrials  int         `json:"numTrials"`
	AggLoss    [][]float64 `json:"aggLoss"`
	MaxOccLoss [][]float64 `json:"maxOccLoss"`
}

// State snapshots the sink's tables; call it only after a run over the
// sink has completed.
func (s *FullYLT) State() (YLTState, error) {
	if s.res == nil {
		return YLTState{}, errors.New("core: FullYLT has no completed run to export")
	}
	n := 0
	if len(s.res.AggLoss) > 0 {
		n = len(s.res.AggLoss[0])
	}
	return YLTState{
		LayerIDs:   s.res.LayerIDs,
		NumTrials:  n,
		AggLoss:    s.res.AggLoss,
		MaxOccLoss: s.res.MaxOccLoss,
	}, nil
}

// ShardYLT anchors one shard's exported tables at its global trial
// offset.
type ShardYLT struct {
	Lo    int
	State YLTState
}

// AssembleResult stitches per-shard FullYLT states into the Result a
// single run over all numTrials trials would materialise. Because every
// (layer, trial) cell is a pure function of the trial's events, the
// assembled tables are bitwise identical to the single-node run's —
// the determinism guarantee the distributed path is tested against.
// Shards must tile [0, numTrials) exactly and agree on layer IDs.
func AssembleResult(numTrials int, shards []ShardYLT) (*Result, error) {
	if len(shards) == 0 {
		return nil, errors.New("core: no shards to assemble")
	}
	ordered := append([]ShardYLT(nil), shards...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Lo < ordered[j].Lo })
	first := ordered[0].State
	res := &Result{
		LayerIDs:   append([]uint32(nil), first.LayerIDs...),
		AggLoss:    make([][]float64, len(first.LayerIDs)),
		MaxOccLoss: make([][]float64, len(first.LayerIDs)),
	}
	for l := range res.AggLoss {
		res.AggLoss[l] = make([]float64, numTrials)
		res.MaxOccLoss[l] = make([]float64, numTrials)
	}
	next := 0
	for _, sh := range ordered {
		st := sh.State
		if sh.Lo != next {
			return nil, fmt.Errorf("core: shard assembly: gap or overlap at trial %d (shard starts at %d)", next, sh.Lo)
		}
		if len(st.LayerIDs) != len(res.LayerIDs) {
			return nil, fmt.Errorf("core: shard assembly: layer count mismatch at trial %d", sh.Lo)
		}
		for l, id := range st.LayerIDs {
			if id != res.LayerIDs[l] {
				return nil, fmt.Errorf("core: shard assembly: layer ID mismatch at trial %d", sh.Lo)
			}
		}
		if len(st.AggLoss) != len(res.LayerIDs) || len(st.MaxOccLoss) != len(res.LayerIDs) {
			return nil, fmt.Errorf("core: shard assembly: table shape mismatch at trial %d", sh.Lo)
		}
		for l := range st.AggLoss {
			if len(st.AggLoss[l]) != st.NumTrials || len(st.MaxOccLoss[l]) != st.NumTrials {
				return nil, fmt.Errorf("core: shard assembly: ragged tables at trial %d", sh.Lo)
			}
			if sh.Lo+st.NumTrials > numTrials {
				return nil, fmt.Errorf("core: shard assembly: shard at %d exceeds %d trials", sh.Lo, numTrials)
			}
			copy(res.AggLoss[l][sh.Lo:], st.AggLoss[l])
			copy(res.MaxOccLoss[l][sh.Lo:], st.MaxOccLoss[l])
		}
		next = sh.Lo + st.NumTrials
	}
	if next != numTrials {
		return nil, fmt.Errorf("core: shard assembly: shards cover %d of %d trials", next, numTrials)
	}
	return res, nil
}

// VariantSinks demultiplexes a scenario sweep's flattened result
// stream into one ordinary Sink per variant: the sweep pipeline emits
// with the layer index flattened to variant*NumLayers+layer
// (variant-major), and VariantSinks routes each cell to the matching
// member with the original layer index restored. Every member
// therefore observes exactly what a plain single-variant run would
// feed it — the base engine's layer IDs, the run's trial count, and
// EmitBatch spans — so FullYLT, SummarySink, EPSink or any MultiSink
// of them work unchanged per variant.
type VariantSinks struct {
	sinks  []Sink
	layers int // per-variant layer count, fixed at Begin
}

// NewVariantSinks wraps one sink per sweep variant, in variant order.
func NewVariantSinks(sinks ...Sink) *VariantSinks {
	return &VariantSinks{sinks: sinks}
}

// NewVariantSinksGrouped builds a VariantSinks from per-owner groups
// of variant sinks, flattening them in group order, and returns each
// group's starting variant offset. It exists for cross-job fusion: one
// fused pass prices several jobs' variants back to back, and the
// offsets are the demux map handing each owner the variant window
// [offsets[i], offsets[i]+len(groups[i])) of the compiled sweep.
// Membership is positional, so a group's sinks observe exactly what
// they would have observed had the owner run its variants alone.
func NewVariantSinksGrouped(groups ...[]Sink) (*VariantSinks, []int) {
	offsets := make([]int, len(groups))
	total := 0
	for i, g := range groups {
		offsets[i] = total
		total += len(g)
	}
	flat := make([]Sink, 0, total)
	for _, g := range groups {
		flat = append(flat, g...)
	}
	return NewVariantSinks(flat...), offsets
}

// Sink returns variant k's member sink (for reading results after the
// run).
func (v *VariantSinks) Sink(k int) Sink { return v.sinks[k] }

// NumVariants returns the number of member sinks.
func (v *VariantSinks) NumVariants() int { return len(v.sinks) }

// Begin splits the flattened layer IDs into per-variant groups and
// begins every member with its group. The flattened count must be an
// exact multiple of the variant count — a mismatch means the sink was
// paired with the wrong engine.
func (v *VariantSinks) Begin(flatIDs []uint32, numTrials int) error {
	if len(v.sinks) == 0 {
		return errors.New("core: VariantSinks needs at least one sink")
	}
	if len(flatIDs) == 0 || len(flatIDs)%len(v.sinks) != 0 {
		return fmt.Errorf("core: VariantSinks: %d flattened layers do not split across %d variants",
			len(flatIDs), len(v.sinks))
	}
	v.layers = len(flatIDs) / len(v.sinks)
	for k, s := range v.sinks {
		if err := s.Begin(flatIDs[k*v.layers:(k+1)*v.layers], numTrials); err != nil {
			return err
		}
	}
	return nil
}

// Emit routes one flattened cell to its variant's sink.
func (v *VariantSinks) Emit(flat, trial int, aggLoss, maxOcc float64) {
	v.sinks[flat/v.layers].Emit(flat%v.layers, trial, aggLoss, maxOcc)
}

// EmitBatch routes one flattened span to its variant's sink.
func (v *VariantSinks) EmitBatch(flat, trialLo int, aggLoss, maxOcc []float64) {
	v.sinks[flat/v.layers].EmitBatch(flat%v.layers, trialLo, aggLoss, maxOcc)
}

// MultiSink fans every callback out to each member in order, so one run
// can feed several online consumers (e.g. moments plus exceedance
// sketches) in a single pass over the trials.
type MultiSink []Sink

// Begin forwards to every member, stopping at the first error.
func (m MultiSink) Begin(layerIDs []uint32, numTrials int) error {
	for _, s := range m {
		if err := s.Begin(layerIDs, numTrials); err != nil {
			return err
		}
	}
	return nil
}

// Emit forwards one cell to every member.
func (m MultiSink) Emit(layer, trial int, aggLoss, maxOcc float64) {
	for _, s := range m {
		s.Emit(layer, trial, aggLoss, maxOcc)
	}
}

// EmitBatch forwards one span to every member.
func (m MultiSink) EmitBatch(layer, trialLo int, aggLoss, maxOcc []float64) {
	for _, s := range m {
		s.EmitBatch(layer, trialLo, aggLoss, maxOcc)
	}
}
