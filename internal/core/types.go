// Package core implements the Aggregate Risk Engine (ARE), the paper's
// primary contribution (§II): a Monte Carlo engine that evaluates a
// portfolio of reinsurance layers against a pre-simulated Year Event Table
// and emits a Year Loss Table per layer.
//
// Three execution strategies are provided, mirroring the paper's
// implementations:
//
//   - sequential (one goroutine; the paper's C++ baseline),
//   - parallel (a goroutine worker pool over trials; the paper's OpenMP
//     version — one logical thread per trial, scheduled in batches), and
//   - chunked (events processed in fixed-size blocks through small local
//     buffers; the paper's optimised GPU kernel, whose shared-memory
//     behaviour is modelled faithfully by package gpusim).
//
// All strategies execute the identical floating-point operation sequence
// per trial, so their Year Loss Tables are bitwise identical — enforced by
// tests — and any strategy can be verified against the straightforward
// reference implementation in reference.go.
//
// The compile step lowers each layer into a flat, interface-free
// execution plan (plan.go): one batch-gather step per ELT, holding the
// concrete representation and the ELT's precompiled financial program.
// Kernels consume the YET's columnar event stream (yet.TrialEvents) and
// dispatch once per (ELT, trial) batch, so the per-occurrence path has
// no dynamic calls — the data-layout discipline the paper's optimised
// implementation applies on the GPU, here in Go.
//
// Execution is organised as a streaming pipeline (pipeline.go): workers
// pull trial spans from a TrialSource (a loaded table or a serialised
// stream, source.go) and deliver per-trial results to a Sink (the
// materialising FullYLT or the online sinks in package metrics,
// sink.go). Engine.RunPipelineContext adds cooperative cancellation —
// workers poll the context between spans, which is what gives the ared
// service prompt job cancellation and graceful shutdown — and
// Options.Progress reports cumulative trials completed for live job
// status. Run, RunContext and RunStream are thin wrappers over the one
// orchestrator.
package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/ralab/are/internal/layer"
)

// LookupKind selects the ELT representation used by the engine, enabling
// the paper's data-structure comparison (§III.B).
type LookupKind uint8

// Supported ELT representations.
const (
	// LookupDirect is the paper's choice: dense arrays indexed by event
	// ID, one memory access per lookup.
	LookupDirect LookupKind = iota
	// LookupSorted is the compact sorted-array/binary-search alternative.
	LookupSorted
	// LookupHash is the built-in Go map.
	LookupHash
	// LookupCuckoo is the constant-time compact cuckoo hash cited by the
	// paper.
	LookupCuckoo
	// LookupCombined goes beyond the paper: because the financial terms
	// I are a per-event pure function of the stored loss, each layer's
	// cross-ELT accumulation (algorithm lines 3-9) can be folded into a
	// single direct access table at compile time, turning |ELT| random
	// lookups per occurrence into one. Results are bitwise identical to
	// LookupDirect (the compile-time sum uses the same ELT order as the
	// runtime accumulation). The trade-off: the combined table cannot be
	// shared between layers, and event-level detail (which ELT
	// contributed) is lost — which is why production systems that apply
	// event-date-dependent FX at run time cannot always use it.
	LookupCombined
)

// String names the representation.
func (k LookupKind) String() string {
	switch k {
	case LookupDirect:
		return "direct"
	case LookupSorted:
		return "sorted"
	case LookupHash:
		return "hash"
	case LookupCuckoo:
		return "cuckoo"
	case LookupCombined:
		return "combined"
	default:
		return fmt.Sprintf("lookup(%d)", uint8(k))
	}
}

// UncertaintyMode selects how the engine treats event severities.
type UncertaintyMode uint8

const (
	// UncertaintyMean gathers the stored mean losses — the classic
	// behaviour and the zero value.
	UncertaintyMean UncertaintyMode = iota
	// UncertaintySampled draws each occurrence's loss from the record's
	// severity distribution (§IV secondary uncertainty): lognormal with
	// the record's mean and sigma, driven by a counter-based RNG keyed
	// on (Seed, global trial, event ID). Records without sigmas — and
	// whole mean-only tables — fall back to their stored means, so a
	// portfolio can mix both. Results are a pure function of the seed:
	// bitwise identical across worker counts, shard splits and fused
	// sweep batches.
	UncertaintySampled
)

// Uncertainty configures sampled-severity execution. The zero value is
// mean mode.
type Uncertainty struct {
	// Mode selects mean gathers or per-occurrence sampling.
	Mode UncertaintyMode

	// Seed keys every severity draw of the job. Two runs with the same
	// seed (and portfolio and YET) produce bitwise-identical YLTs.
	Seed uint64

	// TrialOffset maps source-local trial indices into the job's global
	// trial space: a draw's trial coordinate is
	// TrialOffset + batch.Offset + t. Single-process runs leave it 0;
	// distributed executors set it to their shard's low trial bound so
	// every shard samples the same global coordinates.
	TrialOffset int
}

// Options configures a Run.
type Options struct {
	// Workers is the number of concurrent workers over trials. 0 means
	// runtime.GOMAXPROCS(0); 1 runs sequentially on the calling
	// goroutine.
	Workers int

	// ChunkSize, when > 0, processes each trial's events in fixed-size
	// chunks through per-worker local buffers (the optimised kernel).
	// 0 processes whole trials at once (the basic kernel).
	ChunkSize int

	// Lookup selects the ELT representation; default LookupDirect.
	Lookup LookupKind

	// Uncertainty selects mean or sampled severities; zero value is
	// mean mode (see Uncertainty).
	Uncertainty Uncertainty

	// Dynamic switches the parallel scheduler from static contiguous
	// partitions (the OpenMP-style default) to dynamic span-stealing,
	// which balances load when trial lengths are heavily skewed.
	// Results are bitwise identical either way.
	Dynamic bool

	// Profile enables per-phase instrumentation (event fetch, ELT
	// lookup, financial terms, layer terms) at a small runtime cost.
	Profile bool

	// SkipValidation skips the pre-run scan that checks every YET event
	// ID against the catalog size. Benchmarks that re-run the same
	// validated table may set this.
	SkipValidation bool

	// Progress, when non-nil, is called by the pipeline after each trial
	// span completes with the cumulative number of trials finished and
	// the total trial count of the run. Calls may come from any worker
	// goroutine concurrently and `done` values are not guaranteed to
	// arrive in increasing order across goroutines — consumers that need
	// monotonic progress should keep a running maximum. The callback is
	// on the orchestration path (once per span, not per trial), so a
	// cheap atomic store costs nothing measurable; a slow callback slows
	// the run.
	Progress func(done, total int)
}

// PhaseBreakdown records time spent in each algorithm phase across a run,
// reproducing the paper's Figure 6b decomposition. Only populated when
// Options.Profile is set.
type PhaseBreakdown struct {
	EventFetch time.Duration // reading trial occurrences from the YET
	ELTLookup  time.Duration // random access into ELT representations
	Financial  time.Duration // ELT financial terms + cross-ELT accumulation
	LayerTerms time.Duration // occurrence and aggregate layer terms
}

// Total returns the summed phase time.
func (p PhaseBreakdown) Total() time.Duration {
	return p.EventFetch + p.ELTLookup + p.Financial + p.LayerTerms
}

// Percentages returns each phase's share of the total, in order
// (fetch, lookup, financial, layer). Zero total yields zeros.
func (p PhaseBreakdown) Percentages() [4]float64 {
	tot := p.Total()
	if tot <= 0 {
		return [4]float64{}
	}
	f := 100 / float64(tot)
	return [4]float64{
		float64(p.EventFetch) * f,
		float64(p.ELTLookup) * f,
		float64(p.Financial) * f,
		float64(p.LayerTerms) * f,
	}
}

func (p *PhaseBreakdown) add(q PhaseBreakdown) {
	p.EventFetch += q.EventFetch
	p.ELTLookup += q.ELTLookup
	p.Financial += q.Financial
	p.LayerTerms += q.LayerTerms
}

// Result is the engine output: one Year Loss Table per layer plus, for
// OEP-style metrics, the per-trial maximum occurrence loss.
type Result struct {
	LayerIDs []uint32

	// AggLoss[l][t] is the trial loss (year loss net of all terms) of
	// layer l in trial t — the YLT of the paper's line 19.
	AggLoss [][]float64

	// MaxOccLoss[l][t] is the largest single-occurrence loss net of
	// occurrence terms in trial t, the quantity behind occurrence
	// exceedance (OEP) curves.
	MaxOccLoss [][]float64

	// Phases is populated when the run was profiled.
	Phases PhaseBreakdown

	// LookupMemory is the total resident size of the ELT representations
	// used, for the memory/speed trade-off report.
	LookupMemory int
}

// YLT returns the year-loss vector of layer index l.
func (r *Result) YLT(l int) []float64 { return r.AggLoss[l] }

// compiledLayer is a layer lowered into the flat execution plan the
// kernels consume: one gatherStep per ELT (a single folded step for
// LookupCombined) in the layer's ELT order, plus the layer terms. The
// steps are interface-free — each holds a concrete representation and
// a precompiled financial program — so the hot loops stay monomorphic
// (see plan.go).
type compiledLayer struct {
	id     uint32
	steps  []gatherStep
	lterms layer.Terms
}

// Engine is a portfolio compiled against a catalog size, ready to run
// against any number of YETs. It is immutable after construction and safe
// for concurrent use.
type Engine struct {
	catalogSize int
	layers      []compiledLayer
	lookupMem   int
	kind        LookupKind
	// sampled is set when any plan step carries severity parameter
	// columns, i.e. UncertaintySampled runs would actually sample.
	sampled bool
	// zOcc is a catalog-sized bitset of the events covered by some
	// sampled record with positive mean and sigma — the only events
	// whose standard-normal deviate is ever read. fillZ skips the
	// inverse-CDF for everything else, which is most of the column for
	// sparse portfolios. nil when the portfolio has no sampled tables.
	zOcc []uint64
	// plain is the one-variant identity sweep every plain run executes
	// (see identitySweep); sweeps of real variant sets compile their own.
	plain *SweepEngine
}

// Construction errors.
var (
	ErrNilPortfolio  = errors.New("core: portfolio must be non-nil and non-empty")
	ErrBadCatalog    = errors.New("core: catalogSize must be positive")
	ErrEventOutside  = errors.New("core: YET references event outside catalog")
	ErrNilYET        = errors.New("core: YET must be non-nil")
	ErrUnknownLookup = errors.New("core: unknown lookup kind")
	ErrNilSource     = errors.New("core: trial source must be non-nil")
	ErrNilSink       = errors.New("core: sink must be non-nil")
	// ErrSampledCombined rejects sampled severities under
	// LookupCombined: the folded table pre-applies financial terms and
	// the cross-ELT sum to the mean losses at compile time, and a sum
	// of means cannot be re-sampled per event at run time. Use direct
	// (or any per-ELT representation) for sampled jobs.
	ErrSampledCombined = errors.New("core: sampled severities are not supported with LookupCombined (terms and cross-ELT sums are folded over mean losses at compile time; use direct)")
)
