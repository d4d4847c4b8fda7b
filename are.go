// Package are is the public API of the Aggregate Risk Engine: a parallel
// Monte Carlo engine for portfolio-level catastrophe risk analysis and
// pricing, reproducing Bahl, Baltzer, Rau-Chaplin and Varghese,
// "Parallel Simulations for Analysing Portfolios of Catastrophic Event
// Risk" (SC 2012 / arXiv:1308.2066).
//
// # Pipeline
//
// The package covers the full analytical pipeline of a quantitative
// reinsurer:
//
//  1. Risk assessment — a stochastic event catalog (Catalog) and exposure
//     databases (ExposureSet) are run through a catastrophe model
//     (BuildELT) to produce Event Loss Tables.
//  2. Portfolio risk management — layers (Layer) covering sets of ELTs
//     under occurrence/aggregate excess-of-loss terms are evaluated by
//     the engine (Engine.Run) against a pre-simulated Year Event Table
//     (YET), producing a Year Loss Table per layer.
//  3. Reporting and pricing — exceedance curves, PML and TVaR (EPCurve)
//     and premium quotes (Price) are derived from the YLTs.
//
// # Quickstart
//
//	portfolio, _ := are.GeneratePortfolio(are.PortfolioConfig{
//		Seed: 1, NumLayers: 1, ELTsPerLayer: 15,
//		RecordsPerELT: 20000, CatalogSize: 1000000,
//	})
//	yet, _ := are.GenerateYET(are.UniformEvents(1000000), are.YETConfig{
//		Seed: 2, Trials: 50000, MeanEvents: 1000,
//	})
//	engine, _ := are.NewEngine(portfolio, 1000000, are.LookupDirect)
//	result, _ := engine.Run(yet, are.Options{})
//	curve, _ := are.NewEPCurve(result.YLT(0))
//	pml100, _ := curve.PML(100)
//
// Synthetic generators stand in for the proprietary industrial data the
// paper used; every generator is deterministic in its seed, and all
// engine variants (sequential, parallel, chunked) produce bitwise
// identical results.
package are

import (
	"io"
	"math"

	"github.com/ralab/are/internal/catalog"
	"github.com/ralab/are/internal/catmodel"
	"github.com/ralab/are/internal/core"
	"github.com/ralab/are/internal/elt"
	"github.com/ralab/are/internal/exposure"
	"github.com/ralab/are/internal/financial"
	"github.com/ralab/are/internal/harness"
	"github.com/ralab/are/internal/layer"
	"github.com/ralab/are/internal/lossdist"
	"github.com/ralab/are/internal/metrics"
	"github.com/ralab/are/internal/pricing"
	"github.com/ralab/are/internal/report"
	"github.com/ralab/are/internal/spec"
	"github.com/ralab/are/internal/yet"
)

// ---------------------------------------------------------------------------
// Stage 1: catalog, exposure, catastrophe model, ELTs.

// Core domain types, re-exported for users of the public API.
type (
	// EventID identifies an event in the stochastic catalog.
	EventID = catalog.EventID
	// Peril is a catastrophe class (hurricane, earthquake, ...).
	Peril = catalog.Peril
	// Event is one synthetic catastrophe event.
	Event = catalog.Event
	// Catalog is a stochastic event catalog.
	Catalog = catalog.Catalog
	// CatalogConfig controls catalog generation.
	CatalogConfig = catalog.Config

	// ExposureSet is one cedant's insured portfolio of buildings.
	ExposureSet = exposure.Set
	// ExposureConfig controls exposure generation.
	ExposureConfig = exposure.Config
	// Building is a single insured risk.
	Building = exposure.Building

	// CatModelConfig controls the catastrophe model run.
	CatModelConfig = catmodel.Config

	// ELT is an Event Loss Table.
	ELT = elt.Table
	// ELTRecord is one event-loss pair.
	ELTRecord = elt.Record
	// ELTConfig controls synthetic ELT generation.
	ELTConfig = elt.GenConfig

	// FinancialTerms are the ELT-level terms I (FX, per-event
	// retention/limit, participation).
	FinancialTerms = financial.Terms
)

// Perils lists the modelled catastrophe classes.
func Perils() []Peril { return catalog.Perils() }

// GenerateCatalog builds a synthetic stochastic event catalog.
func GenerateCatalog(cfg CatalogConfig) (*Catalog, error) { return catalog.Generate(cfg) }

// GenerateExposure builds a synthetic exposure set.
func GenerateExposure(id uint32, cfg ExposureConfig) (*ExposureSet, error) {
	return exposure.Generate(id, cfg)
}

// BuildELT runs the catastrophe model for one exposure set against a
// catalog, producing its Event Loss Table.
func BuildELT(cat *Catalog, set *ExposureSet, terms FinancialTerms, eltID uint32, cfg CatModelConfig) (*ELT, error) {
	return catmodel.BuildELT(cat, set, terms, eltID, cfg)
}

// GenerateELT builds a synthetic ELT directly (without running the
// catastrophe model), matching the statistical shape the paper reports.
func GenerateELT(id uint32, cfg ELTConfig) (*ELT, error) { return elt.Generate(id, cfg) }

// NewELT builds an ELT from explicit records.
func NewELT(id uint32, terms FinancialTerms, records []ELTRecord) (*ELT, error) {
	return elt.New(id, terms, records)
}

// DefaultFinancialTerms returns pass-through financial terms.
func DefaultFinancialTerms() FinancialTerms { return financial.Default() }

// UnlimitedLoss is the sentinel for "no limit" in financial and layer
// terms.
var UnlimitedLoss = financial.Unlimited

// ---------------------------------------------------------------------------
// Stage 2: layers, YET, engine.

// Contract and simulation types, re-exported.
type (
	// Layer is one reinsurance contract over a set of ELTs.
	Layer = layer.Layer
	// LayerTerms is the tuple (TOccR, TOccL, TAggR, TAggL) of Table I.
	LayerTerms = layer.Terms
	// Portfolio is a book of layers.
	Portfolio = layer.Portfolio
	// PortfolioConfig controls synthetic portfolio generation.
	PortfolioConfig = layer.GenConfig

	// YET is a Year Event Table of pre-simulated trials.
	YET = yet.Table
	// YETConfig controls YET generation.
	YETConfig = yet.Config
	// EventSource supplies event draws for YET generation.
	EventSource = yet.EventSource

	// Engine is a compiled portfolio ready to run against YETs.
	Engine = core.Engine
	// Options configures an engine run.
	Options = core.Options
	// Result holds the Year Loss Tables of a run.
	Result = core.Result
	// PhaseBreakdown is the per-phase time decomposition.
	PhaseBreakdown = core.PhaseBreakdown
	// LookupKind selects the ELT representation.
	LookupKind = core.LookupKind
)

// ELT representations (paper §III.B).
const (
	// LookupDirect is the paper's direct access table.
	LookupDirect = core.LookupDirect
	// LookupSorted is the sorted-array / binary-search alternative.
	LookupSorted = core.LookupSorted
	// LookupHash is the built-in map alternative.
	LookupHash = core.LookupHash
	// LookupCuckoo is the cuckoo-hash alternative cited by the paper.
	LookupCuckoo = core.LookupCuckoo
	// LookupCombined folds financial terms and the cross-ELT sum into
	// one table per layer at compile time — one lookup per occurrence,
	// bitwise identical to LookupDirect (an optimisation beyond the
	// paper; see the core package for its applicability limits).
	LookupCombined = core.LookupCombined
)

// NewLayer builds and validates a layer over ELTs.
func NewLayer(id uint32, name string, elts []*ELT, terms LayerTerms) (*Layer, error) {
	return layer.New(id, name, elts, terms)
}

// PassThroughLayerTerms returns layer terms that leave losses untouched.
func PassThroughLayerTerms() LayerTerms { return layer.PassThrough() }

// GeneratePortfolio builds a synthetic portfolio of layers and ELTs.
func GeneratePortfolio(cfg PortfolioConfig) (*Portfolio, error) {
	return layer.GeneratePortfolio(cfg)
}

// GenerateYET pre-simulates a Year Event Table.
func GenerateYET(src EventSource, cfg YETConfig) (*YET, error) { return yet.Generate(src, cfg) }

// UniformEvents returns an EventSource drawing uniformly from a catalog of
// n events (rate-weighted draws come from *Catalog itself).
func UniformEvents(n int) EventSource { return yet.UniformSource(n) }

// ReadYET deserialises a YET written with WriteYET.
func ReadYET(r io.Reader) (*YET, error) { return yet.Read(r) }

// WriteYET serialises a YET in the package's binary format.
func WriteYET(w io.Writer, t *YET) (int64, error) { return t.WriteTo(w) }

// NewEngine compiles a portfolio against a catalog size using the given
// ELT representation.
func NewEngine(p *Portfolio, catalogSize int, kind LookupKind) (*Engine, error) {
	return core.NewEngine(p, catalogSize, kind)
}

// Reference evaluates the portfolio with the literal transcription of the
// paper's pseudocode; it exists for verification and testing.
func Reference(p *Portfolio, y *YET, catalogSize int) (*Result, error) {
	return core.Reference(p, y, catalogSize)
}

// ---------------------------------------------------------------------------
// Streaming execution pipeline: sources, sinks, orchestrator.

// Pipeline types, re-exported. Engine.RunPipeline(src, sink, opt) runs
// any source against any sink; Engine.Run and Engine.RunStream are the
// materialising convenience wrappers over it.
type (
	// TrialSource supplies trial batches to the engine's pipeline
	// orchestrator, unifying loaded tables and serialised streams.
	TrialSource = core.TrialSource
	// TrialBatch is one unit of pipeline work.
	TrialBatch = core.Batch
	// Sink consumes per-trial (layer, trial, aggLoss, maxOcc) results
	// as the pipeline produces them.
	Sink = core.Sink
	// FullYLTSink materialises every result into a classic Result.
	FullYLTSink = core.FullYLT
	// MultiSink fans results out to several sinks in one pass.
	MultiSink = core.MultiSink
	// SummarySink accumulates per-layer YLT moments online in O(1)
	// memory per layer.
	SummarySink = metrics.SummarySink
	// EPSink estimates per-layer PML points at fixed return periods
	// online via compacting quantile sketches.
	EPSink = metrics.EPSink
)

// The metrics sinks satisfy the engine's Sink interface structurally.
var (
	_ Sink = (*SummarySink)(nil)
	_ Sink = (*EPSink)(nil)
	_ Sink = (*FullYLTSink)(nil)
	_ Sink = (MultiSink)(nil)
)

// NewTableSource adapts a loaded YET into a pipeline TrialSource.
func NewTableSource(y *YET) TrialSource { return core.NewTableSource(y) }

// NewStreamSource wraps a serialised YET (written by WriteYET) as a
// prefetching TrialSource that decodes trials in batches of batchTrials,
// overlapping decode with compute, without ever materialising the whole
// table.
func NewStreamSource(r io.Reader, batchTrials int) (TrialSource, error) {
	return core.NewStreamSource(r, batchTrials)
}

// NewFullYLTSink returns the materialising sink (classic Run output,
// bitwise identical).
func NewFullYLTSink() *FullYLTSink { return core.NewFullYLT() }

// NewSummarySink returns a streaming-moments sink: AAL, standard
// deviation, min/max per layer with O(1) memory per layer. Mean and
// StdDev match Summarise up to floating-point association (~1e-12
// relative); Min/Max/Trials are exact.
func NewSummarySink() *SummarySink { return metrics.NewSummarySink() }

// NewEPSink returns an online exceedance-curve sink estimating PML at
// the given return periods (nil or empty means StandardReturnPeriods)
// via compacting quantile sketches: each point is the order statistic
// of rank ceil((1-1/rp) * trials), exact for return periods above
// trials/1024 and within a guaranteed sub-percent rank-error bound
// below that. EPCurve interpolates between order statistics, so the
// two agree only approximately.
func NewEPSink(returnPeriods []float64) *EPSink { return metrics.NewEPSink(returnPeriods) }

// ---------------------------------------------------------------------------
// Scenario sweeps: K candidate structures, one fused pass.

// Sweep types, re-exported. A sweep prices K term/share variants of one
// portfolio in a single pass over the trials, paying the memory-bound
// event gather once; variant 0 with an empty delta is bitwise identical
// to a plain Engine.Run.
type (
	// SweepEngine evaluates a compiled variant set in one fused pass.
	SweepEngine = core.SweepEngine
	// SweepVariant describes one candidate structure as deltas on the
	// base portfolio (layer-term overrides + participation scale).
	SweepVariant = core.Variant
	// VariantSinks demultiplexes a sweep's result stream into one
	// ordinary Sink per variant.
	VariantSinks = core.VariantSinks
)

// NewSweepEngine compiles a portfolio and K variants for fused
// evaluation; SweepEngine.Run materialises one Result per variant.
func NewSweepEngine(p *Portfolio, catalogSize int, kind LookupKind, variants []SweepVariant) (*SweepEngine, error) {
	return core.NewSweepEngine(p, catalogSize, kind, variants)
}

// NewVariantSinks wraps one sink per sweep variant, in variant order,
// for SweepEngine.RunPipeline.
func NewVariantSinks(sinks ...Sink) *VariantSinks { return core.NewVariantSinks(sinks...) }

// ---------------------------------------------------------------------------
// Stage 3: metrics and pricing.

// Reporting types, re-exported.
type (
	// EPCurve is an exceedance-probability curve.
	EPCurve = metrics.EPCurve
	// EPPoint is one point of a printed EP curve.
	EPPoint = metrics.Point
	// YLTSummary holds YLT moments.
	YLTSummary = metrics.Summary
	// Quote is a priced layer.
	Quote = pricing.Quote
	// PricingConfig sets pricing loadings.
	PricingConfig = pricing.Config
)

// NewEPCurve builds an exceedance curve from per-trial losses (a YLT for
// AEP, per-trial maximum occurrence losses for OEP).
func NewEPCurve(losses []float64) (*EPCurve, error) { return metrics.NewEPCurve(losses) }

// Summarise computes YLT summary statistics.
func Summarise(ylt []float64) (YLTSummary, error) { return metrics.Summarise(ylt) }

// StandardReturnPeriods are the conventionally reported return periods.
func StandardReturnPeriods() []float64 { return metrics.StandardReturnPeriods }

// Price computes a premium quote from a layer's YLT.
func Price(ylt []float64, cfg PricingConfig) (Quote, error) { return pricing.Price(ylt, cfg) }

// ---------------------------------------------------------------------------
// Experiments.

// ExperimentConfig controls paper-figure regeneration.
type ExperimentConfig = harness.Config

// ExperimentTable is a rendered experiment result.
type ExperimentTable = harness.Table

// Experiments lists the reproducible paper figures.
func Experiments() []string { return harness.Names() }

// RunExperiment regenerates one paper figure as a table.
func RunExperiment(name string, cfg ExperimentConfig) (*ExperimentTable, error) {
	return harness.Run(name, cfg)
}

// ---------------------------------------------------------------------------
// Extension: secondary uncertainty (paper §IV).
//
// The paper's §IV sketches treating each event loss as a distribution
// rather than a mean. The engine supports it two ways, both reached
// through this section:
//
//   - Sampled execution: ELT records carry a lognormal sigma
//     (NewSampledELT, or sigma columns in specs and generated tables)
//     and the engine draws each (trial, event) occurrence loss inside
//     the columnar hot path when Options.Uncertainty asks for
//     UncertaintySampled. Draws are keyed on (seed, trial, event) by a
//     counter-based generator, so results are bitwise reproducible and
//     independent of worker count, sharding or fusion.
//   - Analytical machinery: the Severity type wraps discretised loss
//     distributions with convolution, Panjer compounding and layer
//     terms — the closed-form counterpart used to cross-validate the
//     sampler and to price single-severity models exactly.

// Distribution types, re-exported.
type (
	// LossDist is a discretised loss distribution on a uniform grid,
	// the representation behind Severity. Use Severity for new code;
	// LossDist remains for direct grid-level work.
	LossDist = lossdist.Dist

	// Uncertainty configures how an engine run treats severity
	// distributions (Options.Uncertainty).
	Uncertainty = core.Uncertainty
	// UncertaintyMode selects mean-only or sampled execution.
	UncertaintyMode = core.UncertaintyMode
	// JobUncertaintySpec is the job-request form of the uncertainty
	// block ({"mode": "sampled", "seed": N}).
	JobUncertaintySpec = spec.UncertaintySpec
)

// Uncertainty modes.
const (
	// UncertaintyMean prices every occurrence at its recorded mean
	// loss — the classic deterministic analysis and the zero value.
	UncertaintyMean = core.UncertaintyMean
	// UncertaintySampled draws per-(trial, event) occurrence losses
	// from each record's lognormal distribution.
	UncertaintySampled = core.UncertaintySampled
)

// NewSampledELT builds an ELT whose records carry lognormal severity
// sigmas: sigmas[i] belongs to records[i]. Records with sigma 0 always
// contribute their mean. The table runs unchanged in mean mode and
// samples under UncertaintySampled.
func NewSampledELT(id uint32, terms FinancialTerms, records []ELTRecord, sigmas []float64) (*ELT, error) {
	return elt.NewSampled(id, terms, records, sigmas)
}

// ReferenceSampled evaluates the portfolio with the naive transcription
// of §IV sampling — one fresh draw per occurrence, no batching. It is
// the oracle the vectorised sampled kernels are verified against and
// produces bitwise the same YLTs as a sampled Engine.Run with
// Uncertainty{Seed: seed}.
func ReferenceSampled(p *Portfolio, y *YET, catalogSize int, seed uint64) (*Result, error) {
	return core.ReferenceSampled(p, y, catalogSize, seed)
}

// Severity is a loss-severity distribution: the single entry point to
// the analytical §IV machinery. Construct one from a PMF, a CDF or
// lognormal parameters; derive new severities by convolution,
// compounding or layer terms; read moments and tail points directly.
// The zero Severity is invalid — always construct through the
// SeverityFrom*/LognormalSeverity constructors or a deriving method.
type Severity struct {
	d *lossdist.Dist
}

// SeverityFromPMF builds a severity from a PMF on a uniform grid of
// the given step (pmf[i] is the probability of loss i*step).
func SeverityFromPMF(step float64, pmf []float64) (Severity, error) {
	d, err := lossdist.New(step, pmf)
	return Severity{d}, err
}

// SeverityFromCDF discretises a continuous CDF onto a grid of the
// given step, truncated at maxLoss.
func SeverityFromCDF(step, maxLoss float64, cdf func(float64) float64) (Severity, error) {
	d, err := lossdist.Discretise(step, maxLoss, cdf)
	return Severity{d}, err
}

// LognormalSeverity discretises the lognormal severity the sampled
// engine draws from — mean expected loss and shape sigma, the same
// parameterisation as NewSampledELT's sigma column — onto a grid of
// the given step truncated at maxLoss. It is the bridge between the
// Monte Carlo and analytical halves of §IV: the Panjer compound of
// this severity is the closed-form annual-loss distribution a sampled
// run estimates.
func LognormalSeverity(mean, sigma, step, maxLoss float64) (Severity, error) {
	mu := elt.LogNormalMu(mean, sigma)
	return SeverityFromCDF(step, maxLoss, func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return 0.5 * math.Erfc(-(math.Log(x)-mu)/(sigma*math.Sqrt2))
	})
}

// Dist exposes the underlying grid distribution for direct work.
func (s Severity) Dist() *LossDist { return s.d }

// Convolve returns the severity of the sum of independent losses
// (FFT-accelerated for large supports).
func (s Severity) Convolve(others ...Severity) (Severity, error) {
	ds := make([]*lossdist.Dist, 0, len(others)+1)
	ds = append(ds, s.d)
	for _, o := range others {
		ds = append(ds, o.d)
	}
	d, err := lossdist.ConvolveN(ds...)
	return Severity{d}, err
}

// Compound returns the annual aggregate loss distribution for
// Poisson(lambda) occurrences of this severity (Panjer recursion) —
// the closed-form counterpart to a sampled engine run for a single
// severity model. maxBuckets caps the result's support.
func (s Severity) Compound(lambda float64, maxBuckets int) (Severity, error) {
	d, err := lossdist.CompoundPoisson(lambda, s.d, maxBuckets)
	return Severity{d}, err
}

// ApplyLayerTerms pushes the severity through
// min(max(X-retention, 0), limit).
func (s Severity) ApplyLayerTerms(retention, limit float64) (Severity, error) {
	d, err := lossdist.ApplyLayerTerms(s.d, retention, limit)
	return Severity{d}, err
}

// Mean returns the severity's expected loss.
func (s Severity) Mean() float64 { return s.d.Mean() }

// Variance returns the severity's loss variance.
func (s Severity) Variance() float64 { return s.d.Variance() }

// Quantile returns the smallest grid loss with CDF >= p.
func (s Severity) Quantile(p float64) float64 { return s.d.Quantile(p) }

// ExceedanceProb returns P(X > x).
func (s Severity) ExceedanceProb(x float64) float64 { return s.d.ExceedanceProb(x) }

// ---------------------------------------------------------------------------
// Enterprise roll-up and advanced pricing.

// ReinstatableQuote is a Cat XL quote with reinstatement provisions.
type ReinstatableQuote = pricing.ReinstatableQuote

// PriceReinstatable prices a Cat XL layer with reinstatement provisions
// (reference [18] of the paper): reinstatement premium income, pro rata
// to the limit consumed, offsets the upfront technical premium.
func PriceReinstatable(ylt []float64, reinstatements int, reinstRate float64, cfg PricingConfig) (ReinstatableQuote, error) {
	return pricing.PriceReinstatable(ylt, reinstatements, reinstRate, cfg)
}

// AllocateTVaR attributes the group's tail capital at confidence q back
// to layers by co-TVaR; allocations sum to the group TVaR.
func AllocateTVaR(ylts [][]float64, q float64) ([]float64, error) {
	return metrics.AllocateTVaR(ylts, q)
}

// DiversificationBenefit reports the group's tail-capital saving versus
// standalone TVaRs, in [0, 1).
func DiversificationBenefit(ylts [][]float64, q float64) (float64, error) {
	return metrics.DiversificationBenefit(ylts, q)
}

// ParsePortfolioSpec loads a JSON portfolio specification (see
// internal/spec for the schema) and returns the portfolio plus the
// catalog size to compile against.
func ParsePortfolioSpec(r io.Reader) (*Portfolio, int, error) { return spec.Parse(r) }

// ReportConfig controls rendered analysis reports.
type ReportConfig = report.Config

// WriteReport renders a markdown analysis report (per-layer metrics and
// quotes, group roll-up, capital allocation) for an engine result.
func WriteReport(w io.Writer, p *Portfolio, res *Result, cfg ReportConfig) error {
	return report.Write(w, p, res, cfg)
}

// SpecOpener resolves "file" ELT references in a portfolio spec.
type SpecOpener = spec.Opener

// ParsePortfolioSpecFiles is ParsePortfolioSpec with an opener for
// resolving "file" ELT references (binary tables written by WriteELT).
func ParsePortfolioSpecFiles(r io.Reader, open SpecOpener) (*Portfolio, int, error) {
	return spec.ParseFiles(r, open)
}

// WriteELT serialises an Event Loss Table in the binary format consumed
// by spec "file" references and ReadELT.
func WriteELT(w io.Writer, t *ELT) (int64, error) { return t.WriteTo(w) }

// ReadELT deserialises a binary Event Loss Table.
func ReadELT(r io.Reader) (*ELT, error) { return elt.ReadTable(r) }

// ---------------------------------------------------------------------------
// Analysis service (ared) job specifications.

// Job-request types, re-exported for clients of the ared HTTP service
// (cmd/ared, docs/api.md) and for programs that want to replay a job
// through the library directly.
type (
	// JobSpec is one analysis request: an inline portfolio spec, a YET
	// spec, and the metrics wanted back — the body of POST /v1/jobs.
	JobSpec = spec.Job
	// JobYETSpec is the job's Year Event Table description; together
	// with the portfolio's catalog size it is the table's cache
	// identity on the server.
	JobYETSpec = spec.YETSpec
	// JobMetricsSpec selects the metrics a job reports.
	JobMetricsSpec = spec.MetricsSpec
	// PortfolioSpec is the JSON document form of a portfolio (the
	// schema ParsePortfolioSpec reads, and a job's "portfolio" field).
	PortfolioSpec = spec.File
)

// ParseJobSpec decodes and validates one ared job request; unknown
// fields and structurally invalid specs are rejected with the same
// errors the service's 400 responses carry.
func ParseJobSpec(r io.Reader) (*JobSpec, error) { return spec.ParseJob(r) }
