package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/ralab/are/internal/layer"
	"github.com/ralab/are/internal/yet"
)

// Job is one analysis request for the ared service: the portfolio to
// evaluate, the Year Event Table to simulate it against, and the metrics
// wanted back. It is the wire format of POST /v1/jobs.
//
//	{
//	  "portfolio": { ...portfolio spec, see File... },
//	  "yet": {"seed": 2, "trials": 20000, "meanEvents": 100},
//	  "metrics": {"returnPeriods": [100, 250], "quotes": true},
//	  "workers": 0,
//	  "lookup": "direct"
//	}
//
// Unlike spec files loaded from disk, a job's portfolio must be fully
// inline: "file" ELT references are rejected, because the service has no
// filesystem context to resolve them in.
type Job struct {
	// Portfolio is the inline portfolio specification (same schema as a
	// spec file).
	Portfolio *File `json:"portfolio"`

	// YET describes the Year Event Table to generate (deterministic in
	// its seed, so together with the portfolio's catalog size it is the
	// cache identity of the table).
	YET YETSpec `json:"yet"`

	// Metrics selects what the job reports.
	Metrics MetricsSpec `json:"metrics,omitempty"`

	// Workers is the engine worker count for this job; 0 uses the
	// server's default.
	Workers int `json:"workers,omitempty"`

	// Lookup names the ELT representation
	// (direct|sorted|hash|cuckoo|combined); empty means direct.
	Lookup string `json:"lookup,omitempty"`

	// Sweep, when present, turns the job into a scenario sweep: every
	// variant of the base portfolio is evaluated in one fused pass and
	// the result carries per-variant metrics (and quotes, when
	// requested). Variant 0 semantics: a variant with no overrides
	// reproduces the plain job's numbers bitwise.
	Sweep *SweepSpec `json:"sweep,omitempty"`

	// Uncertainty selects how per-record severity distributions are
	// treated (§IV). Omitted or mode "mean" prices every occurrence at
	// its recorded mean loss — the classic deterministic analysis, and
	// bitwise what pre-uncertainty servers computed. Mode "sampled"
	// draws each (trial, event) occurrence loss from its lognormal
	// distribution, keyed on (seed, trial, event) so results are
	// deterministic and independent of scheduling or sharding.
	Uncertainty *UncertaintySpec `json:"uncertainty,omitempty"`
}

// UncertaintySpec is the wire form of the severity-uncertainty mode.
//
//	"uncertainty": {"mode": "sampled", "seed": 42}
type UncertaintySpec struct {
	// Mode is "mean" or "sampled"; empty means "mean".
	Mode string `json:"mode"`

	// Seed keys the severity draws. Two sampled jobs differing only in
	// seed price the same portfolio under independent severity
	// scenarios. Ignored in mean mode.
	Seed uint64 `json:"seed,omitempty"`
}

// Sampled reports whether the job requests sampled severities.
func (j *Job) Sampled() bool {
	return j.Uncertainty != nil && j.Uncertainty.Mode == "sampled"
}

// SweepSpec is the wire form of a scenario sweep: the candidate
// structures to price against the base portfolio in a single pass.
//
//	"sweep": {"variants": [
//	  {"name": "base"},
//	  {"name": "higher-attach", "occRetention": 2e6},
//	  {"name": "60% share", "participationScale": 0.6}
//	]}
type SweepSpec struct {
	Variants []VariantSpec `json:"variants"`
}

// VariantSpec is one candidate structure: layer-term overrides (omitted
// fields inherit the base layer's terms) plus a participation scale.
type VariantSpec struct {
	Name string `json:"name,omitempty"`

	// Layer-term overrides, applied to every layer. Limits accept a
	// number or "unlimited".
	OccRetention *float64 `json:"occRetention,omitempty"`
	OccLimit     *Limit   `json:"occLimit,omitempty"`
	AggRetention *float64 `json:"aggRetention,omitempty"`
	AggLimit     *Limit   `json:"aggLimit,omitempty"`

	// ParticipationScale multiplies every ELT's participation; 0 (or
	// omitted) and 1 both mean unchanged. Scaled participations must
	// stay in (0, 1], checked when the sweep compiles.
	ParticipationScale float64 `json:"participationScale,omitempty"`
}

// MaxSweepVariants caps one sweep's variant count: enough for any
// realistic pricing tower, small enough that a single request cannot
// commission unbounded compile work.
const MaxSweepVariants = 64

// VariantCount is the number of sweep variants the job prices: 1 for a
// plain job (the scheduler's cross-job fusion budgets a plain job as
// one empty variant in a fused pass), the variant count for a sweep.
func (j *Job) VariantCount() int {
	if j.Sweep == nil {
		return 1
	}
	return len(j.Sweep.Variants)
}

// YETSpec mirrors yet.Config for job requests.
type YETSpec struct {
	Seed        uint64  `json:"seed"`
	Trials      int     `json:"trials"`
	MeanEvents  float64 `json:"meanEvents,omitempty"`
	FixedEvents int     `json:"fixedEvents,omitempty"`
	Dispersion  float64 `json:"dispersion,omitempty"`
	Seasonal    bool    `json:"seasonal,omitempty"`
}

// ToConfig converts the wire form into the generator's config.
func (y YETSpec) ToConfig() yet.Config {
	return yet.Config{
		Seed:        y.Seed,
		Trials:      y.Trials,
		MeanEvents:  y.MeanEvents,
		FixedEvents: y.FixedEvents,
		Dispersion:  y.Dispersion,
		Seasonal:    y.Seasonal,
	}
}

// MetricsSpec selects the metrics a job reports. The zero value asks for
// summary moments plus EP points at the standard return periods.
type MetricsSpec struct {
	// ReturnPeriods lists the EP-curve return periods (years) to
	// estimate; nil or empty means the standard set. Each must be a
	// finite value > 1.
	ReturnPeriods []float64 `json:"returnPeriods,omitempty"`

	// Quotes asks for a premium quote per layer, priced from the same
	// Year Loss Table column and sorted curve that render the layer's
	// summary and EP points.
	Quotes bool `json:"quotes,omitempty"`

	// VolatilityMultiplier and ExpenseRatio override the pricing
	// loadings when Quotes is set. 0 (or omitted) selects the pricing
	// defaults (0.3 and 0.1) — an explicit zero loading is not
	// expressible.
	VolatilityMultiplier float64 `json:"volatilityMultiplier,omitempty"`
	ExpenseRatio         float64 `json:"expenseRatio,omitempty"`
}

// Job validation errors (each yields a 400 from the service).
var (
	ErrJobNoPortfolio     = errors.New("spec: job needs a portfolio")
	ErrJobFileELT         = errors.New("spec: job portfolios cannot use file ELT references")
	ErrJobTrials          = errors.New("spec: job yet.trials must be positive")
	ErrJobEvents          = errors.New("spec: job yet needs meanEvents or fixedEvents > 0")
	ErrJobReturnPeriod    = errors.New("spec: job returnPeriods must be finite and > 1")
	ErrJobExpense         = errors.New("spec: job expenseRatio must be in [0, 1)")
	ErrJobVolatility      = errors.New("spec: job volatilityMultiplier must be >= 0")
	ErrJobLookup          = errors.New("spec: job lookup must be one of direct|sorted|hash|cuckoo|combined")
	ErrJobGenerate        = errors.New("spec: generated ELT needs numRecords > 0")
	ErrSweepVariants      = fmt.Errorf("spec: sweep needs between 1 and %d variants", MaxSweepVariants)
	ErrSweepScale         = errors.New("spec: sweep participationScale must be finite and > 0 (or omitted)")
	ErrSweepRetention     = errors.New("spec: sweep retentions must be finite and >= 0")
	ErrSweepLimit         = errors.New("spec: sweep limits must be > 0 (may be \"unlimited\")")
	ErrSweepCombinedShare = errors.New("spec: participationScale sweeps are not supported with lookup=combined (per-variant folded tables; use direct)")
	ErrJobUncertainty     = errors.New("spec: uncertainty mode must be \"mean\" or \"sampled\"")
	ErrSampledCombined    = errors.New("spec: sampled uncertainty is not supported with lookup=combined (terms and cross-ELT sums are folded over mean losses at compile time; use direct)")
)

// validLookups are the ELT representation names a job may request,
// matching core.LookupKind.String.
var validLookups = map[string]bool{
	"": true, "direct": true, "sorted": true, "hash": true,
	"cuckoo": true, "combined": true,
}

// ParseJob decodes and validates one job request. Unknown fields are
// rejected so client typos fail loudly at submission rather than
// silently running a default.
func ParseJob(r io.Reader) (*Job, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var j Job
	if err := dec.Decode(&j); err != nil {
		return nil, fmt.Errorf("spec: job parse: %w", err)
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return &j, nil
}

// Validate checks the request structurally — every condition a 400
// should catch before the service spends any compute on the job. It
// deliberately does not build the portfolio: generation cost belongs to
// the worker pool, not the submission handler.
func (j *Job) Validate() error {
	if j.Portfolio == nil {
		return ErrJobNoPortfolio
	}
	if err := j.Portfolio.check(); err != nil {
		return err
	}
	if j.YET.Trials <= 0 {
		return ErrJobTrials
	}
	if j.YET.MeanEvents <= 0 && j.YET.FixedEvents <= 0 {
		return ErrJobEvents
	}
	for _, rp := range j.Metrics.ReturnPeriods {
		if !(rp > 1) || math.IsInf(rp, 0) {
			return fmt.Errorf("%w: %v", ErrJobReturnPeriod, rp)
		}
	}
	if j.Metrics.ExpenseRatio < 0 || j.Metrics.ExpenseRatio >= 1 {
		return fmt.Errorf("%w: %v", ErrJobExpense, j.Metrics.ExpenseRatio)
	}
	if j.Metrics.VolatilityMultiplier < 0 {
		return fmt.Errorf("%w: %v", ErrJobVolatility, j.Metrics.VolatilityMultiplier)
	}
	if !validLookups[j.Lookup] {
		return fmt.Errorf("%w: %q", ErrJobLookup, j.Lookup)
	}
	if j.Uncertainty != nil {
		switch j.Uncertainty.Mode {
		case "", "mean", "sampled":
		default:
			return fmt.Errorf("%w: %q", ErrJobUncertainty, j.Uncertainty.Mode)
		}
		// Sampled severities need per-occurrence draws; the combined
		// representation folded every table into one mean-loss column
		// at compile time, so there is nothing left to sample. Caught
		// here so the request 400s instead of failing at run time.
		if j.Sampled() && j.Lookup == "combined" {
			return ErrSampledCombined
		}
	}
	if j.Workers < 0 {
		return fmt.Errorf("spec: job workers must be >= 0, got %d", j.Workers)
	}
	if j.Sweep != nil {
		if err := j.Sweep.validate(); err != nil {
			return err
		}
		// Share-varying variants under the combined representation
		// cannot reuse the base layer tables (terms are folded in at
		// compile time): each such variant would fold its own
		// catalog-size table per layer — up to 64x the plain job's
		// table memory from one request, for a configuration the
		// fusion cannot speed up anyway. Reject it; direct gives the
		// same numbers and amortises the gather.
		if j.Lookup == "combined" {
			for i := range j.Sweep.Variants {
				if s := j.Sweep.Variants[i].ParticipationScale; s != 0 && s != 1 {
					return fmt.Errorf("%w (variant %d)", ErrSweepCombinedShare, i)
				}
			}
		}
	}
	return nil
}

// validate checks the sweep structurally; whether a scaled
// participation stays in range depends on the base ELT terms and is
// checked at compile time (a 4xx-worthy failure either way, surfaced
// when the job runs).
func (s *SweepSpec) validate() error {
	if len(s.Variants) == 0 || len(s.Variants) > MaxSweepVariants {
		return fmt.Errorf("%w: got %d", ErrSweepVariants, len(s.Variants))
	}
	for i := range s.Variants {
		v := &s.Variants[i]
		if v.ParticipationScale != 0 &&
			(!(v.ParticipationScale > 0) || math.IsInf(v.ParticipationScale, 0)) {
			return fmt.Errorf("%w: variant %d has %v", ErrSweepScale, i, v.ParticipationScale)
		}
		for _, r := range []*float64{v.OccRetention, v.AggRetention} {
			if r != nil && (*r < 0 || math.IsNaN(*r) || math.IsInf(*r, 0)) {
				return fmt.Errorf("%w: variant %d has %v", ErrSweepRetention, i, *r)
			}
		}
		for _, l := range []*Limit{v.OccLimit, v.AggLimit} {
			if l != nil && (!(float64(*l) > 0) || math.IsNaN(float64(*l))) {
				return fmt.Errorf("%w: variant %d has %v", ErrSweepLimit, i, float64(*l))
			}
		}
	}
	return nil
}

// BuildPortfolio constructs the job's portfolio, returning it with the
// catalog size to compile against. Call only after Validate.
func (j *Job) BuildPortfolio() (*layer.Portfolio, int, error) {
	return build(j.Portfolio, nil)
}

// check performs the structural validation of a portfolio spec — the
// same rules build enforces, minus the table construction, so a request
// can be rejected before any generation work is scheduled.
func (f *File) check() error {
	if f.CatalogSize <= 0 {
		return ErrNoCatalog
	}
	if len(f.ELTs) == 0 {
		return ErrNoELTs
	}
	if len(f.Layers) == 0 {
		return ErrNoLayers
	}
	seen := make(map[uint32]bool, len(f.ELTs))
	for i := range f.ELTs {
		es := &f.ELTs[i]
		if seen[es.ID] {
			return fmt.Errorf("%w: %d", ErrDuplicateELT, es.ID)
		}
		seen[es.ID] = true
		if es.File != "" {
			return fmt.Errorf("%w (elt %d)", ErrJobFileELT, es.ID)
		}
		hasRecords := len(es.Records) > 0
		hasGen := es.Generate != nil
		if hasRecords == hasGen {
			return fmt.Errorf("%w (elt %d)", ErrELTSource, es.ID)
		}
		if hasGen && es.Generate.NumRecords <= 0 {
			return fmt.Errorf("%w (elt %d)", ErrJobGenerate, es.ID)
		}
		for k, row := range es.Records {
			if len(row) != 2 && len(row) != 3 {
				return fmt.Errorf("%w (elt %d record %d: %d elements)",
					ErrRecordShape, es.ID, k, len(row))
			}
			ev := row[0]
			if ev < 0 || ev != math.Trunc(ev) || ev >= float64(f.CatalogSize) {
				return fmt.Errorf("spec: elt %d record %d: event %v invalid for catalog %d",
					es.ID, k, ev, f.CatalogSize)
			}
		}
	}
	for i := range f.Layers {
		ls := &f.Layers[i]
		if len(ls.ELTs) == 0 {
			return fmt.Errorf("spec: layer %d covers no ELTs", ls.ID)
		}
		for _, id := range ls.ELTs {
			if !seen[id] {
				return fmt.Errorf("%w: layer %d -> elt %d", ErrUnknownELT, ls.ID, id)
			}
		}
	}
	return nil
}
