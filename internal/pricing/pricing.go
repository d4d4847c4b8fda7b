// Package pricing turns a layer's Year Loss Table into a premium quote —
// the real-time pricing use case that motivates the paper's performance
// target (an underwriter re-quoting contractual terms while on the phone
// with a client, §IV).
//
// The quote follows standard actuarial practice for catastrophe excess of
// loss: pure premium = expected annual loss to the layer; risk load =
// a multiple of the YLT standard deviation (volatility loading); the
// technical premium adds expenses; rate on line expresses premium as a
// fraction of the occurrence limit.
package pricing

import (
	"errors"
	"math"
	"sync"

	"github.com/ralab/are/internal/metrics"
)

// curveBufPool recycles the sorted-YLT scratch behind the transient
// exceedance curve Price builds per quote: re-quoting is the hot loop
// the paper targets, and the curve — two quantile reads — must not
// cost a trial-sized allocation per layer.
var curveBufPool = sync.Pool{New: func() any { return new([]float64) }}

// Quote is a priced layer.
type Quote struct {
	ExpectedLoss     float64 // pure premium (average annual loss)
	StdDev           float64 // YLT volatility
	RiskLoad         float64 // volatility loading
	ExpenseLoad      float64 // brokerage/expense loading
	TechnicalPremium float64 // EL + risk load + expenses
	RateOnLine       float64 // premium / occurrence limit (0 when unlimited)
	PML100           float64 // 100-year PML, quoted alongside for context
	TVaR99           float64 // 99% TVaR
}

// Config sets loading factors.
type Config struct {
	// VolatilityMultiplier scales the standard deviation into the risk
	// load; industry practice is 0.2-0.5. Default 0.3.
	VolatilityMultiplier float64
	// ExpenseRatio is the share of technical premium consumed by
	// expenses; default 0.1.
	ExpenseRatio float64
	// OccLimit, when finite and > 0, is used for rate on line.
	OccLimit float64
}

func (c *Config) setDefaults() {
	if c.VolatilityMultiplier <= 0 {
		c.VolatilityMultiplier = 0.3
	}
	if c.ExpenseRatio <= 0 {
		c.ExpenseRatio = 0.1
	}
}

// ErrBadConfig reports an invalid expense ratio.
var ErrBadConfig = errors.New("pricing: ExpenseRatio must be < 1")

// Price computes a quote from a layer's YLT: the summary and sorted
// curve it builds are PriceCurve's inputs.
func Price(ylt []float64, cfg Config) (Quote, error) {
	sum, err := metrics.Summarise(ylt)
	if err != nil {
		return Quote{}, err
	}
	bufp := curveBufPool.Get().(*[]float64)
	curve, buf, err := metrics.NewEPCurveAt(*bufp, ylt)
	*bufp = buf
	// The curve never escapes — PriceCurve copies plain floats into the
	// Quote — so the scratch can go straight back.
	defer curveBufPool.Put(bufp)
	if err != nil {
		return Quote{}, err
	}
	return PriceCurve(sum, curve, cfg)
}

// PriceCurve computes a quote from a layer's YLT summary and its sorted
// exceedance curve, for callers that already hold both: the quote's
// PML100 and TVaR99 are then read from the very curve that renders the
// layer's EP points.
func PriceCurve(sum metrics.Summary, curve *metrics.EPCurve, cfg Config) (Quote, error) {
	cfg.setDefaults()
	if cfg.ExpenseRatio >= 1 {
		return Quote{}, ErrBadConfig
	}
	q := Quote{
		ExpectedLoss: sum.Mean,
		StdDev:       sum.StdDev,
		RiskLoad:     cfg.VolatilityMultiplier * sum.StdDev,
	}
	// Technical premium grosses up for expenses:
	// premium = (EL + risk load) / (1 - expense ratio).
	net := q.ExpectedLoss + q.RiskLoad
	q.TechnicalPremium = net / (1 - cfg.ExpenseRatio)
	q.ExpenseLoad = q.TechnicalPremium - net
	if cfg.OccLimit > 0 && !math.IsInf(cfg.OccLimit, 0) {
		q.RateOnLine = q.TechnicalPremium / cfg.OccLimit
	}
	if curve.Trials() >= 100 {
		q.PML100, _ = curve.PML(100)
	}
	q.TVaR99, _ = curve.TVaR(0.99)
	return q, nil
}

// ReinstatableQuote extends Quote for Cat XL layers with reinstatement
// provisions (paper reference [18], Anderson & Dong): after an occurrence
// exhausts the limit, the cedant can reinstate it — up to Reinstatements
// times — paying a reinstatement premium pro rata to the limit consumed.
type ReinstatableQuote struct {
	Quote

	// Reinstatements is the number of full limit refills.
	Reinstatements int

	// ExpectedReinstPremium is the expected reinstatement premium
	// income implied by the quoted premium.
	ExpectedReinstPremium float64

	// AnnualCap is the most the layer can pay in a year:
	// (Reinstatements+1) x occurrence limit.
	AnnualCap float64
}

// Reinstatement pricing errors.
var (
	ErrBadReinstatements = errors.New("pricing: Reinstatements must be >= 0")
	ErrBadReinstRate     = errors.New("pricing: ReinstRate must be in [0, 2]")
	ErrNeedOccLimit      = errors.New("pricing: reinstatement pricing requires a finite positive OccLimit")
)

// PriceReinstatable prices a Cat XL layer carrying `reinstatements`
// reinstatements at `reinstRate` (fraction of the original premium per
// full limit reinstated, pro rata). The YLT must come from a layer whose
// aggregate limit is (reinstatements+1) x occurrence limit.
//
// Reinstatement premium income offsets the technical premium. With
// expected reinstated fraction r = E[min(agg, R*L)]/L, the premium P
// solves P = (EL + loads) / (1 + reinstRate*r):
func PriceReinstatable(ylt []float64, reinstatements int, reinstRate float64, cfg Config) (ReinstatableQuote, error) {
	if reinstatements < 0 {
		return ReinstatableQuote{}, ErrBadReinstatements
	}
	if reinstRate < 0 || reinstRate > 2 {
		return ReinstatableQuote{}, ErrBadReinstRate
	}
	if !(cfg.OccLimit > 0) || math.IsInf(cfg.OccLimit, 0) {
		return ReinstatableQuote{}, ErrNeedOccLimit
	}
	base, err := Price(ylt, cfg)
	if err != nil {
		return ReinstatableQuote{}, err
	}
	l := cfg.OccLimit
	rl := float64(reinstatements) * l
	var reinstated float64
	for _, v := range ylt {
		reinstated += math.Min(v, rl)
	}
	reinstated /= float64(len(ylt)) // E[min(agg, R*L)]
	r := reinstated / l

	q := ReinstatableQuote{
		Quote:          base,
		Reinstatements: reinstatements,
		AnnualCap:      float64(reinstatements+1) * l,
	}
	q.TechnicalPremium = base.TechnicalPremium / (1 + reinstRate*r)
	q.ExpectedReinstPremium = q.TechnicalPremium * reinstRate * r
	q.RateOnLine = q.TechnicalPremium / l
	return q, nil
}
