package are_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	are "github.com/ralab/are"
)

// TestFullPipeline exercises the complete analytical pipeline through the
// public API: catalog -> exposures -> catastrophe model -> ELTs -> layers
// -> YET -> engine -> metrics -> pricing. This is the repository's
// top-level integration test.
func TestFullPipeline(t *testing.T) {
	const catalogSize = 5000

	cat, err := are.GenerateCatalog(are.CatalogConfig{Seed: 1, NumEvents: catalogSize})
	if err != nil {
		t.Fatal(err)
	}

	// Three cedants, each with its own exposure set and currency.
	var elts []*are.ELT
	for i := uint32(0); i < 3; i++ {
		set, err := are.GenerateExposure(i, are.ExposureConfig{Seed: 2, NumBuildings: 2000})
		if err != nil {
			t.Fatal(err)
		}
		terms := are.DefaultFinancialTerms()
		terms.Participation = 0.5
		tbl, err := are.BuildELT(cat, set, terms, i, are.CatModelConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		elts = append(elts, tbl)
	}

	lay, err := are.NewLayer(0, "combined-xl", elts, are.LayerTerms{
		OccRetention: 1e6, OccLimit: 500e6,
		AggRetention: 5e6, AggLimit: 2000e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	portfolio := &are.Portfolio{Layers: []*are.Layer{lay}}

	// Rate-weighted event draws directly from the catalog.
	y, err := are.GenerateYET(cat, are.YETConfig{Seed: 4, Trials: 500, MeanEvents: 900})
	if err != nil {
		t.Fatal(err)
	}

	eng, err := are.NewEngine(portfolio, catalogSize, are.LookupDirect)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(y, are.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	// The engine must agree with the paper-pseudocode reference.
	ref, err := are.Reference(portfolio, y, catalogSize)
	if err != nil {
		t.Fatal(err)
	}
	for tr := range res.YLT(0) {
		if res.YLT(0)[tr] != ref.YLT(0)[tr] {
			t.Fatalf("trial %d: engine %v != reference %v", tr, res.YLT(0)[tr], ref.YLT(0)[tr])
		}
	}

	sum, err := are.Summarise(res.YLT(0))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mean <= 0 {
		t.Fatal("pipeline produced an all-zero YLT; generator or model parameters degenerate")
	}

	curve, err := are.NewEPCurve(res.YLT(0))
	if err != nil {
		t.Fatal(err)
	}
	pml, err := curve.PML(100)
	if err != nil {
		t.Fatal(err)
	}
	tvar, err := curve.TVaR(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if tvar < pml {
		t.Fatalf("TVaR99 (%v) below PML100 (%v)", tvar, pml)
	}

	q, err := are.Price(res.YLT(0), are.PricingConfig{OccLimit: lay.LTerms.OccLimit})
	if err != nil {
		t.Fatal(err)
	}
	if q.TechnicalPremium <= q.ExpectedLoss {
		t.Fatalf("premium %v does not exceed expected loss %v", q.TechnicalPremium, q.ExpectedLoss)
	}
}

func TestYETRoundTripViaFacade(t *testing.T) {
	y, err := are.GenerateYET(are.UniformEvents(1000), are.YETConfig{Seed: 1, Trials: 20, MeanEvents: 30})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := are.WriteYET(&buf, y); err != nil {
		t.Fatal(err)
	}
	got, err := are.ReadYET(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTrials() != y.NumTrials() {
		t.Fatalf("round trip lost trials: %d vs %d", got.NumTrials(), y.NumTrials())
	}
}

func TestSyntheticPortfolioViaFacade(t *testing.T) {
	p, err := are.GeneratePortfolio(are.PortfolioConfig{
		Seed: 9, NumLayers: 2, ELTsPerLayer: 3,
		RecordsPerELT: 500, CatalogSize: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	y, err := are.GenerateYET(are.UniformEvents(20000), are.YETConfig{Seed: 10, Trials: 100, FixedEvents: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []are.LookupKind{are.LookupDirect, are.LookupSorted, are.LookupHash, are.LookupCuckoo} {
		eng, err := are.NewEngine(p, 20000, kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(y, are.Options{}); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestExperimentsViaFacade(t *testing.T) {
	names := are.Experiments()
	if len(names) < 12 {
		t.Fatalf("only %d experiments registered", len(names))
	}
	tab, err := are.RunExperiment("fig4", are.ExperimentConfig{Seed: 1, Scale: 0.0002, CatalogSize: 50000, RecordsPerELT: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("fig4 produced no rows")
	}
}

func TestPerilsAndConstants(t *testing.T) {
	if len(are.Perils()) != 5 {
		t.Fatalf("perils = %v", are.Perils())
	}
	if are.LookupDirect.String() != "direct" {
		t.Fatal("lookup kind re-export broken")
	}
	terms := are.PassThroughLayerTerms()
	if terms.ApplyOcc(5) != 5 {
		t.Fatal("pass-through terms broken")
	}
}

func TestFacadeSpecAndStream(t *testing.T) {
	doc := `{
	  "catalogSize": 20000,
	  "elts": [{"id": 1, "generate": {"seed": 3, "numRecords": 1000}}],
	  "layers": [{"id": 1, "elts": [1],
	    "terms": {"occRetention": 5e5, "occLimit": 2e7, "aggLimit": "unlimited"}}]
	}`
	p, catalogSize, err := are.ParsePortfolioSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	y, err := are.GenerateYET(are.UniformEvents(catalogSize), are.YETConfig{
		Seed: 4, Trials: 200, MeanEvents: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := are.NewEngine(p, catalogSize, are.LookupCombined)
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := eng.Run(y, are.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := are.WriteYET(&buf, y); err != nil {
		t.Fatal(err)
	}
	streamed, err := eng.RunStream(&buf, 64, are.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inMem.YLT(0) {
		if inMem.YLT(0)[i] != streamed.YLT(0)[i] {
			t.Fatalf("stream/in-memory divergence at trial %d", i)
		}
	}
}

func TestFacadeAdvancedPricingAndAllocation(t *testing.T) {
	p, err := are.GeneratePortfolio(are.PortfolioConfig{
		Seed: 21, NumLayers: 3, ELTsPerLayer: 3,
		RecordsPerELT: 800, CatalogSize: 30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	y, err := are.GenerateYET(are.UniformEvents(30000), are.YETConfig{
		Seed: 22, Trials: 2000, MeanEvents: 400, Dispersion: 3, Seasonal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := are.NewEngine(p, 30000, are.LookupDirect)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(y, are.Options{})
	if err != nil {
		t.Fatal(err)
	}

	rq, err := are.PriceReinstatable(res.YLT(0), 2, 1.0,
		are.PricingConfig{OccLimit: p.Layers[0].LTerms.OccLimit})
	if err != nil {
		t.Fatal(err)
	}
	if rq.TechnicalPremium <= 0 || rq.Reinstatements != 2 {
		t.Fatalf("reinstatable quote = %+v", rq)
	}

	alloc, err := are.AllocateTVaR(res.AggLoss, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc) != 3 {
		t.Fatalf("allocations = %v", alloc)
	}
	benefit, err := are.DiversificationBenefit(res.AggLoss, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if benefit < 0 || benefit >= 1 {
		t.Fatalf("diversification benefit = %v", benefit)
	}
}

// TestFacadeSeverity: the Severity type's constructors and deriving
// methods compose (PMF and CDF discretisation, convolution, Panjer
// compounding, layer terms), and the lognormal constructor matches its
// target moments.
func TestFacadeSeverity(t *testing.T) {
	sev, err := are.SeverityFromPMF(100, []float64{0, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if sev.Mean() != 150 {
		t.Fatalf("severity mean %v, want 150", sev.Mean())
	}
	sum, err := sev.Convolve(sev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Mean()-2*sev.Mean()) > 1e-9 {
		t.Fatalf("convolution mean %v", sum.Mean())
	}
	annual, err := sev.Compound(3, 128)
	if err != nil {
		t.Fatal(err)
	}
	layered, err := annual.ApplyLayerTerms(100, 500)
	if err != nil {
		t.Fatal(err)
	}
	if layered.Mean() > annual.Mean() {
		t.Fatal("layer terms increased the mean")
	}
	if layered.Quantile(0.5) > layered.Quantile(0.99) {
		t.Fatal("quantiles not monotone")
	}
	if p := layered.ExceedanceProb(0); p < 0 || p > 1 {
		t.Fatalf("exceedance probability %v", p)
	}

	disc, err := are.SeverityFromCDF(10, 1000, func(x float64) float64 {
		if x >= 500 {
			return 1
		}
		return x / 500
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(disc.Mean()-250) > 10 {
		t.Fatalf("discretised uniform mean %v", disc.Mean())
	}

	logn, err := are.LognormalSeverity(1000, 0.8, 25, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(logn.Mean()-1000) > 30 {
		t.Fatalf("lognormal severity mean %v, want ~1000", logn.Mean())
	}
	if logn.Dist() == nil {
		t.Fatal("Dist() returned nil")
	}
}

// TestFacadeSampledUncertainty: the sampled-severity surface works end
// to end through the facade — a sampled engine run is deterministic,
// differs from the mean-mode run, and matches ReferenceSampled bitwise.
func TestFacadeSampledUncertainty(t *testing.T) {
	const catalogSize = 4000
	recs := make([]are.ELTRecord, 0, 300)
	sigmas := make([]float64, 0, 300)
	for ev := uint32(0); ev < 300; ev++ {
		recs = append(recs, are.ELTRecord{Event: are.EventID(ev * 13), Loss: float64(1000 + 10*ev)})
		sigmas = append(sigmas, 0.5+float64(ev%5)*0.2)
	}
	tbl, err := are.NewSampledELT(1, are.DefaultFinancialTerms(), recs, sigmas)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Sampled() {
		t.Fatal("NewSampledELT built a mean-only table")
	}
	lay, err := are.NewLayer(1, "sampled-xl", []*are.ELT{tbl}, are.PassThroughLayerTerms())
	if err != nil {
		t.Fatal(err)
	}
	p := &are.Portfolio{Layers: []*are.Layer{lay}}
	y, err := are.GenerateYET(are.UniformEvents(catalogSize), are.YETConfig{
		Seed: 3, Trials: 400, MeanEvents: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := are.NewEngine(p, catalogSize, are.LookupDirect)
	if err != nil {
		t.Fatal(err)
	}
	opt := are.Options{Uncertainty: are.Uncertainty{Mode: are.UncertaintySampled, Seed: 99}}
	res, err := eng.Run(y, opt)
	if err != nil {
		t.Fatal(err)
	}
	again, err := eng.Run(y, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := are.ReferenceSampled(p, y, catalogSize, 99)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := eng.Run(y, are.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sampledDiffers := false
	for ti := 0; ti < y.NumTrials(); ti++ {
		if res.AggLoss[0][ti] != again.AggLoss[0][ti] {
			t.Fatal("sampled run is not deterministic")
		}
		if res.AggLoss[0][ti] != ref.AggLoss[0][ti] {
			t.Fatalf("trial %d: engine %v != ReferenceSampled %v",
				ti, res.AggLoss[0][ti], ref.AggLoss[0][ti])
		}
		if res.AggLoss[0][ti] != mean.AggLoss[0][ti] {
			sampledDiffers = true
		}
	}
	if !sampledDiffers {
		t.Fatal("sampled run identical to mean run — nothing was sampled")
	}
}

func TestFacadeCatModelHelpers(t *testing.T) {
	if are.DefaultFinancialTerms().Participation != 1 {
		t.Fatal("default terms wrong")
	}
	if !math.IsInf(are.UnlimitedLoss, 1) {
		t.Fatal("UnlimitedLoss not +Inf")
	}
	if len(are.StandardReturnPeriods()) == 0 {
		t.Fatal("no standard return periods")
	}
	rec := []are.ELTRecord{{Event: 1, Loss: 100}}
	tbl, err := are.NewELT(9, are.DefaultFinancialTerms(), rec)
	if err != nil || tbl.Len() != 1 {
		t.Fatalf("NewELT: %v", err)
	}
	g, err := are.GenerateELT(1, are.ELTConfig{Seed: 1, NumRecords: 10, CatalogSize: 100})
	if err != nil || g.Len() != 10 {
		t.Fatalf("GenerateELT: %v", err)
	}
}

func TestFacadeRunContext(t *testing.T) {
	p, err := are.GeneratePortfolio(are.PortfolioConfig{
		Seed: 31, NumLayers: 1, ELTsPerLayer: 2,
		RecordsPerELT: 200, CatalogSize: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	y, err := are.GenerateYET(are.UniformEvents(5000), are.YETConfig{
		Seed: 32, Trials: 50, MeanEvents: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := are.NewEngine(p, 5000, are.LookupDirect)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunContext(context.Background(), y, are.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.YLT(0)) != 50 {
		t.Fatalf("trials = %d", len(res.YLT(0)))
	}
}

// TestFacadeStreamingSinks is the bounded-memory contract at the public
// surface: a streamed run into online sinks matches Summarise and
// NewEPCurve on the materialised YLT within the documented tolerances
// (moments to floating-point association, PML to quantile-sketch accuracy).
func TestFacadeStreamingSinks(t *testing.T) {
	const catalogSize = 50_000
	p, err := are.GeneratePortfolio(are.PortfolioConfig{
		Seed: 41, NumLayers: 2, ELTsPerLayer: 5,
		RecordsPerELT: 2000, CatalogSize: catalogSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	y, err := are.GenerateYET(are.UniformEvents(catalogSize), are.YETConfig{
		Seed: 42, Trials: 5000, MeanEvents: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := are.NewEngine(p, catalogSize, are.LookupDirect)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := eng.Run(y, are.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := are.WriteYET(&buf, y); err != nil {
		t.Fatal(err)
	}
	src, err := are.NewStreamSource(&buf, 256)
	if err != nil {
		t.Fatal(err)
	}
	sum := are.NewSummarySink()
	ep := are.NewEPSink(nil)
	if _, err := eng.RunPipeline(src, are.MultiSink{sum, ep}, are.Options{}); err != nil {
		t.Fatal(err)
	}

	for li := 0; li < eng.NumLayers(); li++ {
		want, err := are.Summarise(exact.YLT(li))
		if err != nil {
			t.Fatal(err)
		}
		got := sum.Summary(li)
		if got.Trials != want.Trials || got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("layer %d: exact summary fields differ: got %+v want %+v", li, got, want)
		}
		if math.Abs(got.Mean-want.Mean) > 1e-9*math.Abs(want.Mean) {
			t.Errorf("layer %d: mean %v vs %v", li, got.Mean, want.Mean)
		}
		if math.Abs(got.StdDev-want.StdDev) > 1e-9*want.StdDev {
			t.Errorf("layer %d: stddev %v vs %v", li, got.StdDev, want.StdDev)
		}

		curve, err := are.NewEPCurve(exact.YLT(li))
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range ep.Points(li) {
			want, err := curve.PML(pt.ReturnPeriod)
			if err != nil {
				t.Fatal(err)
			}
			// Documented sketch tolerance, scaled by the layer's loss
			// range to absorb quantiles sitting on the YLT's zero mass.
			tol := 0.05*math.Abs(want) + 0.05*got.Max/100
			if pt.ReturnPeriod >= 250 {
				tol = 0.15*math.Abs(want) + 0.05*got.Max/10
			}
			if math.Abs(pt.Loss-want) > tol {
				t.Errorf("layer %d PML(%v): sketch %v vs exact %v", li, pt.ReturnPeriod, pt.Loss, want)
			}
		}
	}
}
