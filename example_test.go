package are_test

import (
	"fmt"

	are "github.com/ralab/are"
)

// The smallest complete analysis: synthetic portfolio, synthetic YET,
// engine run, headline metric.
func Example() {
	portfolio, err := are.GeneratePortfolio(are.PortfolioConfig{
		Seed: 1, NumLayers: 1, ELTsPerLayer: 5,
		RecordsPerELT: 1000, CatalogSize: 50000,
	})
	if err != nil {
		panic(err)
	}
	yet, err := are.GenerateYET(are.UniformEvents(50000), are.YETConfig{
		Seed: 2, Trials: 2000, MeanEvents: 500,
	})
	if err != nil {
		panic(err)
	}
	engine, err := are.NewEngine(portfolio, 50000, are.LookupDirect)
	if err != nil {
		panic(err)
	}
	result, err := engine.Run(yet, are.Options{Workers: 1})
	if err != nil {
		panic(err)
	}
	summary, err := are.Summarise(result.YLT(0))
	if err != nil {
		panic(err)
	}
	fmt.Println(summary.Trials, "trials analysed; YLT mean positive:", summary.Mean > 0)
	// Output:
	// 2000 trials analysed; YLT mean positive: true
}

// Layer terms implement Table I of the paper: occurrence terms apply per
// event occurrence, aggregate terms to the running annual total.
func ExampleLayerTerms() {
	terms := are.LayerTerms{
		OccRetention: 100, OccLimit: 500,
		AggRetention: 1000, AggLimit: 2000,
	}
	fmt.Println(terms.ApplyOcc(50))   // below retention
	fmt.Println(terms.ApplyOcc(300))  // in the layer
	fmt.Println(terms.ApplyOcc(5000)) // capped at the occurrence limit
	fmt.Println(terms.ApplyAgg(1500)) // annual total net of agg retention
	// Output:
	// 0
	// 200
	// 500
	// 500
}

// Financial terms transform every loss taken from an ELT: currency,
// per-event retention/limit, then participation.
func ExampleFinancialTerms() {
	terms := are.FinancialTerms{
		FX: 2, EventRetention: 10, EventLimit: 100, Participation: 0.5,
	}
	fmt.Println(terms.Apply(30))  // 30*2-10 = 50, *0.5
	fmt.Println(terms.Apply(100)) // capped at the event limit, *0.5
	// Output:
	// 25
	// 50
}

// An exceedance-probability curve turns a YLT into the metrics a
// reinsurer reports: PML at return periods and tail value at risk.
func ExampleEPCurve() {
	ylt := make([]float64, 1000)
	for i := range ylt {
		ylt[i] = float64(i) // losses 0..999
	}
	curve, err := are.NewEPCurve(ylt)
	if err != nil {
		panic(err)
	}
	pml10, _ := curve.PML(10) // exceeded once in 10 years
	tvar99, _ := curve.TVaR(0.99)
	fmt.Printf("PML(10y) ~ %.0f, TVaR(99%%) ~ %.1f\n", pml10, tvar99)
	// Output:
	// PML(10y) ~ 899, TVaR(99%) ~ 994.5
}

// Secondary uncertainty (§IV extension): the annual aggregate loss of a
// Poisson frequency / discretised severity model via Panjer recursion.
func ExampleSeverity_Compound() {
	severity, err := are.SeverityFromPMF(100, []float64{0, 0.5, 0.3, 0.2})
	if err != nil {
		panic(err)
	}
	annual, err := severity.Compound(2.0, 256)
	if err != nil {
		panic(err)
	}
	fmt.Printf("E[annual] = %.0f (exact %.0f)\n", annual.Mean(), 2.0*severity.Mean())
	// Output:
	// E[annual] = 340 (exact 340)
}
