// Command are runs an end-to-end aggregate risk analysis: it builds (or
// loads) a Year Event Table, generates a synthetic portfolio of layers,
// runs the engine, and reports per-layer risk metrics and premium quotes.
//
// Usage:
//
//	are -trials 50000 -layers 3 -elts 15
//	are -yet yet.bin -layers 1 -workers 8 -profile
//
// This is the paper's "aggregate risk analysis engine" as a tool: the YLT
// summary, exceedance curve, PML/TVaR and quote per layer.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	are "github.com/ralab/are"
)

func main() {
	var (
		yetPath   = flag.String("yet", "", "load YET from file (otherwise generate)")
		portfolio = flag.String("portfolio", "", "load portfolio from a JSON spec file (otherwise generate; overrides -layers/-elts/-records/-catalog)")
		seed      = flag.Uint64("seed", 1, "seed for synthetic data")
		trials    = flag.Int("trials", 50_000, "trials when generating a YET")
		events    = flag.Float64("mean-events", 1000, "mean events per trial when generating")
		catalog   = flag.Int("catalog", 1_000_000, "stochastic catalog size")
		layers    = flag.Int("layers", 1, "layers in the synthetic portfolio")
		elts      = flag.Int("elts", 15, "ELTs per layer")
		records   = flag.Int("records", 20_000, "event losses per ELT")
		workers   = flag.Int("workers", 0, "engine workers (0 = GOMAXPROCS, 1 = sequential)")
		chunk     = flag.Int("chunk", 0, "chunk size for the optimised kernel (0 = basic)")
		lookup    = flag.String("lookup", "direct", "ELT representation: direct|sorted|hash|cuckoo|combined")
		profile   = flag.Bool("profile", false, "report the phase breakdown (Fig 6b)")
		stream    = flag.Int("stream", 0, "with -yet: stream the file in batches of this many trials instead of loading it")
		online    = flag.Bool("online", false, "with -stream: low-memory mode — online moment/PML sinks instead of materialising Year Loss Tables (approximate PML, no TVaR/quote)")
		report    = flag.String("report", "", "write a markdown analysis report to this file")
	)
	flag.Parse()

	kind, err := parseLookup(*lookup)
	if err != nil {
		fail(err)
	}

	var p *are.Portfolio
	if *portfolio != "" {
		f, err := os.Open(*portfolio)
		if err != nil {
			fail(err)
		}
		dir := filepath.Dir(*portfolio)
		open := func(name string) (io.ReadCloser, error) {
			return os.Open(filepath.Join(dir, name))
		}
		var cs int
		p, cs, err = are.ParsePortfolioSpecFiles(f, open)
		f.Close()
		if err != nil {
			fail(err)
		}
		*catalog = cs
		fmt.Printf("loaded portfolio spec %s: %d layer(s), catalog %d\n", *portfolio, len(p.Layers), cs)
	} else {
		var err error
		p, err = are.GeneratePortfolio(are.PortfolioConfig{
			Seed: *seed, NumLayers: *layers, ELTsPerLayer: *elts,
			RecordsPerELT: *records, CatalogSize: *catalog,
		})
		if err != nil {
			fail(err)
		}
	}

	var y *are.YET
	streaming := *stream > 0 && *yetPath != ""
	if *online && !streaming {
		fail(fmt.Errorf("-online requires -yet and -stream"))
	}
	if *online && *report != "" {
		fail(fmt.Errorf("-report requires the full Year Loss Tables; omit -online"))
	}
	if streaming {
		fmt.Printf("streaming YET from %s in batches of %d trials\n", *yetPath, *stream)
	} else if *yetPath != "" {
		f, err := os.Open(*yetPath)
		if err != nil {
			fail(err)
		}
		y, err = are.ReadYET(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		fmt.Printf("loaded YET: %d trials, mean %.1f events/trial\n", y.NumTrials(), y.MeanTrialLen())
	} else {
		y, err = are.GenerateYET(are.UniformEvents(*catalog), are.YETConfig{
			Seed: *seed + 1, Trials: *trials, MeanEvents: *events,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("generated YET: %d trials, mean %.1f events/trial\n", y.NumTrials(), y.MeanTrialLen())
	}

	compileStart := time.Now()
	eng, err := are.NewEngine(p, *catalog, kind)
	if err != nil {
		fail(err)
	}
	fmt.Printf("compiled %d layer(s) with %s lookup in %v (%.1f MB of tables)\n",
		eng.NumLayers(), kind, time.Since(compileStart).Round(time.Millisecond),
		float64(eng.LookupMemory())/(1<<20))

	opt := are.Options{Workers: *workers, ChunkSize: *chunk, Profile: *profile}

	if *online {
		runOnline(eng, p, *yetPath, *stream, opt)
		return
	}

	runStart := time.Now()
	var res *are.Result
	if streaming {
		f, err := os.Open(*yetPath)
		if err != nil {
			fail(err)
		}
		res, err = eng.RunStream(f, *stream, opt)
		f.Close()
		if err != nil {
			fail(err)
		}
	} else {
		res, err = eng.Run(y, opt)
		if err != nil {
			fail(err)
		}
	}
	elapsed := time.Since(runStart)
	numTrials := len(res.YLT(0))
	perTrial := elapsed / time.Duration(numTrials*eng.NumLayers())
	fmt.Printf("analysis: %d trials, %v total, %v per layer-trial\n\n", numTrials, elapsed.Round(time.Millisecond), perTrial)

	if *profile {
		pct := res.Phases.Percentages()
		fmt.Printf("phase breakdown: event fetch %.1f%%, ELT lookup %.1f%%, financial terms %.1f%%, layer terms %.1f%%\n\n",
			pct[0], pct[1], pct[2], pct[3])
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tAAL\tstddev\tPML(100y)\tPML(250y)\tTVaR(99%)\tpremium\tRoL")
	for li, l := range p.Layers {
		ylt := res.YLT(li)
		sum, err := are.Summarise(ylt)
		if err != nil {
			fail(err)
		}
		curve, err := are.NewEPCurve(ylt)
		if err != nil {
			fail(err)
		}
		pml100, _ := curve.PML(100)
		pml250, _ := curve.PML(250)
		tvar, _ := curve.TVaR(0.99)
		q, err := are.Price(ylt, are.PricingConfig{OccLimit: l.LTerms.OccLimit})
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(tw, "%s\t%.3g\t%.3g\t%.3g\t%.3g\t%.3g\t%.3g\t%.4f\n",
			l.Name, sum.Mean, sum.StdDev, pml100, pml250, tvar, q.TechnicalPremium, q.RateOnLine)
	}
	tw.Flush()

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fail(err)
		}
		err = are.WriteReport(f, p, res, are.ReportConfig{Elapsed: elapsed})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nwrote report to %s\n", *report)
	}
}

// runOnline is the bounded-memory run path: the serialised YET streams
// through the engine's pipeline into online sinks, so memory stays
// O(batch + layers) no matter how many trials the file holds. PML
// figures are quantile-sketch estimates: uninterpolated order
// statistics whose rank is exact in the deep tail and within a
// sub-percent rank error elsewhere. TVaR and premium quotes need the
// full YLT and are omitted.
func runOnline(eng *are.Engine, p *are.Portfolio, yetPath string, batch int, opt are.Options) {
	f, err := os.Open(yetPath)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	src, err := are.NewStreamSource(f, batch)
	if err != nil {
		fail(err)
	}
	sum := are.NewSummarySink()
	ep := are.NewEPSink(nil)
	runStart := time.Now()
	phases, err := eng.RunPipeline(src, are.MultiSink{sum, ep}, opt)
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(runStart)
	trials := sum.Summary(0).Trials
	fmt.Printf("online analysis: %d trials, %v total, %v per layer-trial (no YLT materialised)\n\n",
		trials, elapsed.Round(time.Millisecond),
		elapsed/time.Duration(max(1, trials*eng.NumLayers())))
	if opt.Profile {
		pct := phases.Percentages()
		fmt.Printf("phase breakdown: event fetch %.1f%%, ELT lookup %.1f%%, financial terms %.1f%%, layer terms %.1f%%\n\n",
			pct[0], pct[1], pct[2], pct[3])
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tAAL\tstddev\tmax\t~PML(100y)\t~PML(250y)")
	for li, l := range p.Layers {
		s := sum.Summary(li)
		fmt.Fprintf(tw, "%s\t%.3g\t%.3g\t%.3g\t%s\t%s\n",
			l.Name, s.Mean, s.StdDev, s.Max,
			pointAt(ep.Points(li), 100), pointAt(ep.Points(li), 250))
	}
	tw.Flush()
	fmt.Println("\nnote: ~PML are streaming sketch estimates; TVaR and quotes require a full-YLT run")
}

// pointAt formats the loss at the given return period, or "n/a" when
// the trial count could not resolve it.
func pointAt(pts []are.EPPoint, rp float64) string {
	for _, pt := range pts {
		if pt.ReturnPeriod == rp {
			return fmt.Sprintf("%.3g", pt.Loss)
		}
	}
	return "n/a"
}

func parseLookup(s string) (are.LookupKind, error) {
	switch s {
	case "direct":
		return are.LookupDirect, nil
	case "sorted":
		return are.LookupSorted, nil
	case "hash":
		return are.LookupHash, nil
	case "cuckoo":
		return are.LookupCuckoo, nil
	case "combined":
		return are.LookupCombined, nil
	default:
		return 0, fmt.Errorf("unknown lookup %q (want direct|sorted|hash|cuckoo|combined)", s)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "are:", err)
	os.Exit(1)
}
