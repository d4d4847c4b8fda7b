package core

// Benchmarks for the sampled-severity (§IV) hot path, the measurable
// half of this feature's acceptance: the vectorised sampled gather —
// z column filled once per (layer, trial) and shared across every ELT,
// location parameters precomputed into the dense sidecar — must beat
// the scalar per-occurrence oracle (counter stream re-derived, normal
// CDF inverted and mu recomputed for every single occurrence of every
// ELT, exactly what ReferenceSampled does) by at least 3x, and must
// allocate nothing at steady state. The mean-only kernel over the same
// portfolio is reported alongside so the price of sampling itself is
// on record.
//
// When BENCH_UNCERTAINTY_OUT is set (the CI bench smoke step points it
// at BENCH_uncertainty.json), the rows — ns/occ and allocs/op, plus
// the seed-aos anchor reproduced from gather_bench_test.go for
// cross-run normalisation — are written there as JSON.

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/ralab/are/internal/elt"
	"github.com/ralab/are/internal/layer"
	"github.com/ralab/are/internal/rng"
	"github.com/ralab/are/internal/stats"
	"github.com/ralab/are/internal/yet"
)

const (
	sampledBenchCatalog = 100_000
	sampledBenchTrials  = 64
	sampledBenchEvents  = 1000
	sampledBenchELTs    = 10
	sampledBenchSeed    = 0x5EC04D
)

// sampledBenchFixture builds one all-sampled layer (every record
// carries sigma > 0 — the worst case for the sampling path) plus the
// YET the kernels stream over. The ELTs are dense (40% of the catalog
// each) and therefore overlap heavily, as a layer's exposures over one
// peril region do — the regime §IV's z-sharing is built for: one
// inverse-CDF per (trial, event) serves every ELT that covers it.
func sampledBenchFixture(b testing.TB) (*layer.Portfolio, *yet.Table) {
	b.Helper()
	p, err := layer.GeneratePortfolio(layer.GenConfig{
		Seed:          7,
		NumLayers:     1,
		ELTsPerLayer:  sampledBenchELTs,
		RecordsPerELT: 40_000,
		CatalogSize:   sampledBenchCatalog,
		Sigma:         0.8,
	})
	if err != nil {
		b.Fatal(err)
	}
	y, err := yet.Generate(yet.UniformSource(sampledBenchCatalog), yet.Config{
		Seed: 9, Trials: sampledBenchTrials, FixedEvents: sampledBenchEvents,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p, y
}

// oracleELT is ReferenceSampled's view of one sampled table: plain
// per-ELT maps, walked with the oracle's per-occurrence recomputation
// (no z sharing, no mu sidecar, no parameter columns). A second,
// stronger scalar baseline with the engine's dense columns is reported
// as scalar-dense.
type oracleELT struct {
	mean  map[uint32]float64
	sigma map[uint32]float64
	terms func(float64) float64

	// Dense twins for the scalar-dense row.
	meanCol  []float64
	sigmaCol []float64
}

// sampledTrialOracle prices one trial exactly the way ReferenceSampled
// does, per occurrence per ELT: map lookups for the parameters, then
// re-derive the trial's counter stream, draw the uniform, invert the
// normal CDF, recompute the location parameter and exponentiate —
// followed by the same layer-terms pass as the kernels. dense switches
// the parameter lookups to the engine's columns (the scalar-dense
// baseline), isolating the vectorisation win from the lookup win.
func sampledTrialOracle(elts []oracleELT, lt layer.Terms, lox []float64, events []uint32, ti int, dense bool) (aggLoss, maxOcc float64) {
	n := len(events)
	if n == 0 {
		return 0, 0
	}
	lox = lox[:n]
	clear(lox)
	for e := range elts {
		oe := &elts[e]
		for d, ev := range events {
			var mean, sg float64
			if dense {
				mean, sg = oe.meanCol[ev], oe.sigmaCol[ev]
			} else {
				mean, sg = oe.mean[ev], oe.sigma[ev]
			}
			if mean == 0 {
				continue
			}
			raw := mean
			if sg != 0 {
				u := rng.NewCounterStream(sampledBenchSeed, uint64(ti)).Float64Open(uint64(ev))
				z := stats.InvNormCDF(u)
				raw = math.Exp(elt.LogNormalMu(mean, sg) + sg*z)
			}
			lox[d] += oe.terms(raw)
		}
	}
	for d := range lox {
		v := lt.ApplyOcc(lox[d])
		lox[d] = v
		if v > maxOcc {
			maxOcc = v
		}
	}
	var running, prev float64
	for d := range lox {
		running += lox[d]
		capped := lt.ApplyAgg(running)
		aggLoss += capped - prev
		prev = capped
	}
	return aggLoss, maxOcc
}

// BenchmarkSampledGather times one layer-pass over the YET per op:
// the vectorised sampled kernel, the scalar per-occurrence oracle, the
// mean-only kernel on the same portfolio (the cost of turning sampling
// on), and the seed-aos anchor from gather_bench_test.go that ties
// this table to the other bench files for cross-run normalisation.
func BenchmarkSampledGather(b *testing.B) {
	p, y := sampledBenchFixture(b)
	totalOcc := float64(y.NumOccurrences())

	var rows []gatherBenchRow
	record := func(kernel, lookup string, fn func(b *testing.B)) {
		b.Run(kernel+"/"+lookup, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			fn(b) // warm scratch before measuring
			b.ResetTimer()
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				fn(b)
			}
			runtime.ReadMemStats(&after)
			nsPerOcc := float64(b.Elapsed().Nanoseconds()) / (float64(b.N) * totalOcc)
			b.ReportMetric(nsPerOcc, "ns/occ")
			rows = append(rows, gatherBenchRow{
				Kernel:      kernel,
				Lookup:      lookup,
				NsPerOcc:    nsPerOcc,
				AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(b.N),
			})
		})
	}

	e, err := NewEngine(p, sampledBenchCatalog, LookupDirect)
	if err != nil {
		b.Fatal(err)
	}
	pl := &e.plain.layers[0]
	var agg, occ [1]float64

	opt := Options{Lookup: LookupDirect,
		Uncertainty: Uncertainty{Mode: UncertaintySampled, Seed: sampledBenchSeed}}
	ws := newWorker(e.plain, opt, y.MeanTrialLen())
	record("sampled-columnar", "direct", func(b *testing.B) {
		for t := 0; t < y.NumTrials(); t++ {
			events := y.TrialEvents(t)
			ws.fillZ(events, t)
			ws.sweepTrial(pl, events, agg[:], occ[:])
		}
	})

	wm := newWorker(e.plain, Options{Lookup: LookupDirect}, y.MeanTrialLen())
	record("mean-columnar", "direct", func(b *testing.B) {
		for t := 0; t < y.NumTrials(); t++ {
			wm.sweepTrial(pl, y.TrialEvents(t), agg[:], occ[:])
		}
	})

	// Scalar oracle: dense parameter columns built outside timing (the
	// engine gets the same head start), walked per occurrence.
	l := p.Layers[0]
	elts := buildOracleELTs(b, l)
	lox := make([]float64, sampledBenchEvents)
	record("sampled-oracle", "direct", func(b *testing.B) {
		for t := 0; t < y.NumTrials(); t++ {
			sampledTrialOracle(elts, l.LTerms, lox, y.TrialEvents(t), t, false)
		}
	})
	record("scalar-dense", "direct", func(b *testing.B) {
		for t := 0; t < y.NumTrials(); t++ {
			sampledTrialOracle(elts, l.LTerms, lox, y.TrialEvents(t), t, true)
		}
	})

	// Anchor: the seed's AoS mean-only loop, identical to the seed-aos
	// rows in BenchmarkGatherKernels, so benchdiff can normalise this
	// table against machine speed.
	trialsAoS := seedTrialsAoS(y)
	sl := buildSeedLayerSized(b, l, sampledBenchCatalog)
	record("seed-aos", "direct", func(b *testing.B) {
		for t := range trialsAoS {
			seedTrialBasic(sl, lox, trialsAoS[t])
		}
	})

	if out := os.Getenv("BENCH_UNCERTAINTY_OUT"); out != "" {
		last := map[string]gatherBenchRow{}
		order := []string{}
		for _, r := range rows {
			k := r.Kernel + "/" + r.Lookup
			if _, seen := last[k]; !seen {
				order = append(order, k)
			}
			last[k] = r
		}
		final := make([]gatherBenchRow, 0, len(order))
		for _, k := range order {
			final = append(final, last[k])
		}
		data, err := json.MarshalIndent(final, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Logf("wrote %s", out)
	}
}

// buildSeedLayerSized is buildSeedLayer with an explicit catalog size
// (the gather bench hardcodes its own).
func buildSeedLayerSized(tb testing.TB, l *layer.Layer, catalogSize int) *seedLayer {
	tb.Helper()
	ld, err := elt.BuildLayerDense(l.ELTs, catalogSize)
	if err != nil {
		tb.Fatal(err)
	}
	return &seedLayer{lterms: l.LTerms, dense: ld}
}

// buildOracleELTs builds both scalar baselines' parameter lookups
// outside timing (the engine gets the same head start at compile):
// ReferenceSampled's maps and the scalar-dense columns.
func buildOracleELTs(tb testing.TB, l *layer.Layer) []oracleELT {
	tb.Helper()
	elts := make([]oracleELT, len(l.ELTs))
	for i, tab := range l.ELTs {
		oe := oracleELT{
			mean:     make(map[uint32]float64, tab.Len()),
			sigma:    make(map[uint32]float64, tab.Len()),
			meanCol:  make([]float64, sampledBenchCatalog),
			sigmaCol: make([]float64, sampledBenchCatalog),
			terms:    tab.Terms.Apply,
		}
		for j, rec := range tab.Records() {
			oe.mean[uint32(rec.Event)] = rec.Loss
			oe.sigma[uint32(rec.Event)] = tab.Sigmas()[j]
			oe.meanCol[rec.Event] = rec.Loss
			oe.sigmaCol[rec.Event] = tab.Sigmas()[j]
		}
		elts[i] = oe
	}
	return elts
}

// BenchmarkSampledAllocFree asserts (rather than just reports) that the
// steady-state sampled kernel allocates nothing: the z column, the mu
// sidecar and all gather scratch are reused across trials and runs.
func BenchmarkSampledAllocFree(b *testing.B) {
	p, y := sampledBenchFixture(b)
	e, err := NewEngine(p, sampledBenchCatalog, LookupDirect)
	if err != nil {
		b.Fatal(err)
	}
	pl := &e.plain.layers[0]
	var agg, occ [1]float64
	opt := Options{Lookup: LookupDirect,
		Uncertainty: Uncertainty{Mode: UncertaintySampled, Seed: sampledBenchSeed}}
	w := newWorker(e.plain, opt, y.MeanTrialLen())
	pass := func() {
		for t := 0; t < y.NumTrials(); t++ {
			events := y.TrialEvents(t)
			w.fillZ(events, t)
			w.sweepTrial(pl, events, agg[:], occ[:])
		}
	}
	pass() // warm scratch
	if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
		b.Fatalf("steady-state sampled kernel allocates %v allocs/pass, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// TestSampledKernelBeatsOracle is the acceptance gate in test form: a
// wall-clock comparison (outside the benchmark harness so it runs in
// every `go test`) asserting the vectorised sampled kernel is at least
// 3x faster than the scalar per-occurrence oracle over the same
// portfolio and YET. The measured margin is ~4x (dense parameter
// columns instead of maps, z amortised across the layer's ELTs, mu
// precomputed, no per-occurrence stream setup); 3x leaves room for
// noisy CI hosts.
func TestSampledKernelBeatsOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the kernel/oracle ratio")
	}
	p, y := sampledBenchFixture(t)
	e, err := NewEngine(p, sampledBenchCatalog, LookupDirect)
	if err != nil {
		t.Fatal(err)
	}
	pl := &e.plain.layers[0]
	var agg, occ [1]float64
	opt := Options{Lookup: LookupDirect,
		Uncertainty: Uncertainty{Mode: UncertaintySampled, Seed: sampledBenchSeed}}
	w := newWorker(e.plain, opt, y.MeanTrialLen())
	kernelPass := func() {
		for tr := 0; tr < y.NumTrials(); tr++ {
			events := y.TrialEvents(tr)
			w.fillZ(events, tr)
			w.sweepTrial(pl, events, agg[:], occ[:])
		}
	}
	l := p.Layers[0]
	elts := buildOracleELTs(t, l)
	lox := make([]float64, sampledBenchEvents)
	oraclePass := func() {
		for tr := 0; tr < y.NumTrials(); tr++ {
			sampledTrialOracle(elts, l.LTerms, lox, y.TrialEvents(tr), tr, false)
		}
	}

	measure := func(pass func(), n int) float64 {
		pass() // warm
		best := math.Inf(1)
		for rep := 0; rep < 3; rep++ { // best-of-3 damps scheduler noise
			start := time.Now()
			for i := 0; i < n; i++ {
				pass()
			}
			if d := float64(time.Since(start).Nanoseconds()) / float64(n); d < best {
				best = d
			}
		}
		return best
	}
	kernel := measure(kernelPass, 4)
	oracle := measure(oraclePass, 2)
	ratio := oracle / kernel
	t.Logf("sampled kernel %.2fms/pass, oracle %.2fms/pass, speedup %.1fx",
		kernel/1e6, oracle/1e6, ratio)
	if ratio < 3 {
		t.Errorf("vectorised sampled kernel only %.2fx faster than the scalar oracle, want >= 3x", ratio)
	}
}
