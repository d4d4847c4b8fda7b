package core

// Benchmarks for the columnar hot path, the measurable half of the
// refactor's acceptance: the steady-state kernels must allocate nothing
// per trial, and the batch-gather plans must be no slower — on the
// dense layouts measurably faster — than the seed's per-occurrence
// path, which is reproduced here (AoS trial views, one dynamic
// dispatch + Terms.Apply branch cascade per occurrence per ELT) so
// every CI run records a live before/after ns/occurrence comparison.
//
// When BENCH_CORE_OUT is set (the CI bench smoke step points it at
// BENCH_core.json), the kernel x lookup table — ns/occ and allocs/op
// for both the columnar kernels and the seed baseline — is written
// there as JSON, extending the perf trajectory record.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"github.com/ralab/are/internal/catalog"
	"github.com/ralab/are/internal/elt"
	"github.com/ralab/are/internal/financial"
	"github.com/ralab/are/internal/layer"
	"github.com/ralab/are/internal/yet"
)

const (
	gatherBenchCatalog = 100_000
	gatherBenchTrials  = 64
	gatherBenchEvents  = 1000
	gatherBenchELTs    = 15
)

type gatherBenchRow struct {
	Kernel      string  `json:"kernel"`
	Lookup      string  `json:"lookup"`
	NsPerOcc    float64 `json:"nsPerOcc"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// seedLayer reproduces the pre-plan compiled layer: the lookup
// interface slice plus parallel terms (and the dense/combined fast
// shapes the seed special-cased).
type seedLayer struct {
	lookups  []elt.Lookup
	terms    []financial.Terms
	dense    *elt.LayerDense
	combined []float64
	lterms   layer.Terms
}

func buildSeedLayer(b *testing.B, l *layer.Layer, kind LookupKind) *seedLayer {
	b.Helper()
	sl := &seedLayer{lterms: l.LTerms}
	switch kind {
	case LookupCombined:
		sl.combined = make([]float64, gatherBenchCatalog)
		for _, t := range l.ELTs {
			for _, rec := range t.Records() {
				sl.combined[rec.Event] += t.Terms.Apply(rec.Loss)
			}
		}
	case LookupDirect:
		ld, err := elt.BuildLayerDense(l.ELTs, gatherBenchCatalog)
		if err != nil {
			b.Fatal(err)
		}
		sl.dense = ld
	default:
		for _, t := range l.ELTs {
			look, err := buildLookup(t, gatherBenchCatalog, kind)
			if err != nil {
				b.Fatal(err)
			}
			sl.lookups = append(sl.lookups, look)
			sl.terms = append(sl.terms, t.Terms)
		}
	}
	return sl
}

// seedOccurrence is the seed's 16-byte AoS occurrence record, kept so
// the seed-aos anchor streams the seed's bytes per occurrence (its Time
// is never read).
type seedOccurrence struct {
	Event catalog.EventID
	_     uint32
	Time  float64
}

// seedTrialsAoS materialises y as the seed's AoS trial views.
func seedTrialsAoS(y *yet.Table) [][]seedOccurrence {
	trials := make([][]seedOccurrence, y.NumTrials())
	for i := range trials {
		evs := y.TrialEvents(i)
		trials[i] = make([]seedOccurrence, len(evs))
		for j, ev := range evs {
			trials[i][j].Event = catalog.EventID(ev)
		}
	}
	return trials
}

// seedTrialBasic is the seed's basic kernel verbatim: AoS occurrence
// records, one Lookup.Loss dynamic dispatch (or dense indexed read) and
// one Terms.Apply branch cascade per occurrence per ELT.
func seedTrialBasic(sl *seedLayer, lox []float64, trial []seedOccurrence) (aggLoss, maxOcc float64) {
	n := len(trial)
	if n == 0 {
		return 0, 0
	}
	lox = lox[:n]
	clear(lox)
	switch {
	case sl.combined != nil:
		for d := 0; d < n; d++ {
			lox[d] = sl.combined[trial[d].Event]
		}
	case sl.dense != nil:
		for e := 0; e < sl.dense.NumELTs(); e++ {
			terms := sl.dense.Terms(e)
			for d := 0; d < n; d++ {
				if raw := sl.dense.Loss(e, trial[d].Event); raw != 0 {
					lox[d] += terms.Apply(raw)
				}
			}
		}
	default:
		for e, look := range sl.lookups {
			terms := sl.terms[e]
			for d := 0; d < n; d++ {
				if raw := look.Loss(trial[d].Event); raw != 0 {
					lox[d] += terms.Apply(raw)
				}
			}
		}
	}
	lt := sl.lterms
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

// BenchmarkGatherKernels times one layer-pass over the YET per op for
// every lookup representation: the columnar plan kernels (basic and
// chunked) against the seed's AoS per-occurrence loop. Steady-state
// kernels run entirely out of worker scratch — allocs/op must be 0.
func BenchmarkGatherKernels(b *testing.B) {
	p := testPortfolio(b, 1, gatherBenchELTs, 5_000)
	y, err := yet.Generate(yet.UniformSource(gatherBenchCatalog), yet.Config{
		Seed: 9, Trials: gatherBenchTrials, FixedEvents: gatherBenchEvents,
	})
	if err != nil {
		b.Fatal(err)
	}
	totalOcc := float64(y.NumOccurrences())

	// AoS trial views for the baseline, materialised outside timing.
	trialsAoS := seedTrialsAoS(y)

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

	kinds := []LookupKind{LookupDirect, LookupSorted, LookupHash, LookupCuckoo, LookupCombined}
	for _, kind := range kinds {
		e, err := NewEngine(p, gatherBenchCatalog, kind)
		if err != nil {
			b.Fatal(err)
		}
		// The one kernel over the engine's identity plan: Options pick
		// the basic or the chunked gather.
		pl := &e.plain.layers[0]
		var agg, occ [1]float64

		w := newWorker(e.plain, Options{Lookup: kind}, y.MeanTrialLen())
		record("columnar-basic", kind.String(), func(b *testing.B) {
			for t := 0; t < y.NumTrials(); t++ {
				w.sweepTrial(pl, y.TrialEvents(t), agg[:], occ[:])
			}
		})

		wc := newWorker(e.plain, Options{Lookup: kind, ChunkSize: 8}, y.MeanTrialLen())
		record("columnar-chunked", kind.String(), func(b *testing.B) {
			for t := 0; t < y.NumTrials(); t++ {
				wc.sweepTrial(pl, y.TrialEvents(t), agg[:], occ[:])
			}
		})

		sl := buildSeedLayer(b, p.Layers[0], kind)
		lox := make([]float64, gatherBenchEvents)
		record("seed-aos", kind.String(), func(b *testing.B) {
			for t := range trialsAoS {
				seedTrialBasic(sl, lox, trialsAoS[t])
			}
		})
	}

	if out := os.Getenv("BENCH_CORE_OUT"); out != "" {
		// Sub-benchmarks may run several times while calibrating b.N;
		// keep the last (measured) row per (kernel, lookup).
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

// BenchmarkGatherAllocFree asserts (rather than just reports) the
// steady-state zero-allocation property of the columnar hot loop for
// the dense kinds, failing the benchmark if scratch reuse regresses.
func BenchmarkGatherAllocFree(b *testing.B) {
	p := testPortfolio(b, 1, 4, 2_000)
	y, err := yet.Generate(yet.UniformSource(gatherBenchCatalog), yet.Config{
		Seed: 10, Trials: 32, FixedEvents: 500,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []LookupKind{LookupDirect, LookupCombined} {
		b.Run(kind.String(), func(b *testing.B) {
			e, err := NewEngine(p, gatherBenchCatalog, kind)
			if err != nil {
				b.Fatal(err)
			}
			pl := &e.plain.layers[0]
			var agg, occ [1]float64
			w := newWorker(e.plain, Options{Lookup: kind}, y.MeanTrialLen())
			pass := func() {
				for t := 0; t < y.NumTrials(); t++ {
					w.sweepTrial(pl, y.TrialEvents(t), agg[:], occ[:])
				}
			}
			pass() // warm scratch
			allocs := testing.AllocsPerRun(3, pass)
			if allocs != 0 {
				b.Fatalf("%s: steady-state kernel allocates %v allocs/pass, want 0", kind, allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
		})
	}
}
