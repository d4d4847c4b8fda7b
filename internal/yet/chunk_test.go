package yet

// Coverage for chunked generation: every chunk count, and any trial
// range, yields the serial path's table bit for bit; chunks really run
// concurrently against a real catalog (run with -race); and a chunk's
// panic reaches the caller.

import (
	"fmt"
	"testing"

	"github.com/ralab/are/internal/catalog"
	"github.com/ralab/are/internal/rng"
)

// chunkConfigs covers every branch of the per-trial draw: Poisson and
// negative-binomial counts, fixed counts (no count pass), and seasonal
// times with and without a PerilSource.
var chunkConfigs = []struct {
	src EventSource
	cfg Config
}{
	{UniformSource(1000), Config{Seed: 71, Trials: 211, MeanEvents: 60}},
	{UniformSource(1000), Config{Seed: 72, Trials: 211, FixedEvents: 48}},
	{UniformSource(1000), Config{Seed: 73, Trials: 211, MeanEvents: 60, Dispersion: 3}},
	{perilTestSource{n: 100}, Config{Seed: 74, Trials: 211, MeanEvents: 40, Seasonal: true}},
	{UniformSource(100), Config{Seed: 75, Trials: 211, MeanEvents: 40, Seasonal: true}},
}

func mustGenerate(t *testing.T, src EventSource, cfg Config, lo, hi, chunks int) *Table {
	t.Helper()
	tab, err := generate(src, cfg, lo, hi, chunks)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestChunkedGenerationMatchesSerial: the full range and shards with
// lo != 0, each generated in any number of chunks (more than its trials
// included), equal the serial full table's Slice(lo, hi), bounds
// rebased.
func TestChunkedGenerationMatchesSerial(t *testing.T) {
	for _, tc := range chunkConfigs {
		full := mustGenerate(t, tc.src, tc.cfg, 0, tc.cfg.Trials, 1)
		for _, r := range [][2]int{{0, 211}, {1, 211}, {57, 143}, {200, 203}, {210, 211}} {
			lo, hi := r[0], r[1]
			for _, chunks := range []int{1, 2, 3, 7, hi - lo + 5} {
				got := mustGenerate(t, tc.src, tc.cfg, lo, hi, chunks)
				tablesEqual(t, got, full.Slice(lo, hi), fmt.Sprintf("%+v [%d,%d), %d chunks", tc.cfg, lo, hi, chunks))
			}
		}
	}
}

// TestGenerateRangeSplitsLargeRanges: a range large enough for
// GenerateRange to chunk on a multi-core machine still equals the
// serial full table's slice.
func TestGenerateRangeSplitsLargeRanges(t *testing.T) {
	src := UniformSource(5000)
	cfg := Config{Seed: 76, Trials: 3000, MeanEvents: 60, Dispersion: 2}
	full := mustGenerate(t, src, cfg, 0, cfg.Trials, 1)
	got, err := GenerateRange(src, cfg, 700, cfg.Trials)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, got, full.Slice(700, cfg.Trials), "GenerateRange(700, 3000)")
}

// TestChunkedGenerationFromCatalog draws from a real *catalog.Catalog
// (alias sampler, peril lookup) on several goroutines at once; under
// -race it holds the EventSource concurrency contract for the
// production source.
func TestChunkedGenerationFromCatalog(t *testing.T) {
	cat, err := catalog.Generate(catalog.Config{Seed: 77, NumEvents: 3000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 78, Trials: 120, MeanEvents: 50, Seasonal: true}
	serial := mustGenerate(t, cat, cfg, 0, cfg.Trials, 1)
	tablesEqual(t, mustGenerate(t, cat, cfg, 0, cfg.Trials, 4), serial, "catalog source, 4 chunks")
}

// panicSource panics on about one draw in a hundred.
type panicSource struct{ uniformSource }

func (p panicSource) Draw(r *rng.Rand) catalog.EventID {
	ev := p.uniformSource.Draw(r)
	if ev%100 == 7 {
		panic("panicSource")
	}
	return ev
}

// TestChunkPanicReachesCaller: a source that panics inside a chunk
// goroutine does not crash the process; generate joins every chunk and
// re-raises the panic on the caller's goroutine, as the serial path
// would raise it.
func TestChunkPanicReachesCaller(t *testing.T) {
	var p any
	func() {
		defer func() { p = recover() }()
		generate(panicSource{uniformSource{n: 1000}}, Config{Seed: 79, Trials: 50, MeanEvents: 40}, 0, 50, 3)
	}()
	if p != "panicSource" {
		t.Fatalf("recovered %v, want the source's panic", p)
	}
}
