package artifact

// Coverage for the spill-dir (zero-copy) table path: mapped tables and
// their shard views must be bitwise-interchangeable with the heap
// path, spill files must survive as a warm cache across cache
// instances, and concurrent jobs sharing one mapping must produce
// bitwise-identical Year Loss Tables (run under -race in CI).

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"github.com/ralab/are/internal/core"
	"github.com/ralab/are/internal/yet"
)

func spillCache(t *testing.T, entries int) (*Cache, string) {
	t.Helper()
	dir := t.TempDir()
	c := NewCache(entries)
	if err := c.SetSpillDir(dir); err != nil {
		t.Fatal(err)
	}
	return c, dir
}

// TestSpillServesSharedViews: with a spill dir, the full table and
// every shard are views over one serialised artifact, bitwise equal to
// the heap build of the same spec.
func TestSpillServesSharedViews(t *testing.T) {
	c, dir := spillCache(t, 8)
	js := testJob(t, 11, 300)

	heap, _, err := TableFor(NewCache(4), js)
	if err != nil {
		t.Fatal(err)
	}
	full, hit, err := TableFor(c, js)
	if err != nil || hit {
		t.Fatalf("spill TableFor: hit=%v err=%v", hit, err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.yet"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spill dir holds %d .yet files (err=%v), want 1", len(files), err)
	}
	for _, r := range [][2]int{{0, 300}, {0, 97}, {97, 201}, {201, 300}} {
		shard, _, err := ShardFor(c, js, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if shard.Mapped() != full.Mapped() {
			t.Fatalf("shard [%d,%d) backing differs from full table", r[0], r[1])
		}
		want := heap.Slice(r[0], r[1])
		if shard.NumTrials() != want.NumTrials() || shard.NumOccurrences() != want.NumOccurrences() {
			t.Fatalf("shard [%d,%d) shape mismatch", r[0], r[1])
		}
		for i := 0; i < shard.NumTrials(); i++ {
			if !slices.Equal(shard.TrialEvents(i), want.TrialEvents(i)) {
				t.Fatalf("shard [%d,%d) trial %d differs", r[0], r[1], i)
			}
		}
	}
	// A second ShardFor over the same table is a hit on the shared
	// mapping, not a regeneration.
	if _, hit, err := ShardFor(c, js, 97, 201); err != nil || !hit {
		t.Fatalf("repeat ShardFor: hit=%v err=%v", hit, err)
	}
}

// TestSpillWarmRestart: a fresh cache over the same spill dir maps the
// existing file instead of regenerating and rewriting it.
func TestSpillWarmRestart(t *testing.T) {
	c1, dir := spillCache(t, 8)
	js := testJob(t, 12, 200)
	first, _, err := TableFor(c1, js)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.yet"))
	if len(files) != 1 {
		t.Fatalf("spill dir holds %d files, want 1", len(files))
	}
	before, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}

	c2 := NewCache(8)
	if err := c2.SetSpillDir(dir); err != nil {
		t.Fatal(err)
	}
	second, hit, err := TableFor(c2, js)
	if err != nil || hit {
		t.Fatalf("warm TableFor: hit=%v err=%v", hit, err)
	}
	after, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("warm restart rewrote the spill file")
	}
	if first.NumOccurrences() != second.NumOccurrences() {
		t.Fatal("warm restart changed table content")
	}
	for i := 0; i < first.NumTrials(); i++ {
		fe, se := first.TrialEvents(i), second.TrialEvents(i)
		for j := range fe {
			if fe[j] != se[j] {
				t.Fatalf("warm restart trial %d differs", i)
			}
		}
	}
}

// TestSpillUpgradesOldVersion: a spill file an earlier release left
// under the same content-hash name carries an older format version. A
// fresh cache must not fail the job on it: it regenerates the table,
// atomically overwrites the file in the current version, and serves
// the generated events.
func TestSpillUpgradesOldVersion(t *testing.T) {
	c1, dir := spillCache(t, 8)
	js := testJob(t, 14, 200)
	if _, _, err := TableFor(c1, js); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.yet"))
	if len(files) != 1 {
		t.Fatalf("spill dir holds %d files, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[4:8], 2)
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewCache(8)
	if err := c2.SetSpillDir(dir); err != nil {
		t.Fatal(err)
	}
	got, _, err := TableFor(c2, js)
	if err != nil {
		t.Fatalf("old spill file failed the job: %v", err)
	}
	want, err := yet.Generate(yet.UniformSource(js.Portfolio.CatalogSize), js.YET.ToConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTrials() != want.NumTrials() {
		t.Fatalf("served %d trials, want %d", got.NumTrials(), want.NumTrials())
	}
	for i := 0; i < want.NumTrials(); i++ {
		if !slices.Equal(got.TrialEvents(i), want.TrialEvents(i)) {
			t.Fatalf("trial %d differs from Generate", i)
		}
	}
	data, err = os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != 3 {
		t.Fatalf("spill file version = %d after upgrade, want 3", v)
	}
	m, err := yet.Map(files[0])
	if err != nil {
		t.Fatalf("upgraded spill file does not map: %v", err)
	}
	m.Close()
}

// TestSpillUnwritableFallsBack: a hostile spill dir degrades to the
// heap path instead of failing jobs.
func TestSpillUnwritableFallsBack(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("root ignores directory permissions")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	c := NewCache(8)
	c.spillDir = dir // bypass SetSpillDir's MkdirAll (dir exists, read-only)
	js := testJob(t, 13, 50)
	tab, _, err := TableFor(c, js)
	if err != nil {
		t.Fatalf("unwritable spill dir failed the job: %v", err)
	}
	if tab.Mapped() {
		t.Fatal("table claims to be mapped despite unwritable spill dir")
	}
}

// TestConcurrentJobsShareMappingBitwise is the -race oracle the issue
// pins: several concurrent jobs running over one shared mapped table
// must each materialise a Year Loss Table bitwise identical to the
// heap-backed single run.
func TestConcurrentJobsShareMappingBitwise(t *testing.T) {
	c, _ := spillCache(t, 8)
	js := testJob(t, 14, 400)

	eng, _, err := EngineFor(c, js)
	if err != nil {
		t.Fatal(err)
	}
	heap, _, err := TableFor(NewCache(4), js)
	if err != nil {
		t.Fatal(err)
	}
	refSink := core.NewFullYLT()
	if _, err := eng.Eng.RunPipeline(core.NewTableSource(heap), refSink, core.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	ref := refSink.Result()

	const jobs = 4
	var wg sync.WaitGroup
	results := make([]*core.Result, jobs)
	errs := make([]error, jobs)
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tab, _, err := TableFor(c, js) // all goroutines share one mapping
			if err != nil {
				errs[g] = err
				return
			}
			sink := core.NewFullYLT()
			if _, err := eng.Eng.RunPipeline(core.NewTableSource(tab), sink, core.Options{Workers: 2}); err != nil {
				errs[g] = err
				return
			}
			results[g] = sink.Result()
		}(g)
	}
	wg.Wait()
	for g := 0; g < jobs; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		got := results[g]
		for l := range ref.AggLoss {
			for i := range ref.AggLoss[l] {
				if math.Float64bits(got.AggLoss[l][i]) != math.Float64bits(ref.AggLoss[l][i]) ||
					math.Float64bits(got.MaxOccLoss[l][i]) != math.Float64bits(ref.MaxOccLoss[l][i]) {
					t.Fatalf("job %d: YLT differs from heap run at layer %d trial %d", g, l, i)
				}
			}
		}
	}
}
