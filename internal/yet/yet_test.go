package yet

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/ralab/are/internal/catalog"
	"github.com/ralab/are/internal/rng"
)

func genTable(t testing.TB, cfg Config, catalogSize int) *Table {
	t.Helper()
	tab, err := Generate(UniformSource(catalogSize), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestGenerateBasicShape(t *testing.T) {
	tab := genTable(t, Config{Seed: 1, Trials: 100, MeanEvents: 50}, 1000)
	if tab.NumTrials() != 100 {
		t.Fatalf("NumTrials = %d", tab.NumTrials())
	}
	mean := tab.MeanTrialLen()
	if math.Abs(mean-50) > 5 {
		t.Fatalf("MeanTrialLen = %v, want ~50", mean)
	}
	if tab.NumOccurrences() != int(mean*100) {
		t.Fatalf("NumOccurrences inconsistent with mean")
	}
}

func TestGenerateFixedEvents(t *testing.T) {
	tab := genTable(t, Config{Seed: 2, Trials: 50, FixedEvents: 37}, 500)
	for i := 0; i < tab.NumTrials(); i++ {
		if len(tab.TrialEvents(i)) != 37 {
			t.Fatalf("trial %d has %d events, want 37", i, len(tab.TrialEvents(i)))
		}
	}
}

func TestEventIDsWithinCatalog(t *testing.T) {
	const n = 321
	tab := genTable(t, Config{Seed: 5, Trials: 100, MeanEvents: 40}, n)
	for i := 0; i < tab.NumTrials(); i++ {
		for _, ev := range tab.TrialEvents(i) {
			if int(ev) >= n {
				t.Fatalf("event %d outside catalog %d", ev, n)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTable(t, Config{Seed: 6, Trials: 50, MeanEvents: 25}, 777)
	b := genTable(t, Config{Seed: 6, Trials: 50, MeanEvents: 25}, 777)
	if !slices.Equal(a.bounds, b.bounds) || !slices.Equal(a.events, b.events) {
		t.Fatal("same config generated different tables")
	}
}

func TestTrialsIndependentOfTableSize(t *testing.T) {
	// Trial i is generated from stream (seed, i): the first 50 trials of
	// a 100-trial table must equal the 50-trial table exactly.
	small := genTable(t, Config{Seed: 7, Trials: 50, MeanEvents: 25}, 777)
	big := genTable(t, Config{Seed: 7, Trials: 100, MeanEvents: 25}, 777)
	for i := 0; i < 50; i++ {
		if !slices.Equal(small.TrialEvents(i), big.TrialEvents(i)) {
			t.Fatalf("trial %d differs", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(nil, Config{Trials: 1, MeanEvents: 1}); !errors.Is(err, ErrNilSource) {
		t.Errorf("nil source: %v", err)
	}
	if _, err := Generate(UniformSource(10), Config{Trials: 0, MeanEvents: 1}); !errors.Is(err, ErrNoTrials) {
		t.Errorf("no trials: %v", err)
	}
	if _, err := Generate(UniformSource(10), Config{Trials: 1}); !errors.Is(err, ErrNoEvents) {
		t.Errorf("no events: %v", err)
	}
}

func TestSlice(t *testing.T) {
	tab := genTable(t, Config{Seed: 8, Trials: 20, MeanEvents: 10}, 100)
	s := tab.Slice(5, 15)
	if s.NumTrials() != 10 {
		t.Fatalf("slice trials = %d", s.NumTrials())
	}
	for i := 0; i < 10; i++ {
		if !slices.Equal(tab.TrialEvents(5+i), s.TrialEvents(i)) {
			t.Fatalf("slice trial %d differs", i)
		}
	}
}

func TestSlicePanicsOnBadRange(t *testing.T) {
	tab := genTable(t, Config{Seed: 8, Trials: 5, MeanEvents: 5}, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("bad Slice did not panic")
		}
	}()
	tab.Slice(3, 10)
}

func TestRoundTrip(t *testing.T) {
	tab := genTable(t, Config{Seed: 9, Trials: 64, MeanEvents: 33}, 4096)
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTrials() != tab.NumTrials() || got.NumOccurrences() != tab.NumOccurrences() {
		t.Fatalf("shape mismatch after round trip")
	}
	for i := 0; i < tab.NumTrials(); i++ {
		if !slices.Equal(tab.TrialEvents(i), got.TrialEvents(i)) {
			t.Fatalf("trial %d differs after round trip", i)
		}
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte("NOPE0123456789")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadRejectsShortInput(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte("YE")))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	tab := genTable(t, Config{Seed: 10, Trials: 10, MeanEvents: 10}, 100)
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) / 2, 20} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReadRejectsCorruptBounds(t *testing.T) {
	tab := genTable(t, Config{Seed: 11, Trials: 4, FixedEvents: 5}, 100)
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// bounds start at offset 4(magic)+4(version)+8+8 = 24; corrupt the
	// second boundary to be non-monotone.
	copy(data[24+8:24+16], []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	tab := genTable(t, Config{Seed: 12, Trials: 2, FixedEvents: 2}, 10)
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

// Property: round trip preserves arbitrary generated tables.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, trials, mean uint8) bool {
		cfg := Config{Seed: seed, Trials: 1 + int(trials)%32, MeanEvents: 1 + float64(mean%50)}
		tab, err := Generate(UniformSource(1000), cfg)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := tab.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.NumTrials() != tab.NumTrials() {
			return false
		}
		for i := 0; i < tab.NumTrials(); i++ {
			if !slices.Equal(tab.TrialEvents(i), got.TrialEvents(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformSource(t *testing.T) {
	src := UniformSource(17)
	if src.NumEvents() != 17 {
		t.Fatalf("NumEvents = %d", src.NumEvents())
	}
}

func TestMeanTrialLenEmpty(t *testing.T) {
	empty := &Table{bounds: []uint64{0}}
	if empty.MeanTrialLen() != 0 {
		t.Fatal("empty table mean != 0")
	}
}

func TestCatalogAsSource(t *testing.T) {
	// catalog.Catalog implements EventSource.
	var _ EventSource = (*catalog.Catalog)(nil)
}

func TestNegativeBinomialOverdispersion(t *testing.T) {
	// Dispersion d means variance/mean of per-trial counts ~ d.
	const mean, d = 50.0, 4.0
	tab, err := Generate(UniformSource(1000), Config{
		Seed: 41, Trials: 4000, MeanEvents: mean, Dispersion: d,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, tab.NumTrials())
	var sum float64
	for i := range counts {
		counts[i] = float64(tab.TrialLen(i))
		sum += counts[i]
	}
	m := sum / float64(len(counts))
	var ss float64
	for _, c := range counts {
		ss += (c - m) * (c - m)
	}
	v := ss / float64(len(counts))
	if math.Abs(m-mean)/mean > 0.05 {
		t.Fatalf("NB mean = %v, want ~%v", m, mean)
	}
	ratio := v / m
	if ratio < 3.0 || ratio > 5.2 {
		t.Fatalf("variance/mean = %v, want ~%v", ratio, d)
	}
}

func TestPoissonNotOverdispersed(t *testing.T) {
	tab, err := Generate(UniformSource(1000), Config{Seed: 42, Trials: 4000, MeanEvents: 50})
	if err != nil {
		t.Fatal(err)
	}
	var sum, ss float64
	n := tab.NumTrials()
	for i := 0; i < n; i++ {
		sum += float64(tab.TrialLen(i))
	}
	m := sum / float64(n)
	for i := 0; i < n; i++ {
		d := float64(tab.TrialLen(i)) - m
		ss += d * d
	}
	if ratio := ss / float64(n) / m; ratio > 1.25 {
		t.Fatalf("Poisson counts overdispersed: variance/mean = %v", ratio)
	}
}

// perilTestSource assigns even IDs to hurricanes, odd to earthquakes.
type perilTestSource struct{ n int }

func (s perilTestSource) Draw(r *rng.Rand) catalog.EventID { return catalog.EventID(r.Intn(s.n)) }
func (s perilTestSource) NumEvents() int                   { return s.n }
func (s perilTestSource) PerilOf(id catalog.EventID) catalog.Peril {
	if id%2 == 0 {
		return catalog.Hurricane
	}
	return catalog.Earthquake
}

func TestSeasonalTimestamps(t *testing.T) {
	r := rng.New(43)
	mean := func(p catalog.Peril) float64 {
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += seasonalTime(r, p)
		}
		return sum / n
	}
	// Hurricanes bunch late in the year (Beta(9,4) mean ~0.69);
	// earthquakes are uniform (~0.5).
	if m := mean(catalog.Hurricane); m < 0.62 || m > 0.76 {
		t.Fatalf("hurricane season mean = %v, want ~0.69", m)
	}
	if m := mean(catalog.Earthquake); math.Abs(m-0.5) > 0.05 {
		t.Fatalf("earthquake time mean = %v, want ~0.5", m)
	}
}

// hurricaneSource is UniformSource with every event a hurricane.
type hurricaneSource struct{ uniformSource }

func (hurricaneSource) PerilOf(catalog.EventID) catalog.Peril { return catalog.Hurricane }

func TestSeasonalWithoutPerilSource(t *testing.T) {
	// UniformSource has no perils: the shared (hurricane) profile orders
	// its events, exactly as for a source whose every event is one.
	cfg := Config{Seed: 44, Trials: 100, MeanEvents: 40, Seasonal: true}
	plain := genTable(t, cfg, 100)
	hurricanes, err := Generate(hurricaneSource{uniformSource{n: 100}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plain.bounds, hurricanes.bounds) || !slices.Equal(plain.events, hurricanes.events) {
		t.Fatal("seasonal table without perils differs from the all-hurricane one")
	}
}

func TestSeasonalCoversAllPerilProfiles(t *testing.T) {
	r := rng.New(45)
	for _, p := range catalog.Perils() {
		for i := 0; i < 2000; i++ {
			tm := seasonalTime(r, p)
			if tm < 0 || tm >= 1 {
				t.Fatalf("peril %v produced timestamp %v", p, tm)
			}
		}
	}
}

func TestGenerateRangeMatchesFullTableSlice(t *testing.T) {
	cfg := Config{Seed: 99, Trials: 500, MeanEvents: 40, Dispersion: 2, Seasonal: true}
	src := UniformSource(1000)
	full, err := Generate(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{0, 500}, {0, 100}, {123, 289}, {499, 500}} {
		lo, hi := r[0], r[1]
		shard, err := GenerateRange(src, cfg, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want := full.Slice(lo, hi)
		if shard.NumTrials() != want.NumTrials() {
			t.Fatalf("[%d,%d): %d trials, want %d", lo, hi, shard.NumTrials(), want.NumTrials())
		}
		for i := 0; i < shard.NumTrials(); i++ {
			if got, exp := shard.TrialEvents(i), want.TrialEvents(i); !slices.Equal(got, exp) {
				t.Fatalf("[%d,%d) trial %d: %v != %v", lo, hi, i, got, exp)
			}
		}
	}
}

func TestGenerateRangeRejectsBadBounds(t *testing.T) {
	cfg := Config{Seed: 1, Trials: 10, MeanEvents: 5}
	src := UniformSource(10)
	for _, r := range [][2]int{{-1, 5}, {5, 11}, {7, 7}, {8, 2}} {
		if _, err := GenerateRange(src, cfg, r[0], r[1]); !errors.Is(err, ErrBadRange) {
			t.Errorf("[%d,%d): err = %v, want ErrBadRange", r[0], r[1], err)
		}
	}
}
