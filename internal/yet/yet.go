// Package yet implements the Year Event Table: the database of
// pre-simulated years that gives aggregate analysis its consistent lens
// (paper §II.A.1).
//
// Each trial Ti is an ordered sequence of event IDs — one alternative
// view of which events occur within a contractual year and in which
// order. A production YET holds thousands to millions of trials of
// roughly 800-1500 occurrences each. Generation draws a time of year
// per occurrence, but its only effect is the order of the trial's
// events, which fixes every kernel's summation order; the table keeps
// the order and drops the draws.
//
// The table is one flat event column sliced by a trial-boundary vector:
// 4 bytes per occurrence, which is all the engine's kernels stream
// (TrialEvents). The flat vectors mirror the paper's basic
// implementation (§III.B.1) and keep the table trivially serialisable
// and memory-mappable.
//
// The package covers the table's full lifecycle:
//
//   - Generate builds synthetic tables (Poisson or negative-binomial
//     occurrence counts, optional seasonal ordering), deterministic in
//     the seed — trial i always comes from rng stream (seed, i), so a
//     table's Config doubles as its content identity (the ared service
//     caches generated tables under a hash of it). Large tables are
//     generated in up to GOMAXPROCS contiguous trial chunks, one
//     goroutine each, into one preallocated event column; the content
//     does not depend on the chunking.
//   - Table.WriteTo / Read serialise a table in the package's binary
//     format (version 3: header, bounds, event column).
//   - Reader decodes that format incrementally — header and trial
//     boundaries eagerly, payloads in caller-sized batches — which is
//     what lets the engine's streaming pipeline analyse tables far
//     larger than memory (see stream.go and core.NewStreamSource).
//   - Map serves a file's columns straight from the page cache (map.go).
package yet

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"

	"github.com/ralab/are/internal/catalog"
	"github.com/ralab/are/internal/rng"
	"github.com/ralab/are/internal/stats"
)

// Table is a packed Year Event Table: one event column sliced by trial
// bounds. The backing is either a heap slice (Generate, Read) or a
// shared read-only file mapping (Map; see map.go) — the accessors hide
// which.
type Table struct {
	events []uint32 // all trials' event IDs, concatenated (heap backing)
	bounds []uint64 // len = NumTrials+1; trial i spans [bounds[i], bounds[i+1])

	m     *mapping // non-nil when columns are served from an mmap'd file
	mbase uint64   // file-order occurrence offset of this view's trial 0
	owns  bool     // this table (not a Slice view) owns m's lifetime
}

// Config controls YET generation.
type Config struct {
	Seed   uint64
	Trials int

	// MeanEvents is the expected number of occurrences per trial (the
	// catalog-wide annual rate). Per-trial counts are Poisson around it.
	// The paper's range is 800-1500.
	MeanEvents float64

	// FixedEvents, when > 0, forces every trial to exactly this many
	// occurrences, which the performance figures use to control problem
	// size precisely.
	FixedEvents int

	// Dispersion, when > 1, switches per-trial occurrence counts from
	// Poisson to negative binomial with variance = Dispersion x mean,
	// modelling the year-to-year clustering (active vs quiet seasons)
	// real catalogs exhibit. 0 or 1 keeps Poisson counts.
	Dispersion float64

	// Seasonal, when true, orders each trial's events by a time of year
	// drawn from a peril-appropriate distribution instead of uniform:
	// occurrences bunch in season (e.g. hurricanes concentrated
	// mid-year). Requires the EventSource to implement PerilSource;
	// otherwise a single shared seasonal profile is used.
	Seasonal bool
}

// Validation errors.
var (
	ErrNoTrials  = errors.New("yet: Trials must be positive")
	ErrNoEvents  = errors.New("yet: MeanEvents or FixedEvents must be positive")
	ErrNilSource = errors.New("yet: event source must be non-nil")
)

// EventSource abstracts "draw the next occurring event", normally a
// *catalog.Catalog.
//
// Generation calls Draw (and PerilSource's PerilOf) concurrently from
// several goroutines, each with its own *rng.Rand. An implementation
// must therefore be safe for concurrent use, and all of its randomness
// must come from r: a source that keeps its own generator or mutable
// state would race, and its draws would depend on goroutine scheduling
// instead of the trial's stream.
type EventSource interface {
	Draw(r *rng.Rand) catalog.EventID
	NumEvents() int
}

// PerilSource is optionally implemented by event sources that can report
// an event's peril, enabling peril-specific seasonality. Like Draw,
// PerilOf is called concurrently and must be safe for concurrent use.
type PerilSource interface {
	PerilOf(id catalog.EventID) catalog.Peril
}

// uniformSource draws event IDs uniformly from [0, n); used when sampling
// should not be rate-weighted (synthetic benchmarks).
type uniformSource struct{ n int }

func (u uniformSource) Draw(r *rng.Rand) catalog.EventID {
	return catalog.EventID(r.Intn(u.n))
}
func (u uniformSource) NumEvents() int { return u.n }

// UniformSource returns an EventSource drawing uniformly from a catalog of
// n events.
func UniformSource(n int) EventSource { return uniformSource{n: n} }

// Generate builds a YET by simulating Trials years. Each trial's
// occurrence count is Poisson(MeanEvents) (or FixedEvents), events are
// drawn from src, each with a uniform time of year, and ordered by that
// time — the ordered-set structure the aggregate terms rely on.
// Trial i is generated from rng stream (Seed, i), so the table content is
// independent of generation order, and GenerateRange fills contiguous
// trial chunks in parallel.
func Generate(src EventSource, cfg Config) (*Table, error) {
	return GenerateRange(src, cfg, 0, cfg.Trials)
}

// ErrBadRange rejects shard bounds outside [0, Trials].
var ErrBadRange = errors.New("yet: generation range outside [0, Trials]")

// minChunkOccurrences is the smallest expected number of occurrences a
// generation chunk gets its own goroutine for (a few milliseconds of
// drawing and sorting), so test-sized tables and small shard ranges are
// generated inline on the caller's goroutine.
const minChunkOccurrences = 1 << 16

// GenerateRange builds only trials [lo, hi) of the table Generate would
// build from the same config: because trial i is a pure function of
// (Seed, i), the shard's trial t is bitwise identical to trial lo+t of
// the full table. This is what lets a distributed worker materialise
// exactly its shard of a job's YET — O(hi-lo) memory and work, no
// coordination — while the cluster's merged result still reproduces the
// single-node run exactly.
//
// Each trial's (event, time) pairs are drawn in the order every format
// version has drawn them and time-sorted in a small scratch with
// slices.SortFunc; only the events are kept. slices.SortFunc and the
// sort.Slice call earlier versions used are instantiations of one
// pdqsort template, so they permute tied times identically and the
// event order is unchanged bit for bit (TestGenerateEventOrderGolden).
//
// The range is split into at most GOMAXPROCS contiguous trial chunks of
// at least minChunkOccurrences expected occurrences each. A first pass
// re-derives every trial's count from its stream to fix the exact
// bounds, the event column is allocated once, and each chunk fills its
// own [bounds[a], bounds[b]) in place on its own goroutine. Every chunk
// is joined before GenerateRange returns; a panic in one (from a
// faulty EventSource) is re-raised on the caller's goroutine.
func GenerateRange(src EventSource, cfg Config, lo, hi int) (*Table, error) {
	expect := cfg.MeanEvents
	if cfg.FixedEvents > 0 {
		expect = float64(cfg.FixedEvents)
	}
	chunks := int(float64(hi-lo) * expect / minChunkOccurrences)
	return generate(src, cfg, lo, hi, min(runtime.GOMAXPROCS(0), chunks))
}

// generate is GenerateRange with the chunk count given: chunks is
// clamped into [1, hi-lo], and every count yields the same table.
func generate(src EventSource, cfg Config, lo, hi, chunks int) (*Table, error) {
	if src == nil {
		return nil, ErrNilSource
	}
	if cfg.Trials <= 0 {
		return nil, ErrNoTrials
	}
	if cfg.MeanEvents <= 0 && cfg.FixedEvents <= 0 {
		return nil, ErrNoEvents
	}
	if lo < 0 || hi > cfg.Trials || lo >= hi {
		return nil, fmt.Errorf("%w: [%d, %d) of %d", ErrBadRange, lo, hi, cfg.Trials)
	}
	n := hi - lo
	bounds := make([]uint64, n+1)
	for i := 0; i < n; i++ {
		c := cfg.FixedEvents
		if c <= 0 {
			c = trialCount(rng.At(cfg.Seed, uint64(lo+i)), cfg)
		}
		bounds[i+1] = bounds[i] + uint64(c)
	}
	t := &Table{events: make([]uint32, bounds[n]), bounds: bounds}
	chunks = max(1, min(chunks, n))
	if chunks == 1 {
		t.fill(src, cfg, lo, 0, n)
		return t, nil
	}
	var wg sync.WaitGroup
	panics := make([]any, chunks)
	for c := 0; c < chunks; c++ {
		a, b := n*c/chunks, n*(c+1)/chunks
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[c] = recover() }()
			t.fill(src, cfg, lo, a, b)
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return t, nil
}

// trialCount draws a trial's occurrence count, the first draws of its
// stream, for a config without FixedEvents.
func trialCount(r *rng.Rand, cfg Config) int {
	if cfg.Dispersion > 1 {
		return negBinomial(r, cfg.MeanEvents, cfg.Dispersion)
	}
	return stats.Poisson(r, cfg.MeanEvents)
}

// occurrence is one drawn (event, time of year) pair; the time only
// decides the event's place in its trial.
type occurrence struct {
	event uint32
	time  float64
}

// fill generates the table's trials [a, b) (table-relative; trial a is
// stream lo+a) into their slots of the preallocated event column, which
// the bounds already fix. It writes nothing outside [bounds[a],
// bounds[b]), so chunks covering disjoint trial ranges may fill
// concurrently.
func (t *Table) fill(src EventSource, cfg Config, lo, a, b int) {
	perils, _ := src.(PerilSource)
	var scratch []occurrence
	for i := a; i < b; i++ {
		r := rng.At(cfg.Seed, uint64(lo+i))
		n := cfg.FixedEvents
		if n <= 0 {
			n = trialCount(r, cfg)
		}
		dst := t.events[t.bounds[i]:t.bounds[i+1]]
		if n != len(dst) {
			panic(fmt.Sprintf("yet: trial %d redrew %d occurrences, the count pass drew %d", lo+i, n, len(dst)))
		}
		if cap(scratch) < n {
			scratch = make([]occurrence, n)
		}
		trial := scratch[:n]
		for j := range trial {
			ev := src.Draw(r)
			tm := r.Float64()
			if cfg.Seasonal {
				p := catalog.Hurricane
				if perils != nil {
					p = perils.PerilOf(ev)
				}
				tm = seasonalTime(r, p)
			}
			trial[j] = occurrence{event: uint32(ev), time: tm}
		}
		slices.SortFunc(trial, func(x, y occurrence) int { return cmp.Compare(x.time, y.time) })
		for j := range trial {
			dst[j] = trial[j].event
		}
	}
}

// negBinomial draws a negative binomial count with the given mean and
// variance-to-mean ratio d > 1, via the gamma-Poisson mixture:
// lambda ~ Gamma(shape=mean/(d-1), scale=d-1), N ~ Poisson(lambda).
func negBinomial(r *rng.Rand, mean, d float64) int {
	shape := mean / (d - 1)
	lambda := stats.Gamma(r, shape, d-1)
	return stats.Poisson(r, lambda)
}

// seasonalTime draws a time of year in [0, 1) from the peril's seasonal
// profile: peaked mid-season for hurricanes and tornadoes, winter-peaked
// for winter storms, broad for floods, uniform for earthquakes. The
// result is clamped into [0, 1).
func seasonalTime(r *rng.Rand, p catalog.Peril) float64 {
	t := rawSeasonalTime(r, p)
	if t >= 1 {
		t = math.Nextafter(1, 0)
	}
	if t < 0 {
		t = 0
	}
	return t
}

func rawSeasonalTime(r *rng.Rand, p catalog.Peril) float64 {
	switch p {
	case catalog.Hurricane:
		// Aug-Oct peak: Beta centred around 0.7 of the year.
		return stats.Beta(r, 9, 4)
	case catalog.Tornado:
		// Spring peak.
		return stats.Beta(r, 4, 7)
	case catalog.WinterStorm:
		// Bimodal at the year's edges: reflect a summer-peaked Beta.
		x := stats.Beta(r, 6, 6)
		x += 0.5
		if x >= 1 {
			x -= 1
		}
		return x
	case catalog.Flood:
		return stats.Beta(r, 2, 2)
	default: // earthquakes and unknown perils have no season
		return r.Float64()
	}
}

// NumTrials returns the number of trials.
func (t *Table) NumTrials() int { return len(t.bounds) - 1 }

// NumOccurrences returns the total number of event occurrences.
func (t *Table) NumOccurrences() int { return int(t.bounds[t.NumTrials()] - t.bounds[0]) }

// TrialEvents returns the event-ID column of trial i (shared storage;
// callers must not modify it). This is the engine kernels' hot accessor:
// 4 bytes streamed per occurrence, nothing else touched — for a mapped
// table the returned slice aliases the page cache directly.
func (t *Table) TrialEvents(i int) []uint32 {
	if t.m != nil {
		return t.m.trialEvents(t.mbase+t.bounds[i], t.bounds[i+1]-t.bounds[i])
	}
	return t.events[t.bounds[i]:t.bounds[i+1]]
}

// column returns the whole event column, all trials in order (shared
// storage, like TrialEvents).
func (t *Table) column() []uint32 {
	n := t.NumTrials()
	if t.m != nil {
		return t.m.trialEvents(t.mbase+t.bounds[0], t.bounds[n]-t.bounds[0])
	}
	return t.events[t.bounds[0]:t.bounds[n]]
}

// TrialLen returns the occurrence count of trial i without touching
// the event column.
func (t *Table) TrialLen(i int) int {
	return int(t.bounds[i+1] - t.bounds[i])
}

// MeanTrialLen returns the average occurrences per trial.
func (t *Table) MeanTrialLen() float64 {
	if t.NumTrials() == 0 {
		return 0
	}
	return float64(t.NumOccurrences()) / float64(t.NumTrials())
}

// Slice returns a view containing trials [lo, hi) that shares column
// storage with t; used to partition work across engine workers. Views
// of a mapped table share its mapping (and keep it alive): N shards of
// one job cost one decode-free mapping between them.
func (t *Table) Slice(lo, hi int) *Table {
	if lo < 0 || hi > t.NumTrials() || lo > hi {
		panic(fmt.Sprintf("yet: bad slice [%d,%d) of %d trials", lo, hi, t.NumTrials()))
	}
	base := t.bounds[lo]
	bounds := make([]uint64, hi-lo+1)
	for i := range bounds {
		bounds[i] = t.bounds[lo+i] - base
	}
	if t.m != nil {
		return &Table{bounds: bounds, m: t.m, mbase: t.mbase + base}
	}
	return &Table{events: t.events[base:t.bounds[hi]], bounds: bounds}
}

// ---------------------------------------------------------------------------
// Binary serialisation, version 3:
//
//	magic  "YETB"            4 bytes
//	version uint32           little endian (3)
//	numTrials uint64
//	numOcc    uint64
//	bounds    (numTrials+1) x uint64
//	events    numOcc x uint32, all trials in order
//
// Versions 1 and 2 also stored a float64 time per occurrence; they are
// rejected with ErrBadVersion, and cmd/datagen regenerates such files.

const (
	magic   = "YETB"
	version = 3

	// OccurrenceBytes is what one occurrence costs in a table's
	// memory and on disk: one uint32 event ID.
	OccurrenceBytes = 4
)

// Serialisation errors.
var (
	ErrBadMagic   = errors.New("yet: bad magic (not a YET file)")
	ErrBadVersion = errors.New("yet: unsupported version")
	ErrCorrupt    = errors.New("yet: corrupt table data")
)

// WriteTo serialises the table. It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if _, err := bw.WriteString(magic); err != nil {
		return n, err
	}
	n += 4
	if err := write(uint32(version)); err != nil {
		return n, err
	}
	if err := write(uint64(t.NumTrials())); err != nil {
		return n, err
	}
	if err := write(uint64(t.NumOccurrences())); err != nil {
		return n, err
	}
	if err := write(t.bounds); err != nil {
		return n, err
	}
	// The event column is encoded in writeBlock-byte blocks: one Write
	// per block, not one per occurrence.
	const writeBlock = 64 << 10
	col := t.column()
	block := make([]byte, 0, min(writeBlock, OccurrenceBytes*len(col)))
	for len(col) > 0 {
		k := min(len(col), writeBlock/OccurrenceBytes)
		block = block[:0]
		for _, ev := range col[:k] {
			block = binary.LittleEndian.AppendUint32(block, ev)
		}
		if _, err := bw.Write(block); err != nil {
			return n, err
		}
		n += int64(len(block))
		col = col[k:]
	}
	return n, bw.Flush()
}

// header is the parsed fixed-size prefix shared by the whole-table
// reader, the streaming reader and Map.
type header struct {
	numTrials uint64
	numOcc    uint64
}

// readHeader parses magic, version and the table dimensions.
func readHeader(br *bufio.Reader) (header, error) {
	var h header
	var mg [4]byte
	if _, err := io.ReadFull(br, mg[:]); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(mg[:]) != magic {
		return h, ErrBadMagic
	}
	var v uint32
	if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
		return h, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if v != version {
		return h, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	if err := binary.Read(br, binary.LittleEndian, &h.numTrials); err != nil {
		return h, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := binary.Read(br, binary.LittleEndian, &h.numOcc); err != nil {
		return h, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	const maxReasonable = 1 << 40
	if h.numTrials >= maxReasonable || h.numOcc >= maxReasonable {
		return h, fmt.Errorf("%w: implausible sizes trials=%d occ=%d", ErrCorrupt, h.numTrials, h.numOcc)
	}
	return h, nil
}

// readBounds parses and validates the monotone boundary vector.
func readBounds(br *bufio.Reader, h header) ([]uint64, error) {
	const preallocCap = 1 << 20
	bounds := make([]uint64, 0, min64(h.numTrials+1, preallocCap))
	var prev uint64
	var b8 [8]byte
	for i := uint64(0); i <= h.numTrials; i++ {
		if _, err := io.ReadFull(br, b8[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated boundary %d: %v", ErrCorrupt, i, err)
		}
		v := binary.LittleEndian.Uint64(b8[:])
		if i == 0 && v != 0 {
			return nil, fmt.Errorf("%w: boundary vector endpoints", ErrCorrupt)
		}
		if v < prev {
			return nil, fmt.Errorf("%w: boundaries not monotone at %d", ErrCorrupt, i)
		}
		if v > h.numOcc {
			return nil, fmt.Errorf("%w: boundary %d exceeds occurrence count", ErrCorrupt, i)
		}
		bounds = append(bounds, v)
		prev = v
	}
	if bounds[h.numTrials] != h.numOcc {
		return nil, fmt.Errorf("%w: boundary vector endpoints", ErrCorrupt)
	}
	return bounds, nil
}

// readEvents appends the next n events of br to t's event column
// (occurrences numbered from base in error messages). Decoding is
// chunked so a hostile header cannot force a large allocation before
// its bytes actually arrive.
func readEvents(br *bufio.Reader, t *Table, n, base uint64) error {
	const chunkOcc = 1 << 16
	buf := make([]byte, 4*min64(n, chunkOcc))
	for done := uint64(0); done < n; {
		c := min64(n-done, chunkOcc)
		if _, err := io.ReadFull(br, buf[:c*4]); err != nil {
			return fmt.Errorf("%w: truncated events at occurrence %d: %v", ErrCorrupt, base+done, err)
		}
		for i := uint64(0); i < c; i++ {
			t.events = append(t.events, binary.LittleEndian.Uint32(buf[i*4:]))
		}
		done += c
	}
	return nil
}

// Read deserialises a table written by WriteTo, validating structure;
// like Map, it rejects bytes after the event column.
func Read(rd io.Reader) (*Table, error) {
	br := bufio.NewReaderSize(rd, 1<<20)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	bounds, err := readBounds(br, h)
	if err != nil {
		return nil, err
	}
	// Never trust the header for up-front allocation: grow buffers only
	// as bytes actually arrive, so a corrupt or hostile header cannot
	// trigger a huge allocation.
	const preallocCap = 1 << 20
	t := &Table{bounds: bounds, events: make([]uint32, 0, min64(h.numOcc, preallocCap))}
	if err := readEvents(br, t, h.numOcc, 0); err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: bytes after the event column", ErrCorrupt)
	}
	return t, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
