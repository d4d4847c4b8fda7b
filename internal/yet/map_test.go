package yet

// Oracle coverage for the zero-copy loader: Map must be observationally
// identical — bitwise, through every accessor — to the heap decoder on
// the same file, with empty trials and under slicing; truncated files
// must be rejected on both the mmap and the fallback path.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// viewsEqual compares two tables through the public accessors only, so
// it works across backings (heap vs mapped), trial by trial and bit by
// bit.
func viewsEqual(t *testing.T, a, b *Table, context string) {
	t.Helper()
	if a.NumTrials() != b.NumTrials() || a.NumOccurrences() != b.NumOccurrences() {
		t.Fatalf("%s: shape mismatch: %d/%d trials, %d/%d occ", context,
			a.NumTrials(), b.NumTrials(), a.NumOccurrences(), b.NumOccurrences())
	}
	for i := 0; i < a.NumTrials(); i++ {
		ae, be := a.TrialEvents(i), b.TrialEvents(i)
		if len(ae) != len(be) || len(ae) != a.TrialLen(i) {
			t.Fatalf("%s: trial %d length mismatch", context, i)
		}
		for j := range ae {
			if ae[j] != be[j] {
				t.Fatalf("%s: trial %d event %d differs", context, i, j)
			}
		}
	}
}

// writeTemp serialises tab to a file in the test's temp dir.
func writeTemp(t *testing.T, tab *Table, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := WriteFile(path, tab); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMapMatchesReadBitwise: the mapped view of a file is bitwise
// identical to the heap decode of the same file, including a config
// with many empty trials, and WriteTo of the mapped table reproduces
// the original file byte for byte.
func TestMapMatchesReadBitwise(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 91, Trials: 60, MeanEvents: 25},
		{Seed: 92, Trials: 100, MeanEvents: 0.6}, // many empty trials
		{Seed: 93, Trials: 12, FixedEvents: 150, Seasonal: true},
	} {
		gen := genTable(t, cfg, 2000)
		path := writeTemp(t, gen, "tab.yet")
		heap, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := Map(path)
		if err != nil {
			t.Fatal(err)
		}
		if mapped.Mapped() != mmapSupported {
			t.Fatalf("Mapped() = %v, mmapSupported = %v", mapped.Mapped(), mmapSupported)
		}
		viewsEqual(t, mapped, heap, "map vs read")
		viewsEqual(t, mapped, gen, "map vs generate")

		var out bytes.Buffer
		if _, err := mapped.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), orig) {
			t.Fatal("WriteTo of mapped table is not byte-identical to its file")
		}
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMapSliceViews: Slice views of a mapped table (including views of
// views and empty views) match the heap table's views exactly and
// share the parent mapping.
func TestMapSliceViews(t *testing.T) {
	gen := genTable(t, Config{Seed: 94, Trials: 64, MeanEvents: 10}, 1500)
	path := writeTemp(t, gen, "tab.yet")
	mapped, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for _, r := range [][2]int{{0, 64}, {0, 17}, {17, 48}, {48, 64}, {30, 30}} {
		mv, hv := mapped.Slice(r[0], r[1]), gen.Slice(r[0], r[1])
		viewsEqual(t, mv, hv, "slice view")
		if mmapSupported && r[1] > r[0] && !mv.Mapped() {
			t.Fatal("slice of mapped table lost its mapping")
		}
		if mv.NumTrials() > 4 {
			viewsEqual(t, mv.Slice(1, mv.NumTrials()-1), hv.Slice(1, hv.NumTrials()-1), "nested slice")
		}
	}
}

// TestMapTruncatedRejected: files cut inside the header, the boundary
// vector or the payload must all fail Map with an error on both the
// mmap and the nommap build.
func TestMapTruncatedRejected(t *testing.T) {
	gen := genTable(t, Config{Seed: 96, Trials: 8, FixedEvents: 5}, 200)
	full := writeTemp(t, gen, "tab.yet")
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{3, 12, headerSize + 4, len(data) - 1, len(data) / 2} {
		path := filepath.Join(t.TempDir(), "cut.yet")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Map(path); err == nil {
			t.Fatalf("Map accepted a file truncated at byte %d", cut)
		}
	}
	// Trailing garbage is as corrupt as truncation on both paths.
	path := filepath.Join(t.TempDir(), "long.yet")
	if err := os.WriteFile(path, append(append([]byte{}, data...), 0xFF), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Map(path); err == nil {
		t.Fatal("Map accepted a file with trailing bytes")
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("ReadFile accepted a file with trailing bytes")
	}
}

// TestMapMissingFile: Map surfaces the open error.
func TestMapMissingFile(t *testing.T) {
	if _, err := Map(filepath.Join(t.TempDir(), "absent.yet")); err == nil {
		t.Fatal("Map of a missing file succeeded")
	}
}
