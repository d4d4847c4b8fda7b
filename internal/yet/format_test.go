package yet

// Coverage for the on-disk format: the writer's exact size and bytes, a
// bitwise round trip across generation shapes, and the version gate on
// every reader.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

func tablesEqual(t *testing.T, a, b *Table, context string) {
	t.Helper()
	if a.NumTrials() != b.NumTrials() || a.NumOccurrences() != b.NumOccurrences() {
		t.Fatalf("%s: shape mismatch", context)
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("%s: event column differs at %d", context, i)
		}
	}
	for i := range a.bounds {
		if a.bounds[i] != b.bounds[i] {
			t.Fatalf("%s: bounds differ at %d", context, i)
		}
	}
}

// TestOccurrenceSize: an occurrence costs OccurrenceBytes on disk —
// the writer stamps version 3 and emits the header, the bounds and one
// uint32 per occurrence, nothing else.
func TestOccurrenceSize(t *testing.T) {
	if OccurrenceBytes != 4 {
		t.Fatalf("OccurrenceBytes = %d, want 4", OccurrenceBytes)
	}
	tab := genTable(t, Config{Seed: 62, Trials: 16, FixedEvents: 10}, 500)
	var buf bytes.Buffer
	n, err := tab.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	data := buf.Bytes()
	if v := binary.LittleEndian.Uint32(data[4:8]); v != 3 {
		t.Fatalf("written version = %d, want 3", v)
	}
	wantLen := headerSize + 8*(tab.NumTrials()+1) + OccurrenceBytes*tab.NumOccurrences()
	if buf.Len() != wantLen {
		t.Fatalf("size = %d, want %d", buf.Len(), wantLen)
	}
}

// TestRoundTripBitwise: writer -> reader preserves every column bit
// across generation shapes (empty trials included).
func TestRoundTripBitwise(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 63, Trials: 50, MeanEvents: 20},
		{Seed: 64, Trials: 80, MeanEvents: 0.7}, // many empty trials
		{Seed: 65, Trials: 10, FixedEvents: 200, Seasonal: true},
	} {
		tab := genTable(t, cfg, 2000)
		got, err := Read(bytes.NewReader(serialise(t, tab)))
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, got, tab, "round trip")
	}
}

// TestUnknownVersionRejected: Read, NewReader and Map accept only the
// current version. Versions 1 and 2 stored timestamps beside the events
// and are rejected, not misread; cmd/datagen regenerates such files.
func TestUnknownVersionRejected(t *testing.T) {
	tab := genTable(t, Config{Seed: 67, Trials: 2, FixedEvents: 2}, 10)
	data := serialise(t, tab)
	for _, v := range []uint32{0, 1, 2, 4, 99} {
		binary.LittleEndian.PutUint32(data[4:8], v)
		if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d: err = %v, want ErrBadVersion", v, err)
		}
		if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d: stream err = %v, want ErrBadVersion", v, err)
		}
		path := filepath.Join(t.TempDir(), "old.yet")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Map(path); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d: Map err = %v, want ErrBadVersion", v, err)
		}
	}
}

// TestWriteToBytesGolden pins the exact bytes WriteTo emits, as FNV-64a
// over the whole serialisation, for a heap table, a Slice view of it
// (rebased bounds, a column starting mid-table) and the mapped table
// read back from the heap table's file. The event column spans several
// 64 KiB encode blocks, so any change to the encoder that moves a byte
// shows here.
func TestWriteToBytesGolden(t *testing.T) {
	tab := genTable(t, Config{Seed: 70, Trials: 400, MeanEvents: 120, Dispersion: 2}, 5000)
	path := filepath.Join(t.TempDir(), "golden.yet")
	if err := WriteFile(path, tab); err != nil {
		t.Fatal(err)
	}
	mapped, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	hash := func(tab *Table) string {
		h := fnv.New64a()
		n, err := tab.WriteTo(h)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%016x/%d", h.Sum64(), n)
	}
	for _, tc := range []struct {
		name string
		tab  *Table
		want string
	}{
		{"heap", tab, "a150e5379620d2f4/194604"},
		{"slice", tab.Slice(37, 251), "257bd08f43e1cee1/104256"},
		{"mapped", mapped, "a150e5379620d2f4/194604"},
		{"mapped slice", mapped.Slice(37, 251), "257bd08f43e1cee1/104256"},
	} {
		if got := hash(tc.tab); got != tc.want {
			t.Errorf("%s: WriteTo bytes = %s, want %s", tc.name, got, tc.want)
		}
	}
}
