package yet

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzRead feeds arbitrary bytes to both decoders of untrusted files:
// the heap reader and the page-cache mapping. Neither may panic, both
// must reject or both accept, and what they accept must be structurally
// sound and identical — bounds and events alike.
func FuzzRead(f *testing.F) {
	// Seed with a valid table and a few mutations.
	tab, err := Generate(UniformSource(100), Config{Seed: 1, Trials: 4, FixedEvents: 3})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("YETB"))
	f.Add([]byte{})
	f.Add(append(slices.Clone(valid), 0))
	old := slices.Clone(valid)
	binary.LittleEndian.PutUint32(old[4:8], 2)
	f.Add(old)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.yet")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(data))
		mapped, merr := Map(path)
		if (err == nil) != (merr == nil) {
			t.Fatalf("Read err = %v, Map err = %v", err, merr)
		}
		if err != nil {
			return
		}
		defer mapped.Close()
		// Accepted tables must be self-consistent and agree.
		n := got.NumTrials()
		if mapped.NumTrials() != n || mapped.NumOccurrences() != got.NumOccurrences() {
			t.Fatalf("Map shape %d/%d, Read shape %d/%d", mapped.NumTrials(), mapped.NumOccurrences(), n, got.NumOccurrences())
		}
		total := 0
		for i := 0; i < n; i++ {
			evs := got.TrialEvents(i) // must not panic
			total += len(evs)
			if mapped.TrialLen(i) != got.TrialLen(i) || !slices.Equal(mapped.TrialEvents(i), evs) {
				t.Fatalf("trial %d: Map and Read disagree", i)
			}
		}
		if total != got.NumOccurrences() {
			t.Fatalf("boundaries inconsistent: %d vs %d", total, got.NumOccurrences())
		}
	})
}
