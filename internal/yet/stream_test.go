package yet

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func serialise(t *testing.T, tab *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReaderBatchesMatchTable(t *testing.T) {
	tab := genTable(t, Config{Seed: 31, Trials: 57, MeanEvents: 20}, 1000)
	data := serialise(t, tab)
	for _, batch := range []int{1, 5, 57, 100} {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if rd.NumTrials() != 57 {
			t.Fatalf("NumTrials = %d", rd.NumTrials())
		}
		idx := 0
		for !rd.Done() {
			if rd.Offset() != idx {
				t.Fatalf("Offset = %d, want %d", rd.Offset(), idx)
			}
			got, err := rd.ReadBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < got.NumTrials(); i++ {
				want := tab.TrialEvents(idx + i)
				have := got.TrialEvents(i)
				if len(want) != len(have) {
					t.Fatalf("trial %d length mismatch", idx+i)
				}
				for j := range want {
					if want[j] != have[j] {
						t.Fatalf("trial %d occurrence %d differs", idx+i, j)
					}
				}
			}
			idx += got.NumTrials()
		}
		if idx != 57 {
			t.Fatalf("streamed %d trials", idx)
		}
		if _, err := rd.ReadBatch(batch); err != io.EOF {
			t.Fatalf("post-EOF ReadBatch err = %v", err)
		}
	}
}

func TestReaderRejectsCorruptHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	tab := genTable(t, Config{Seed: 32, Trials: 3, FixedEvents: 2}, 10)
	data := serialise(t, tab)
	data[4] = 9 // version
	if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
}

func TestReaderRejectsTruncatedPayload(t *testing.T) {
	tab := genTable(t, Config{Seed: 33, Trials: 8, FixedEvents: 4}, 100)
	data := serialise(t, tab)
	rd, err := NewReader(bytes.NewReader(data[:len(data)-8]))
	if err != nil {
		t.Fatal(err) // header + bounds are intact
	}
	for {
		_, err = rd.ReadBatch(4)
		if err != nil {
			break
		}
	}
	if errors.Is(err, io.EOF) || err == nil {
		t.Fatalf("truncated payload not detected: %v", err)
	}
}

func TestReaderBadBatchSize(t *testing.T) {
	tab := genTable(t, Config{Seed: 34, Trials: 2, FixedEvents: 2}, 10)
	rd, err := NewReader(bytes.NewReader(serialise(t, tab)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.ReadBatch(0); err == nil {
		t.Fatal("zero batch accepted")
	}
}
