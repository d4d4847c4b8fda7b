package yet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestGenerateEventOrderGolden pins the event order Generate produces.
// A trial's timestamps only decide the order of its events, and that
// order fixes every kernel's summation order, so these hashes are the
// bitwise contract of the generator: FNV-64a over each event as a
// little-endian uint32, then the trial length as a little-endian uint64.
func TestGenerateEventOrderGolden(t *testing.T) {
	for _, tc := range []struct {
		src  EventSource
		cfg  Config
		want string
	}{
		{UniformSource(1000), Config{Seed: 1, Trials: 500, MeanEvents: 100}, "e19d05fd6d73d72d"},
		{UniformSource(1000), Config{Seed: 2, Trials: 300, FixedEvents: 64}, "1e43771a2bd5c905"},
		{UniformSource(1000), Config{Seed: 3, Trials: 300, MeanEvents: 80, Dispersion: 3}, "991ed7e81cbf3c14"},
		{perilTestSource{n: 100}, Config{Seed: 4, Trials: 300, MeanEvents: 50, Seasonal: true}, "20547670be0dc76b"},
		{UniformSource(100), Config{Seed: 5, Trials: 300, MeanEvents: 40, Seasonal: true}, "d2fb4f225c1890d9"},
	} {
		tab, err := Generate(tc.src, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		for i := 0; i < tab.NumTrials(); i++ {
			for _, ev := range tab.TrialEvents(i) {
				binary.LittleEndian.PutUint32(b[:4], ev)
				h.Write(b[:4])
			}
			binary.LittleEndian.PutUint64(b[:], uint64(tab.TrialLen(i)))
			h.Write(b[:])
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
			t.Errorf("%+v: event order hash = %s, want %s", tc.cfg, got, tc.want)
		}
	}
}
