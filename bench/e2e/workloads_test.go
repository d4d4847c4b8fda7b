package main

import (
	"bytes"
	"testing"

	"github.com/ralab/are/internal/spec"
)

// bodies returns the first n request bodies of every client of a workload.
func bodies(w *workload, seed uint64, n int) [][]byte {
	s := newStream(w, gen{seed}, tinySizes)
	var out [][]byte
	for c := 0; c < w.clients; c++ {
		for i := 0; i < n; i++ {
			out = append(out, s.body(c))
		}
	}
	return out
}

func seedsOf(t *testing.T, body []byte) (elts []uint64, yet uint64) {
	t.Helper()
	js, err := spec.ParseJob(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("generated body does not parse: %v", err)
	}
	for _, e := range js.Portfolio.ELTs {
		elts = append(elts, e.Generate.Seed)
	}
	return elts, js.YET.Seed
}

func TestSameSeedGivesSameBodies(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := bodies(w, 7, 6), bodies(w, 7, 6)
		for k := range a {
			if !bytes.Equal(a[k], b[k]) {
				t.Errorf("%s: job %d differs between two streams of one seed", w.name, k)
			}
		}
	}
}

func TestDifferentSeedChangesELTAndYETSeeds(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		ea, ya := seedsOf(t, bodies(w, 7, 1)[0])
		eb, yb := seedsOf(t, bodies(w, 8, 1)[0])
		if ya == yb {
			t.Errorf("%s: YET seed did not change with the benchmark seed", w.name)
		}
		for k := range ea {
			if ea[k] == eb[k] {
				t.Errorf("%s: ELT %d's seed did not change with the benchmark seed", w.name, k)
			}
		}
	}
}

// Two service.small jobs that could sit in the queue together must never
// share a fuse key: the clients' YET seeds are disjoint, and each client's
// cycle is exactly the set the set-up warmed.
func TestSmallSeedsDisjointPerClient(t *testing.T) {
	w := findWorkload("service.small")
	s := newStream(w, gen{7}, tinySizes)
	owner := make(map[uint64]int)
	for c := 0; c < w.clients; c++ {
		seen := make(map[uint64]bool)
		for i := 0; i < 3*w.cycle; i++ {
			_, y := seedsOf(t, s.body(c))
			if prev, ok := owner[y]; ok && prev != c {
				t.Fatalf("YET seed %d used by clients %d and %d", y, prev, c)
			}
			owner[y] = c
			seen[y] = true
		}
		if len(seen) != w.cycle {
			t.Errorf("client %d cycles %d YET seeds, want %d", c, len(seen), w.cycle)
		}
	}
}

// service.cold must never present the service with a seed it has seen, the
// warming job included.
func TestColdSeedsNeverRepeat(t *testing.T) {
	w := findWorkload("service.cold")
	seenELT, seenYET := make(map[uint64]bool), make(map[uint64]bool)
	for k, body := range bodies(w, 7, 40) {
		elts, y := seedsOf(t, body)
		if seenYET[y] {
			t.Fatalf("job %d repeats a YET seed", k)
		}
		seenYET[y] = true
		for _, e := range elts {
			if seenELT[e] {
				t.Fatalf("job %d repeats an ELT seed", k)
			}
			seenELT[e] = true
		}
	}
}

func TestLookupsCountsOccurrenceELTPairs(t *testing.T) {
	js := midJob(gen{1}, fullSizes, 0, 1)
	if got := lookups(js); got != 18_000_000 {
		t.Errorf("mid job prices %d lookups, want 18M (2M occurrences x (6+3) ELTs)", got)
	}
}
