package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/server"
	"github.com/ralab/are/internal/spec"
)

// momentTol is the relative tolerance on online moments (the documented
// guarantee is ~1e-12 for a merged cluster result; single-node results are
// in practice bitwise).
const momentTol = 1e-9

// oracle rebuilds results through server.RunLocal on a cache the benchmark
// owns, so nothing the service cached can vouch for itself.
type oracle struct{ cache *artifact.Cache }

func newOracle() *oracle { return &oracle{cache: artifact.NewCache(0)} }

// check holds one served result to the oracle's.
func (o *oracle) check(d *served) error {
	js, err := spec.ParseJob(bytes.NewReader(d.body))
	if err != nil {
		return err
	}
	want, _, err := server.RunLocal(context.Background(), o.cache, js)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if err := sameResult(d.res, want); err != nil {
		return fmt.Errorf("job %s: oracle: %w", d.id, err)
	}
	return nil
}

// sameResult compares two results of one spec: quotes bitwise; trials, min
// and max exact; mean and standard deviation within momentTol. Exceedance
// points come from quantile sketches whose compaction depends on arrival
// order, and carry their own documented rank bound; they are not compared.
func sameResult(got, want *server.JobResult) error {
	if got.Trials != want.Trials {
		return fmt.Errorf("trials %d, want %d", got.Trials, want.Trials)
	}
	if err := sameLayers(got.Layers, want.Layers); err != nil {
		return err
	}
	if len(got.Variants) != len(want.Variants) {
		return fmt.Errorf("%d variants, want %d", len(got.Variants), len(want.Variants))
	}
	for k := range got.Variants {
		if err := sameLayers(got.Variants[k].Layers, want.Variants[k].Layers); err != nil {
			return fmt.Errorf("variant %d: %w", k, err)
		}
	}
	return nil
}

func sameLayers(got, want []server.LayerResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d layers, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if (g.Quote == nil) != (w.Quote == nil) || (g.Quote != nil && *g.Quote != *w.Quote) {
			return fmt.Errorf("layer %d quote differs", g.ID)
		}
		for _, p := range [][2]server.SummaryJSON{{g.Summary, w.Summary}, {g.OccSummary, w.OccSummary}} {
			a, b := p[0], p[1]
			if a.Trials != b.Trials || a.Min != b.Min || a.Max != b.Max {
				return fmt.Errorf("layer %d summary trials/min/max differ", g.ID)
			}
			if !nearly(a.Mean, b.Mean) || !nearly(a.StdDev, b.StdDev) {
				return fmt.Errorf("layer %d moments differ beyond %g", g.ID, momentTol)
			}
		}
	}
	return nil
}

func nearly(a, b float64) bool {
	return a == b || math.Abs(a-b) <= momentTol*math.Max(math.Abs(a), math.Abs(b))
}

// canonical re-encodes a result with its per-run fields cleared: id and
// elapsedMs, and the cluster's scheduling facts (which say who ran a shard,
// not what it computed). encoding/json round-trips float64 exactly, so
// equal canonical forms mean equal numbers bit for bit.
func canonical(res *server.JobResult) ([]byte, error) {
	c := *res
	c.ID, c.ElapsedMS, c.Retried, c.WorkersUsed = "", 0, 0, 0
	return json.Marshal(&c)
}

// verifyService checks a loop's results. Every repeat of one request body
// must agree with the first (sameResult), and byte for byte in canonical
// form when exact is set: a job run by one engine worker is deterministic
// to the last bit, while two workers feed the online moments in arrival
// order, which moves their last digits from run to run. The first job and
// one drawn by the seed must also match the oracle. It returns the number
// of jobs that failed a check and the first failure.
func verifyService(o *oracle, done []*served, seed uint64, exact bool) (failed int, first error) {
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	firstOf := make(map[string]*served)
	for _, d := range done {
		prev, ok := firstOf[string(d.body)]
		if !ok {
			firstOf[string(d.body)] = d
			continue
		}
		err := sameResult(d.res, prev.res)
		if err == nil && exact {
			a, aerr := canonical(prev.res)
			b, berr := canonical(d.res)
			if aerr != nil || berr != nil || !bytes.Equal(a, b) {
				err = fmt.Errorf("result body differs")
			}
		}
		if err != nil {
			fail(fmt.Errorf("job %s: repeat of %s: %w", d.id, prev.id, err))
		}
	}
	if len(done) == 0 {
		return failed, first
	}
	picks := []int{0}
	if len(done) > 1 {
		picks = append(picks, 1+rand.New(rand.NewSource(int64(seed))).Intn(len(done)-1))
	}
	for _, i := range picks {
		if err := o.check(done[i]); err != nil {
			fail(err)
		}
	}
	return failed, first
}
