package chaostest

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"github.com/ralab/are/internal/spec"
)

// jobGen produces the chaos corpus: randomized but always-valid job
// specs, rendered to canonical JSON (struct-ordered json.Marshal), so a
// spec in the trace is exactly the bytes the executor submits. Every
// generated spec round-trips spec.ParseJob — the generator's unit test
// pins that, and the sweep-variant edge cases the corpus skirts
// (0/64/65 variants, duplicate overrides) are pinned as table-driven
// tests in internal/spec.
type jobGen struct {
	rng       *rand.Rand
	maxTrials int
}

func newJobGen(rng *rand.Rand, maxTrials int) *jobGen {
	return &jobGen{rng: rng, maxTrials: maxTrials}
}

// lookups a chaos job may request. "combined" is excluded from sweep
// specs that scale participation (the service rejects that pairing by
// design), which the sweep generator handles by only overriding layer
// terms under "combined".
var chaosLookups = []string{"direct", "sorted", "hash", "cuckoo", "combined"}

func (g *jobGen) portfolio() *spec.File {
	r := g.rng
	catalog := []int{8000, 15000}[r.Intn(2)]
	nELT := 1 + r.Intn(3)
	f := &spec.File{CatalogSize: catalog}
	for i := 0; i < nELT; i++ {
		f.ELTs = append(f.ELTs, spec.ELTSpec{
			ID: uint32(i + 1),
			Generate: &spec.GenerateSpec{
				Seed:       r.Uint64() % 1_000_000,
				NumRecords: 300 + r.Intn(900),
			},
		})
	}
	nLayer := 1 + r.Intn(2)
	for i := 0; i < nLayer; i++ {
		var covers []uint32
		for id := 1; id <= nELT; id++ {
			if r.Intn(2) == 0 {
				covers = append(covers, uint32(id))
			}
		}
		if len(covers) == 0 {
			covers = []uint32{uint32(1 + r.Intn(nELT))}
		}
		terms := &spec.LayerTermsSpec{
			OccRetention: float64(10+r.Intn(190)) * 1e3,
		}
		if r.Intn(4) > 0 {
			lim := spec.Limit(float64(1+r.Intn(5)) * 1e6)
			terms.OccLimit = &lim
		}
		if r.Intn(3) == 0 {
			terms.AggRetention = float64(r.Intn(200)) * 1e3
		}
		f.Layers = append(f.Layers, spec.LayerSpec{
			ID:    uint32(i + 1),
			Name:  fmt.Sprintf("chaos-l%d", i+1),
			ELTs:  covers,
			Terms: terms,
		})
	}
	return f
}

func (g *jobGen) base(quoted bool) *spec.Job {
	r := g.rng
	j := &spec.Job{
		Portfolio: g.portfolio(),
		YET: spec.YETSpec{
			Seed:       r.Uint64() % 1_000_000,
			Trials:     200 + r.Intn(g.maxTrials-199),
			MeanEvents: float64(10 + r.Intn(30)),
		},
		// Workers pinned to 1 bounds each job's CPU share on a cluster of
		// several daemons. Results do not depend on it: every number
		// renders from the trial-indexed YLT.
		Workers: 1,
		Lookup:  chaosLookups[r.Intn(len(chaosLookups))],
	}
	if quoted {
		j.Metrics.Quotes = true
	}
	switch r.Intn(3) {
	case 0:
		j.Metrics.ReturnPeriods = []float64{10, 25, 50, 100}
	case 1:
		j.Metrics.ReturnPeriods = []float64{5, 50, 500}
	}
	g.uncertainty(j)
	return j
}

// uncertainty decorates part of the corpus with secondary uncertainty.
// A third of jobs become sampled: every generated table gains a sigma
// and the job carries a sampled uncertainty block. The service rejects
// sampled jobs under lookup=combined (the fold bakes mean losses into
// one table), so those re-roll onto a point-lookup kind — chaos submits
// only specs the service accepts. A further sixth keep the sigma tables
// but price in explicit mean mode, which is legal under every lookup
// and must behave exactly like the omitted block.
func (g *jobGen) uncertainty(j *spec.Job) {
	r := g.rng
	switch r.Intn(6) {
	case 0, 1:
		for i := range j.Portfolio.ELTs {
			j.Portfolio.ELTs[i].Generate.Sigma = 0.5 + 0.1*float64(r.Intn(9))
		}
		j.Uncertainty = &spec.UncertaintySpec{Mode: "sampled", Seed: r.Uint64() % 1000}
		if j.Lookup == "combined" {
			j.Lookup = chaosLookups[r.Intn(len(chaosLookups)-1)]
		}
	case 2:
		for i := range j.Portfolio.ELTs {
			j.Portfolio.ELTs[i].Generate.Sigma = 0.4 + 0.1*float64(r.Intn(8))
		}
		j.Uncertainty = &spec.UncertaintySpec{Mode: "mean"}
	}
}

// render validates and marshals; an invalid generated spec is a harness
// bug, surfaced as a panic at generation time (long before processes
// spawn).
func (g *jobGen) render(j *spec.Job) string {
	if err := j.Validate(); err != nil {
		panic(fmt.Sprintf("chaostest: generated invalid job spec: %v", err))
	}
	b, err := json.Marshal(j)
	if err != nil {
		panic(fmt.Sprintf("chaostest: marshal job spec: %v", err))
	}
	if _, err := spec.ParseJob(strings.NewReader(string(b))); err != nil {
		panic(fmt.Sprintf("chaostest: generated spec does not round-trip ParseJob: %v", err))
	}
	return string(b)
}

// plain produces a plain (optionally quoted) job spec.
func (g *jobGen) plain(quoted bool) string {
	return g.render(g.base(quoted))
}

// sweep produces a scenario-sweep job spec: a base portfolio plus 2-5
// variants mixing layer-term overrides and participation scales.
func (g *jobGen) sweep() string {
	r := g.rng
	j := g.base(r.Intn(2) == 0)
	n := 2 + r.Intn(4)
	sw := &spec.SweepSpec{}
	sw.Variants = append(sw.Variants, spec.VariantSpec{Name: "base"})
	for i := 1; i < n; i++ {
		v := spec.VariantSpec{Name: fmt.Sprintf("v%d", i)}
		switch r.Intn(3) {
		case 0:
			ret := float64(50+r.Intn(300)) * 1e3
			v.OccRetention = &ret
		case 1:
			lim := spec.Limit(float64(1+r.Intn(3)) * 1e6)
			v.OccLimit = &lim
		default:
			if j.Lookup == "combined" {
				// Share scaling under the folded representation is
				// rejected by the service; override a retention instead.
				ret := float64(25+r.Intn(100)) * 1e3
				v.OccRetention = &ret
			} else {
				v.ParticipationScale = 0.4 + 0.1*float64(r.Intn(6))
			}
		}
		sw.Variants = append(sw.Variants, v)
	}
	j.Sweep = sw
	return g.render(j)
}
