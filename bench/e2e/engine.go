package main

import (
	"bytes"
	"fmt"
	"time"

	are "github.com/ralab/are"
)

// paperRig is engine.paper's system under test: the library alone, reached
// only through the public are.* facade, as a program embedding the engine
// would use it.
type paperRig struct {
	js      *are.JobSpec
	p       *are.Portfolio
	catalog int
	eng     *are.Engine
	y       *are.YET
}

// newPaperRig is the workload's set-up: parse the job, generate the ELTs,
// compile the direct tables, generate the YET.
func newPaperRig(body []byte) (*paperRig, error) {
	js, err := are.ParseJobSpec(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	r := &paperRig{js: js}
	if r.p, r.catalog, err = js.BuildPortfolio(); err != nil {
		return nil, err
	}
	if r.eng, err = are.NewEngine(r.p, r.catalog, are.LookupDirect); err != nil {
		return nil, err
	}
	r.y, err = are.GenerateYET(are.UniformEvents(r.catalog), js.YET.ToConfig())
	return r, err
}

// libJob is one library job's output: the full result and the figures an
// analyst reads off its exceedance curve.
type libJob struct {
	res         *are.Result
	pml100      float64
	tvar99      float64
	t0, tEnd    time.Time
	run, ep, rd time.Duration // Run, NewEPCurve, PML+TVaR
	traced      bool
}

func (j *libJob) ms() float64 { return float64(j.tEnd.Sub(j.t0)) / 1e6 }

// job is one analysis: Run into a full YLT, build the exceedance curve,
// read PML(100) and TVaR(99%).
func (r *paperRig) job() (*libJob, error) {
	j := &libJob{t0: time.Now()}
	var err error
	if j.res, err = r.eng.Run(r.y, are.Options{Workers: nproc()}); err != nil {
		return nil, err
	}
	t1 := time.Now()
	curve, err := are.NewEPCurve(j.res.YLT(0))
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	if j.pml100, err = curve.PML(100); err != nil {
		return nil, err
	}
	if j.tvar99, err = curve.TVaR(0.99); err != nil {
		return nil, err
	}
	j.tEnd = time.Now()
	j.run, j.ep, j.rd = t1.Sub(j.t0), t2.Sub(t1), j.tEnd.Sub(t2)
	return j, nil
}

// trace adds the job's span tree; the three children tile the job.
func (j *libJob) trace(tr *tracer, n int) {
	id := fmt.Sprintf("lib-%06d", n)
	job := tr.add("job", 0, id, j.t0, j.tEnd)
	t1, t2 := j.t0.Add(j.run), j.t0.Add(j.run+j.ep)
	tr.add("core.run", job, id, j.t0, t1)
	tr.add("metrics.epcurve", job, id, t1, t2)
	tr.add("metrics.read", job, id, t2, j.tEnd)
}

// loop is the library's measured loop: jobs back to back for about dur;
// with a tracer every second job records its spans.
func (r *paperRig) loop(dur time.Duration, tr *tracer) *measured {
	l := &measured{}
	start := time.Now()
	for {
		l.attempted++
		j, err := r.job()
		if err != nil {
			l.errs = append(l.errs, err)
			if len(l.errs) >= maxFailures {
				break
			}
		} else {
			if j.traced = tr != nil && l.attempted%2 == 0; j.traced {
				j.trace(tr, l.attempted)
			}
			l.lib = append(l.lib, j)
		}
		if l.attempted >= minRounds(tr) && time.Since(start) >= dur {
			break
		}
	}
	l.wall = time.Since(start)
	return l
}

// verify holds the first refTrials trials of the first job bitwise to
// core.Reference, and every later job bitwise to the first.
func (r *paperRig) verify(done []*libJob, refTrials int) (failed int, first error) {
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	if len(done) == 0 {
		return 0, nil
	}
	n := min(refTrials, r.y.NumTrials())
	ref, err := are.Reference(r.p, r.y.Slice(0, n), r.catalog)
	if err != nil {
		return 1, fmt.Errorf("reference: %w", err)
	}
	head := done[0].res
	for l := range ref.AggLoss {
		for t := 0; t < n; t++ {
			if head.AggLoss[l][t] != ref.AggLoss[l][t] || head.MaxOccLoss[l][t] != ref.MaxOccLoss[l][t] {
				fail(fmt.Errorf("layer %d trial %d differs from core.Reference", l, t))
				break
			}
		}
	}
	for i, j := range done[1:] {
		same := j.pml100 == done[0].pml100 && j.tvar99 == done[0].tvar99
		for l := 0; same && l < len(head.AggLoss); l++ {
			for t := range head.AggLoss[l] {
				if j.res.AggLoss[l][t] != head.AggLoss[l][t] {
					same = false
					break
				}
			}
		}
		if !same {
			fail(fmt.Errorf("library job %d differs from the first run of the same spec", i+1))
		}
	}
	return failed, first
}
