package server

// The one result regime: every number a job reports is rendered from
// its YLT column, so a result is the same bytes at any engine worker
// count, solo or fused, and a quote agrees bitwise with the summary and
// EP points beside it.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/core"
	"github.com/ralab/are/internal/metrics"
	"github.com/ralab/are/internal/spec"
)

// quotedTwoLayerBody is a quoted two-layer job run by the given number
// of engine workers, with an optional sweep.
func quotedTwoLayerBody(workers int, sweep string) string {
	if sweep != "" {
		sweep = `, "sweep": ` + sweep
	}
	return fmt.Sprintf(`{
	  "portfolio": {
	    "catalogSize": 20000,
	    "elts": [
	      {"id": 1, "generate": {"seed": 31, "numRecords": 2000}},
	      {"id": 2, "generate": {"seed": 32, "numRecords": 2000}}
	    ],
	    "layers": [
	      {"id": 1, "name": "cat-xl-a", "elts": [1, 2],
	       "terms": {"occRetention": 1e5, "occLimit": 4e6}},
	      {"id": 2, "name": "cat-xl-b", "elts": [2],
	       "terms": {"occRetention": 5e4, "occLimit": 2e6, "aggRetention": 1e5}}
	    ]
	  },
	  "yet": {"seed": 8, "trials": 4000, "fixedEvents": 30},
	  "metrics": {"quotes": true},
	  "workers": %d%s
	}`, workers, sweep)
}

// canonicalResult encodes a result with its per-run fields cleared: the
// ID, the wall clock and whether the artifacts were already cached.
func canonicalResult(r JobResult) []byte {
	r.ID, r.ElapsedMS, r.YETCached, r.EngineCached = "", 0, false, false
	return encodeResultBytes(&r)
}

func TestQuotedResultBitwiseAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 2, runtime.NumCPU()}
	const sweep = `{"variants": [
	  {"name": "base"},
	  {"name": "hi-attach", "occRetention": 2e5},
	  {"name": "lo-limit", "occLimit": 1e6}
	]}`
	runLocal := func(body string) (*JobResult, []byte, *core.Result) {
		js, err := spec.ParseJob(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res, full, err := RunLocal(context.Background(), artifact.NewCache(8), js)
		if err != nil {
			t.Fatal(err)
		}
		return res, canonicalResult(*res), full
	}
	local, want, full := runLocal(quotedTwoLayerBody(1, ""))
	_, wantSweep, _ := runLocal(quotedTwoLayerBody(1, sweep))

	// Solo: every worker count, three repeats each, plain and swept.
	_, ts := testServer(t, Config{JobWorkers: 1, FuseWait: -1})
	for _, w := range workerCounts {
		for rep := 0; rep < 3; rep++ {
			for _, c := range []struct {
				sweep string
				want  []byte
			}{{"", want}, {sweep, wantSweep}} {
				st, _ := postJob(t, ts, quotedTwoLayerBody(w, c.sweep))
				if fin := waitState(t, ts, st.ID, JobDone, JobFailed); fin.State != string(JobDone) {
					t.Fatalf("workers=%d: %s (%s)", w, fin.State, fin.Error)
				}
				res, _ := getResult(t, ts, st.ID)
				if got := canonicalResult(*res); !bytes.Equal(got, c.want) {
					t.Fatalf("workers=%d repeat %d sweep=%v differs from RunLocal:\n got  %s\n want %s", w, rep, c.sweep != "", got, c.want)
				}
			}
		}
	}

	// Fused: the worker count is not in the fuse key, so the three jobs
	// share one pass, and each renders its solo bytes.
	_, fts := testServer(t, Config{JobWorkers: 1, FuseWait: 300 * time.Millisecond})
	blocker, _ := postJob(t, fts, blockerBody())
	ids := make([]string, len(workerCounts))
	for i, w := range workerCounts {
		st, resp := postJob(t, fts, quotedTwoLayerBody(w, ""))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit workers=%d: %d", w, resp.StatusCode)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		fin := waitState(t, fts, id, JobDone, JobFailed)
		if fin.State != string(JobDone) {
			t.Fatalf("fused workers=%d: %s (%s)", workerCounts[i], fin.State, fin.Error)
		}
		if !fin.Fused || fin.FusedBatch != len(ids) {
			t.Fatalf("workers=%d: fused=%v batch=%d, want a fused batch of %d", workerCounts[i], fin.Fused, fin.FusedBatch, len(ids))
		}
		res, _ := getResult(t, fts, id)
		if got := canonicalResult(*res); !bytes.Equal(got, want) {
			t.Fatalf("fused workers=%d differs from solo:\n got  %s\n want %s", workerCounts[i], got, want)
		}
	}
	waitState(t, fts, blocker.ID, JobDone)

	// Within the result: the quote reads the same moments and the same
	// sorted curve as the summary and EP points, and both are exactly
	// Summarise and EPCurve over RunLocal's YLT.
	for li, l := range local.Layers {
		if l.Quote == nil {
			t.Fatalf("layer %d: no quote", l.ID)
		}
		if l.Summary.Mean != l.Quote.ExpectedLoss || l.Summary.StdDev != l.Quote.StdDev {
			t.Fatalf("layer %d: summary %+v vs quote %+v", l.ID, l.Summary, *l.Quote)
		}
		pml100 := false
		for _, p := range l.EP {
			if p.ReturnPeriod == 100 {
				pml100 = true
				if p.Loss != l.Quote.PML100 {
					t.Fatalf("layer %d: ep@100 %v vs quote pml100 %v", l.ID, p.Loss, l.Quote.PML100)
				}
			}
		}
		if !pml100 {
			t.Fatalf("layer %d: no 100-year EP point", l.ID)
		}
		for _, c := range []struct {
			what   string
			losses []float64
			sum    SummaryJSON
			pts    []PointJSON
		}{
			{"agg", full.AggLoss[li], l.Summary, l.EP},
			{"occ", full.MaxOccLoss[li], l.OccSummary, l.OEP},
		} {
			sum, err := metrics.Summarise(c.losses)
			if err != nil {
				t.Fatal(err)
			}
			curve, err := metrics.NewEPCurve(c.losses)
			if err != nil {
				t.Fatal(err)
			}
			if c.sum != summaryJSON(sum) {
				t.Fatalf("layer %d %s: summary %+v, Summarise %+v", l.ID, c.what, c.sum, sum)
			}
			exact := pointsJSON(curve.Curve(nil))
			if len(c.pts) != len(exact) {
				t.Fatalf("layer %d %s: %d EP points, EPCurve %d", l.ID, c.what, len(c.pts), len(exact))
			}
			for i := range exact {
				if c.pts[i] != exact[i] {
					t.Fatalf("layer %d %s: point %+v, EPCurve %+v", l.ID, c.what, c.pts[i], exact[i])
				}
			}
		}
	}
}
