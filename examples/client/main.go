// Command client drives the ared analysis service end to end over its
// HTTP JSON API: it submits two jobs that share one Year Event Table
// spec, watches their progress, fetches both results, shows that the
// second job reused the service's cached YET, and cross-checks the
// returned metrics against the same analysis run directly through the
// are library.
//
// By default it spins up an in-process ared so the example is
// self-contained:
//
//	go run ./examples/client
//
// Point it at a running daemon (go run ./cmd/ared) instead with:
//
//	go run ./examples/client -addr http://localhost:8321
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	are "github.com/ralab/are"
	"github.com/ralab/are/internal/server"
)

// yetSpec is the shared Year Event Table both jobs describe: identical
// content hash, so the service generates the table once.
const yetSpec = `{"seed": 9, "trials": 20000, "meanEvents": 100}`

// jobJSON builds a job request for a one-layer portfolio with the given
// occurrence retention; varying the retention makes the two jobs
// genuinely different analyses that still share the YET artifact.
func jobJSON(occRetention float64) string {
	return fmt.Sprintf(`{
  "portfolio": {
    "catalogSize": 100000,
    "elts": [
      {"id": 1, "generate": {"seed": 21, "numRecords": 10000}},
      {"id": 2, "generate": {"seed": 22, "numRecords": 10000}}
    ],
    "layers": [
      {"id": 1, "name": "cat-xl", "elts": [1, 2],
       "terms": {"occRetention": %g, "occLimit": 5e6}}
    ]
  },
  "yet": %s,
  "metrics": {"quotes": true}
}`, occRetention, yetSpec)
}

func main() {
	addr := flag.String("addr", "", "ared base URL (empty = start an in-process server)")
	flag.Parse()

	base := *addr
	if base == "" {
		srv, err := server.New(server.Config{JobWorkers: 2})
		if err != nil {
			panic(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
		fmt.Printf("started in-process ared at %s\n", base)
	}

	specs := []string{jobJSON(2e5), jobJSON(8e5)}
	ids := make([]string, len(specs))
	for i, body := range specs {
		st := submit(base, body)
		ids[i] = st.ID
		fmt.Printf("submitted job %s (%s)\n", st.ID, st.State)
	}

	for _, id := range ids {
		st := await(base, id)
		fmt.Printf("job %s: %s after %d/%d trials\n", id, st.State, st.TrialsDone, st.TotalTrials)
		if st.State != "done" {
			fail(fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error))
		}
	}

	results := make([]jobResult, len(ids))
	for i, id := range ids {
		results[i] = fetchResult(base, id)
		r := results[i]
		l := r.Layers[0]
		fmt.Printf("\njob %s (%s): %d trials in %d ms, yetCached=%v engineCached=%v\n",
			r.ID, l.Name, r.Trials, r.ElapsedMS, r.YETCached, r.EngineCached)
		fmt.Printf("  AAL %.4g  stddev %.4g  premium %.4g  RoL %.4f\n",
			l.Summary.Mean, l.Summary.StdDev, l.Quote.TechnicalPremium, l.Quote.RateOnLine)
		for _, pt := range l.EP {
			if pt.ReturnPeriod == 100 || pt.ReturnPeriod == 250 {
				fmt.Printf("  PML(%.0fy) %.4g\n", pt.ReturnPeriod, pt.Loss)
			}
		}
	}
	if !results[0].YETCached && !results[1].YETCached {
		fail(fmt.Errorf("expected at least one job to reuse the cached YET"))
	}
	fmt.Println("\nshared-artifact cache: the jobs shared one generated YET ✓")

	// Cross-check job 2 against the same analysis run directly in
	// process through the are library.
	fmt.Println("\ncross-checking against a direct library run...")
	verify(specs[1], results[1])
	fmt.Println("service results match the direct run ✓")
}

// verify re-runs jobSpec through the public library API and compares the
// service's answer exactly: both paths materialise the bitwise-identical
// YLT, and the service renders every figure from it.
func verify(jobSpec string, got jobResult) {
	j, err := are.ParseJobSpec(strings.NewReader(jobSpec))
	if err != nil {
		fail(err)
	}
	p, catalogSize, err := j.BuildPortfolio()
	if err != nil {
		fail(err)
	}
	yet, err := are.GenerateYET(are.UniformEvents(catalogSize), j.YET.ToConfig())
	if err != nil {
		fail(err)
	}
	eng, err := are.NewEngine(p, catalogSize, are.LookupDirect)
	if err != nil {
		fail(err)
	}
	res, err := eng.Run(yet, are.Options{})
	if err != nil {
		fail(err)
	}
	ylt := res.YLT(0)
	sum, err := are.Summarise(ylt)
	if err != nil {
		fail(err)
	}
	q, err := are.Price(ylt, are.PricingConfig{OccLimit: p.Layers[0].LTerms.OccLimit})
	if err != nil {
		fail(err)
	}
	l := got.Layers[0]
	check("trials", float64(l.Summary.Trials), float64(sum.Trials))
	check("AAL", l.Summary.Mean, sum.Mean)
	check("stddev", l.Summary.StdDev, sum.StdDev)
	check("premium", l.Quote.TechnicalPremium, q.TechnicalPremium)
	check("TVaR99", l.Quote.TVaR99, q.TVaR99)
	curve, err := are.NewEPCurve(ylt)
	if err != nil {
		fail(err)
	}
	for _, pt := range l.EP {
		if pt.ReturnPeriod != 100 {
			continue
		}
		exact, err := curve.PML(100)
		if err != nil {
			fail(err)
		}
		check("PML(100y)", pt.Loss, exact)
	}
}

func check(name string, got, want float64) {
	if got != want {
		fail(fmt.Errorf("%s: service %v vs direct %v", name, got, want))
	}
	fmt.Printf("  %-10s service %.6g  direct %.6g ok\n", name, got, want)
}

// ---------------------------------------------------------------------------
// Minimal API client.

type jobStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	TrialsDone  int    `json:"trialsDone"`
	TotalTrials int    `json:"totalTrials"`
	Error       string `json:"error"`
}

type jobResult struct {
	ID           string `json:"id"`
	Trials       int    `json:"trials"`
	ElapsedMS    int64  `json:"elapsedMs"`
	YETCached    bool   `json:"yetCached"`
	EngineCached bool   `json:"engineCached"`
	Layers       []struct {
		Name    string `json:"name"`
		Summary struct {
			Mean   float64 `json:"mean"`
			StdDev float64 `json:"stdDev"`
			Trials int     `json:"trials"`
		} `json:"summary"`
		EP []struct {
			ReturnPeriod float64 `json:"returnPeriod"`
			Loss         float64 `json:"loss"`
		} `json:"ep"`
		Quote struct {
			TechnicalPremium float64 `json:"technicalPremium"`
			RateOnLine       float64 `json:"rateOnLine"`
			TVaR99           float64 `json:"tvar99"`
		} `json:"quote"`
	} `json:"layers"`
}

func submit(base, body string) jobStatus {
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		fail(fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(b))))
	}
	var st jobStatus
	decode(resp.Body, &st)
	return st
}

func await(base, id string) jobStatus {
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			fail(err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			fail(fmt.Errorf("status of %s: %s: %s", id, resp.Status, strings.TrimSpace(string(b))))
		}
		var st jobStatus
		decode(resp.Body, &st)
		resp.Body.Close()
		switch st.State {
		case "done", "failed", "cancelled":
			return st
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func fetchResult(base, id string) jobResult {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		fail(fmt.Errorf("result: %s: %s", resp.Status, strings.TrimSpace(string(b))))
	}
	var r jobResult
	decode(resp.Body, &r)
	return r
}

func decode(r io.Reader, v any) {
	if err := json.NewDecoder(r).Decode(v); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "client:", err)
	os.Exit(1)
}
