package chaostest

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/server"
	"github.com/ralab/are/internal/spec"
)

// oracle computes and caches the expected result for every distinct job
// spec in the run — an in-process single-node execution through the
// exact code path the service's scheduler uses (server.RunLocal). Every
// result the cluster serves is rendered from a YLT that is bitwise the
// oracle's — filled by one worker's pass, or reassembled by the
// coordinator from shards — so every reported float must be bitwise
// identical, whichever process ran the job and at whatever engine
// worker count.
type oracle struct {
	cache *artifact.Cache

	mu   sync.Mutex
	runs map[string]*server.JobResult
}

func newOracle() *oracle {
	return &oracle{cache: artifact.NewCache(64), runs: make(map[string]*server.JobResult)}
}

// run returns the expected result for specJSON, computing it on first
// use.
func (o *oracle) run(specJSON string) (*server.JobResult, error) {
	o.mu.Lock()
	r, ok := o.runs[specJSON]
	o.mu.Unlock()
	if ok {
		return r, nil
	}
	js, err := spec.ParseJob(strings.NewReader(specJSON))
	if err != nil {
		return nil, fmt.Errorf("oracle: parse: %w", err)
	}
	r, _, err = server.RunLocal(context.Background(), o.cache, js)
	if err != nil {
		return nil, fmt.Errorf("oracle: run: %w", err)
	}
	o.mu.Lock()
	o.runs[specJSON] = r
	o.mu.Unlock()
	return r, nil
}

// eqF is bitwise float equality with NaN==NaN, so a comparison never
// passes or fails by NaN accident.
func eqF(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func eqSummary(got, want server.SummaryJSON) error {
	if got != want { // struct of comparable floats+int; NaN impossible in summaries
		return fmt.Errorf("summary %+v != %+v", got, want)
	}
	return nil
}

func eqPoints(got, want []server.PointJSON) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d EP points, want %d", len(got), len(want))
	}
	for i := range got {
		if !eqF(got[i].ReturnPeriod, want[i].ReturnPeriod) || !eqF(got[i].Prob, want[i].Prob) || !eqF(got[i].Loss, want[i].Loss) {
			return fmt.Errorf("EP point %d: %+v != %+v", i, got[i], want[i])
		}
	}
	return nil
}

func eqQuote(got, want *server.QuoteJSON) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("quote presence: got %v, want %v", got != nil, want != nil)
	}
	if got == nil {
		return nil
	}
	ok := eqF(got.ExpectedLoss, want.ExpectedLoss) && eqF(got.StdDev, want.StdDev) &&
		eqF(got.RiskLoad, want.RiskLoad) && eqF(got.ExpenseLoad, want.ExpenseLoad) &&
		eqF(got.TechnicalPremium, want.TechnicalPremium) && eqF(got.RateOnLine, want.RateOnLine) &&
		eqF(got.PML100, want.PML100) && eqF(got.TVaR99, want.TVaR99)
	if !ok {
		return fmt.Errorf("quote %+v != %+v", *got, *want)
	}
	return nil
}

// eqLayerExact holds one layer to the oracle's: every field bitwise.
func eqLayerExact(got, want server.LayerResult) error {
	if got.ID != want.ID || got.Name != want.Name {
		return fmt.Errorf("layer identity %d/%q != %d/%q", got.ID, got.Name, want.ID, want.Name)
	}
	if err := eqSummary(got.Summary, want.Summary); err != nil {
		return fmt.Errorf("agg %w", err)
	}
	if err := eqSummary(got.OccSummary, want.OccSummary); err != nil {
		return fmt.Errorf("occ %w", err)
	}
	if err := eqPoints(got.EP, want.EP); err != nil {
		return fmt.Errorf("AEP: %w", err)
	}
	if err := eqPoints(got.OEP, want.OEP); err != nil {
		return fmt.Errorf("OEP: %w", err)
	}
	return eqQuote(got.Quote, want.Quote)
}

// verifySingleNode holds a worker-direct job's result to bitwise
// identity with the oracle, and to carrying no cluster fields.
func (o *oracle) verifySingleNode(specJSON string, got *server.JobResult) error {
	if got.Shards != 0 || got.Retried != 0 || got.WorkersUsed != 0 {
		return fmt.Errorf("single-node result reports cluster fields: %+v", got)
	}
	return o.verifyExact(specJSON, got)
}

// verifyDistributed holds a coordinator job's result to the same
// bitwise identity, and to having really been sharded.
func (o *oracle) verifyDistributed(specJSON string, got *server.JobResult) error {
	if got.Shards <= 0 {
		return fmt.Errorf("distributed result reports %d shards", got.Shards)
	}
	return o.verifyExact(specJSON, got)
}

// verifyExact holds a result to bitwise identity with the oracle,
// variants included.
func (o *oracle) verifyExact(specJSON string, got *server.JobResult) error {
	w, err := o.run(specJSON)
	if err != nil {
		return err
	}
	if got.Trials != w.Trials {
		return fmt.Errorf("trials %d != %d", got.Trials, w.Trials)
	}
	if len(got.Layers) != len(w.Layers) {
		return fmt.Errorf("%d layers, want %d", len(got.Layers), len(w.Layers))
	}
	for i := range got.Layers {
		if err := eqLayerExact(got.Layers[i], w.Layers[i]); err != nil {
			return fmt.Errorf("layer %d: %w", i, err)
		}
	}
	if len(got.Variants) != len(w.Variants) {
		return fmt.Errorf("%d variants, want %d", len(got.Variants), len(w.Variants))
	}
	for k := range got.Variants {
		gv, wv := got.Variants[k], w.Variants[k]
		if gv.Index != wv.Index || gv.Name != wv.Name {
			return fmt.Errorf("variant %d identity %d/%q != %d/%q", k, gv.Index, gv.Name, wv.Index, wv.Name)
		}
		if len(gv.Layers) != len(wv.Layers) {
			return fmt.Errorf("variant %d: %d layers, want %d", k, len(gv.Layers), len(wv.Layers))
		}
		for i := range gv.Layers {
			if err := eqLayerExact(gv.Layers[i], wv.Layers[i]); err != nil {
				return fmt.Errorf("variant %d layer %d: %w", k, i, err)
			}
		}
	}
	return nil
}
