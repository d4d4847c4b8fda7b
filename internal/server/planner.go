package server

// The admission planner: when a worker slot frees, nextBatch pops the
// head of the queue and scans the remainder for jobs that can share the
// head's gather pass. Compatibility is a single key equality — the
// fuse key hashes everything two jobs must agree on to price in one
// SweepEngine pass over one cached table:
//
//   - the base portfolio spec (same compiled engine),
//   - the lookup kind (same execution plan),
//   - the YET spec (same trial range and event table — trial-range
//     compatibility falls out of YET equality, since the table IS the
//     trial range).
//
// Metrics options (return periods, quotes), sweep variants and the
// engine worker count are deliberately NOT in the key: the first two
// live in per-job YLTs and per-job variant windows, and every result is
// rendered from a YLT column indexed by trial, which is bitwise the
// same at any worker count — so jobs differing there still fuse. The
// combined variant count is capped at spec.MaxSweepVariants per pass.

import (
	"time"

	"github.com/ralab/are/internal/artifact"
	"github.com/ralab/are/internal/spec"
)

// fuseKeySpec is the hashed identity of a fusable pass. Field order is
// fixed; ContentKey's JSON encoding makes equal specs equal keys.
type fuseKeySpec struct {
	Portfolio *spec.File   `json:"portfolio"`
	Lookup    string       `json:"lookup"`
	YET       spec.YETSpec `json:"yet"`

	// Uncertainty separates sampled passes (whose kernels consult the
	// uncertainty options) from mean passes, and sampled passes with
	// different seeds from each other. Only populated for sampled
	// jobs, so a mean-mode job hashes identically whether it spelled
	// {"mode": "mean"} out or omitted the block — they fuse together,
	// as they always have.
	Uncertainty *spec.UncertaintySpec `json:"uncertainty,omitempty"`
}

// fuseKeyFor computes a job's fuse key and variant-budget contribution.
// An empty key means the job always runs solo: fusion disabled, the
// coordinator role (distributed jobs fan out per job), or a spec that
// fails to hash.
func (s *scheduler) fuseKeyFor(js *spec.Job) (string, int) {
	if js == nil {
		return "", 0
	}
	variants := js.VariantCount()
	if s.cfg.FuseWait < 0 || s.coord != nil {
		return "", variants
	}
	ks := fuseKeySpec{
		Portfolio: js.Portfolio,
		Lookup:    js.Lookup,
		YET:       js.YET,
	}
	if js.Sampled() {
		ks.Uncertainty = js.Uncertainty
	}
	key, err := artifact.ContentKey("fuse", ks)
	if err != nil {
		return "", variants
	}
	return key, variants
}

// nextBatch blocks until work is available and returns the next
// admission batch: the head job plus every queued job fusable with it
// within the variant budget. If budget remains after the first scan,
// the head waits up to cfg.FuseWait for late batchmates — the latency
// bound that keeps interactive jobs from starving while bursts still
// coalesce. Returns nil when the scheduler is shutting down.
func (s *scheduler) nextBatch() []*Job {
	s.mu.Lock()
	for len(s.pending) == 0 {
		if !s.accepting {
			s.mu.Unlock()
			return nil
		}
		ch := s.arrival
		s.mu.Unlock()
		select {
		case <-s.baseCtx.Done():
			return nil
		case <-ch:
		}
		s.mu.Lock()
	}
	if s.baseCtx.Err() != nil {
		// Forced shutdown: leave pending for shutdown() to dispose of.
		s.mu.Unlock()
		return nil
	}
	head := s.pending[0]
	s.pending = s.pending[1:]
	batch := []*Job{head}
	if head.fuseKey == "" {
		s.mu.Unlock()
		return batch
	}
	budget := spec.MaxSweepVariants - head.variants
	// collect splices every compatible job out of pending, preserving
	// the order of the rest. Cancelled-while-queued members are fine to
	// take — start() drops them before the pass.
	collect := func() {
		kept := s.pending[:0]
		for _, j := range s.pending {
			if j.fuseKey == head.fuseKey && j.variants <= budget {
				batch = append(batch, j)
				budget -= j.variants
			} else {
				kept = append(kept, j)
			}
		}
		for i := len(kept); i < len(s.pending); i++ {
			s.pending[i] = nil // drop spliced-out references
		}
		s.pending = kept
	}
	collect()
	if s.cfg.FuseWait <= 0 || budget <= 0 || !s.accepting {
		s.mu.Unlock()
		return batch
	}
	timer := time.NewTimer(s.cfg.FuseWait)
	defer timer.Stop()
	for {
		ch := s.arrival
		s.mu.Unlock()
		select {
		case <-timer.C:
			return batch
		case <-s.baseCtx.Done():
			return batch
		case <-ch:
		}
		s.mu.Lock()
		collect()
		if budget <= 0 || !s.accepting {
			s.mu.Unlock()
			return batch
		}
	}
}
