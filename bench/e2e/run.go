package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/ralab/are/internal/spec"
)

// An untraced run performs several cold set-ups and reports their median
// as setup_s, because one cold set-up alone does not repeat well: at least
// minSetups, then more while they have taken under setupBudget in all, up
// to maxSetups (a 40 ms set-up needs more repeats than a 2 s one).
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = time.Second
)

// tracedShare is the part of --seconds a traced run's loop measures for;
// the stage replay that follows it takes about the rest.
const tracedShare = 0.7

type runConfig struct {
	w        *workload
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	tmp      string
	sz       sizes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the driver's line: the last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything needed to read the numbers without the source.
type record struct {
	Workload      string   `json:"workload"`
	Why           string   `json:"why"`
	Commit        string   `json:"commit"`
	Seed          uint64   `json:"seed"`
	Seconds       float64  `json:"seconds"`
	Traced        bool     `json:"traced"`
	NProc         int      `json:"nproc"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	GoVersion     string   `json:"goVersion"`
	LLCBytes      int      `json:"llcBytes"`
	MemArrayBytes int      `json:"memArrayBytes"`
	TableBytes    int      `json:"directTableBytes,omitempty"`
	Loop          loopKind `json:"loop"`
	Clients       int      `json:"clients"`
	// JobScale is the factor on the issue's fixed job counts: loops are
	// timed by --seconds instead, so the count is whatever fits.
	JobScale   string         `json:"jobScale"`
	Jobs       int            `json:"jobs"`
	Attempted  int            `json:"attempted"`
	Succeeded  int            `json:"succeeded"`
	Failed     int            `json:"failed"`
	FailedFrac float64        `json:"failed_frac"`
	HighPct    float64        `json:"job_ms_high_percentile"`
	HighMS     float64        `json:"job_ms_high"`
	SetupsS    []float64      `json:"setups_s,omitempty"`
	ReplayReps map[string]int `json:"replayReps,omitempty"`
	// SelfMS is, per span name, the median self time: the span minus what
	// its children cover.
	SelfMS     map[string]float64 `json:"selfMs,omitempty"`
	FirstError string             `json:"firstError,omitempty"`
}

// sut is the system under test in either form.
type sut struct {
	sys  *system   // service workloads
	rig  *paperRig // engine.paper
	st   *stream
	body []byte // client 0's first job
	js   *spec.Job
}

func (s *sut) close() {
	if s.sys != nil {
		s.sys.close()
	}
}

// setUp performs one cold set-up: generate the data, build or start the
// system, run the cache-warming jobs.
func setUp(cfg *runConfig) (*sut, error) {
	g := gen{cfg.seed}
	s := &sut{st: newStream(cfg.w, g, cfg.sz)}
	s.js = s.st.first()
	s.body = jobBody(s.js)
	var err error
	if cfg.w.loop == loopLibrary {
		s.rig, err = newPaperRig(s.body)
		return s, err
	}
	if s.sys, err = startSystem(cfg.w, cfg.sz, cfg.tmp); err != nil {
		return nil, err
	}
	if err := s.st.warm(s.sys); err != nil {
		s.close()
		return nil, fmt.Errorf("warm: %w", err)
	}
	return s, nil
}

// loop runs one measured loop on the system, from a collected heap, with
// the counters read on either side when it is traced.
func (s *sut) loop(dur time.Duration, tr *tracer) (*measured, error) {
	runtime.GC()
	var pre counters
	var err error
	if tr != nil {
		if pre, err = s.counters(); err != nil {
			return nil, err
		}
	}
	var m *measured
	if s.rig != nil {
		m = s.rig.loop(dur, tr)
	} else {
		m = runLoop(s.st, s.sys, dur, tr)
	}
	m.pre = pre
	if tr != nil {
		m.post, err = s.counters()
	}
	return m, err
}

// verify checks a loop's outputs and returns how many jobs failed a check.
func (s *sut) verify(cfg *runConfig, o *oracle, m *measured) (int, error) {
	if s.rig != nil {
		return s.rig.verify(m.lib, cfg.sz.refTrials)
	}
	return verifyService(o, m.served, cfg.seed, cfg.w.engineWorkers == 1)
}

// runOne runs one workload in this process and returns the driver's line
// and the run record.
func runOne(cfg *runConfig) (*outcome, *record, error) {
	rec := &record{
		Workload: cfg.w.name, Why: cfg.w.why, Commit: commit(), Seed: cfg.seed, Seconds: cfg.seconds,
		Traced: cfg.trace, NProc: runtime.NumCPU(), GOMAXPROCS: nproc(), GoVersion: runtime.Version(),
		LLCBytes: llcBytes(), MemArrayBytes: memArrayBytes(cfg.sz), Loop: cfg.w.loop, Clients: cfg.w.clients,
		JobScale: "timed: as many jobs as fit --seconds",
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, nil, err
	}
	out := &outcome{Metrics: make(map[string]metric)}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	o := newOracle()

	var tr *tracer
	if cfg.trace {
		dur = time.Duration(float64(dur) * tracedShare)
		tr = newTracer()
	}
	var s *sut
	m := &measured{}
	var setupTotal time.Duration
	for k := 0; k < maxSetups; k++ {
		// setup_s is an end-to-end metric: the traced run does not report
		// it and sets up once.
		if k > 0 && (cfg.trace || k >= minSetups && setupTotal >= setupBudget) {
			break
		}
		if s != nil {
			s.close()
			s = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if s, err = setUp(cfg); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupTotal += time.Since(start)
		rec.SetupsS = append(rec.SetupsS, time.Since(start).Seconds())
		if cfg.w.perSetup && !cfg.trace && k < minSetups {
			part, err := s.loop(dur/minSetups, nil)
			if err != nil {
				s.close()
				return nil, nil, err
			}
			m.merge(part)
		}
	}
	defer s.close()
	if !cfg.w.perSetup || cfg.trace {
		var err error
		if m, err = s.loop(dur, tr); err != nil {
			return nil, nil, err
		}
	}
	out.Attempted, out.Failed = m.attempted, len(m.errs)
	var firstErr error
	if len(m.errs) > 0 {
		firstErr = m.errs[0]
	}
	bad, err := s.verify(cfg, o, m)
	if firstErr == nil {
		firstErr = err
	}
	out.Failed = min(out.Failed+bad, out.Attempted)
	out.Correct = out.Failed == 0
	lat, latTraced, latPlain := m.latencies()
	rec.Jobs = len(lat)
	rec.Attempted, rec.Failed, rec.Succeeded = out.Attempted, out.Failed, out.Attempted-out.Failed
	rec.FailedFrac = float64(out.Failed) / float64(out.Attempted)
	if firstErr != nil {
		rec.FirstError = firstErr.Error()
	}
	if len(lat) == 0 || cfg.trace && (len(latTraced) == 0 || len(latPlain) == 0) {
		return out, rec, errors.Join(errors.New("too few jobs completed to report"), firstErr)
	}
	rec.HighPct = highPercentile(len(lat))
	rec.HighMS = percentile(lat, rec.HighPct)

	if !cfg.trace {
		out.Metrics["job_ms_p50"] = metric{median(lat), "ms"}
		out.Metrics["jobs_per_s"] = metric{float64(len(lat)) / m.wall.Seconds(), "1/s"}
		out.Metrics["setup_s"] = metric{median(rec.SetupsS), "s"}
		return out, rec, nil
	}
	if err := perLayer(cfg, s, m, tr, out, rec); err != nil {
		return out, rec, err
	}
	if cfg.traceOut != "" {
		if err := tr.writeFile(cfg.traceOut); err != nil {
			return out, rec, err
		}
	}
	return out, rec, nil
}
