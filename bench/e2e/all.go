package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// workloadReport is one workload's part of the summary.
type workloadReport struct {
	Record   *record           `json:"record"`
	EndToEnd map[string]metric `json:"end_to_end"`
	Traced   *record           `json:"tracedRecord,omitempty"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
}

// aaRow compares one end-to-end metric on one workload across two runs of
// the same binary.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"relDiff"` // |b-a| / a
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// child runs one workload in a fresh process of this same binary, so that
// no workload inherits another's heap, and returns its two output lines.
func child(w *workload, seed uint64, seconds float64, trace bool) (*outcome, *record, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("%s: no result (%v)", w.name, runErr)
	}
	var rec struct {
		Record *record `json:"record"`
	}
	var out outcome
	if err := json.Unmarshal(lines[len(lines)-2], &rec); err != nil {
		return nil, nil, fmt.Errorf("%s: record line: %w", w.name, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, nil, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	return &out, rec.Record, nil // an incorrect run still reports; the caller fails on Correct
}

// runAll runs every workload (twice for A/A) and prints one JSON summary.
func runAll(seed uint64, seconds float64, trace, aa bool) error {
	var bounds *contract
	if aa {
		var err error
		if bounds, err = loadContract("BENCHMARK.json"); err != nil {
			return fmt.Errorf("-aa needs the contract's bounds: %w", err)
		}
	}
	passes := 1
	if aa {
		passes = 2
	}
	reports := make([][]workloadReport, passes)
	var failures []error
	for p := range reports {
		for i := range workloads {
			w := &workloads[i]
			fmt.Fprintf(os.Stderr, "e2e: pass %d/%d: %s\n", p+1, passes, w.name)
			out, rec, err := child(w, seed, seconds, false)
			if err != nil {
				return err
			}
			rep := workloadReport{Record: rec, EndToEnd: out.Metrics}
			if !out.Correct {
				failures = append(failures, fmt.Errorf("%s: %d of %d jobs failed: %s", w.name, out.Failed, out.Attempted, rec.FirstError))
			}
			if trace {
				tout, trec, err := child(w, seed, seconds, true)
				if err != nil {
					return err
				}
				rep.Traced, rep.PerLayer = trec, tout.Metrics
				if !tout.Correct {
					failures = append(failures, fmt.Errorf("%s (traced): %d of %d jobs failed: %s", w.name, tout.Failed, tout.Attempted, trec.FirstError))
				}
			}
			reports[p] = append(reports[p], rep)
		}
	}

	summary := struct {
		Commit     string           `json:"commit"`
		Seed       uint64           `json:"seed"`
		Seconds    float64          `json:"seconds"`
		NProc      int              `json:"nproc"`
		GOMAXPROCS int              `json:"gomaxprocs"`
		GoVersion  string           `json:"goVersion"`
		LLCBytes   int              `json:"llcBytes"`
		Workloads  []workloadReport `json:"workloads"`
		Second     []workloadReport `json:"secondPass,omitempty"`
		AA         []aaRow          `json:"aa,omitempty"`
		Claim      any              `json:"claim"` // this benchmark measures; it claims nothing
	}{
		Commit: commit(), Seed: seed, Seconds: seconds, NProc: runtime.NumCPU(), GOMAXPROCS: nproc(),
		GoVersion: runtime.Version(), LLCBytes: llcBytes(), Workloads: reports[0],
	}
	if aa {
		summary.Second = reports[1]
		for i, a := range reports[0] {
			b := reports[1][i]
			for _, m := range bounds.EndToEnd {
				row := aaRow{
					Workload: a.Record.Workload, Metric: m.Name, Unit: m.Unit,
					A: a.EndToEnd[m.Name].Value, B: b.EndToEnd[m.Name].Value, Bound: *m.Bound,
				}
				row.RelDiff = math.Abs(row.B-row.A) / row.A
				row.Within = row.RelDiff <= row.Bound
				if !row.Within {
					failures = append(failures, fmt.Errorf("A/A: %s %s: %g vs %g differ by %.1f%%, bound %.0f%%",
						row.Workload, row.Metric, row.A, row.B, 100*row.RelDiff, 100*row.Bound))
				}
				summary.AA = append(summary.AA, row)
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&summary); err != nil {
		return err
	}
	return errors.Join(failures...)
}
