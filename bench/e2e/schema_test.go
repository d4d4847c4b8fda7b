package main

import (
	"sort"
	"testing"
)

func names(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BENCHMARK.json and the program must name the same workloads and the same
// metrics with the same units, and a run of every workload must emit
// exactly those metrics: all end-to-end ones untraced, all per-layer ones
// traced. The runs use the tiny problem sizes; the code path is the one a
// full run takes.
func TestContractMatchesProgram(t *testing.T) {
	c, err := loadContract("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "bench/e2e" {
		t.Errorf("paths = %v, want [bench/e2e]", c.Paths)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("contract names %d workloads, program has %d", len(c.Workloads), len(workloads))
	}
	for i, cw := range c.Workloads {
		if w := workloads[i]; cw.Name != w.name || cw.Why != w.why {
			t.Errorf("workload %d: contract %q / program %q (or their reasons) differ", i, cw.Name, w.name)
		}
		if len(cw.Why) > 200 {
			t.Errorf("%s: reason is %d characters, limit 200", cw.Name, len(cw.Why))
		}
	}
	check := func(kind string, listed []contractMetric, want map[string]string, bounded bool) {
		got := make(map[string]string)
		for _, m := range listed {
			got[m.Name] = m.Unit
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
		}
		if g, w := names(got), names(want); len(g) != len(w) {
			t.Errorf("%s: contract lists %v, program emits %v", kind, g, w)
		}
		for n, u := range want {
			if got[n] != u {
				t.Errorf("%s %s: contract unit %q, program unit %q", kind, n, got[n], u)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayerUnits, false)

	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			out, rec, err := runOne(&runConfig{
				w: w, seed: 3, seconds: 0.05, trace: traced, tmp: t.TempDir(), sz: tinySizes,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s",
					w.name, traced, out.Correct, out.Attempted, out.Failed, rec.FirstError)
			}
			want := endToEnd
			if traced {
				want = perLayerUnits
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, want %d", w.name, traced, len(out.Metrics), len(want))
			}
			for n, u := range want {
				if m, ok := out.Metrics[n]; !ok || m.Unit != u {
					t.Errorf("%s traced=%v: metric %s emitted=%v unit %q, want %q", w.name, traced, n, ok, m.Unit, u)
				}
			}
			if traced {
				if f := out.Metrics["trace.child_sum_frac"].Value; f < 0.95 || f > 1.05 {
					t.Errorf("%s: a job's child spans sum to %.3f of it, want within 5%%", w.name, f)
				}
				if rec.ReplayReps["store.done"] == 0 || rec.ReplayReps["core.pipeline.sinks"] == 0 {
					t.Errorf("%s: stage replay recorded no spans: %v", w.name, rec.ReplayReps)
				}
			}
		}
	}
}
