// Command e2e is the repository's one benchmark: eight named workloads
// over the engine library and the ared service, end-to-end metrics with
// fixed regression bounds, and a traced run that splits one job's
// wall-clock by layer. BENCHMARK.json at the repository root is its
// contract; README.md beside this file explains every name.
//
//	go run ./bench/e2e -seed 1                       # every workload, each in a fresh process
//	go run ./bench/e2e -seed 1 -trace 1              # ... and the traced run of each
//	go run ./bench/e2e -seed 1 -aa                   # the whole set twice, compared against the bounds
//	go run ./bench/e2e -workload service.quote -seed 1 -seconds 10 -trace 0
//
// With -workload the program runs that workload in this process and prints
// the run record and then, as the last line of standard output, the
// driver's line: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "how long each workload's loop measures")
		trace    = flag.Int("trace", 0, "with -workload: 1 runs the traced run (per-layer metrics) instead of the untraced one; without: 1 runs it after")
		traceOut = flag.String("trace-out", "", "with -workload and -trace 1: write the spans here as JSON lines")
		aa       = flag.Bool("aa", false, "run the whole set twice and hold the differences to BENCHMARK.json's bounds")
		tmp      = flag.String("tmp", ".bench_build", "directory for the service's data and spill dirs (created, emptied of what this run adds)")
		list     = flag.Bool("list", false, "list the workloads and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *list {
		for _, w := range workloads {
			fmt.Printf("%-16s %s\n", w.name, w.why)
		}
		return
	}
	if *name == "" {
		if err := runAll(*seed, *seconds, *trace == 1, *aa); err != nil {
			fatal(err)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q (try -list)", *name))
	}
	out, rec, err := runOne(&runConfig{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut, tmp: *tmp, sz: fullSizes,
	})
	if err != nil {
		fatal(err)
	}
	// Two lines: the record, then the driver's line last.
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(struct {
		Record *record `json:"record"`
	}{rec}); err != nil {
		fatal(err)
	}
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "e2e: %s: %d of %d jobs failed: %s\n", w.name, out.Failed, out.Attempted, rec.FirstError)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(1)
}

// commit names the measured source: the git HEAD when there is one (the
// driver's checkout has none).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
