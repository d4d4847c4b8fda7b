package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ralab/are/internal/elt"
	"github.com/ralab/are/internal/layer"
	"github.com/ralab/are/internal/yet"
)

// llcBytes reads the size of the largest cache cpu0 reports in sysfs; 0
// when the platform does not say.
func llcBytes() int {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best := 0
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.Atoi(s); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// memFloorBytes stands in for four times the last-level cache where the
// platform does not report one.
const memFloorBytes = 128 << 20

// memArrayBytes is the size of the memory microbenchmark array: four times
// the last-level cache, so that neither test is served from it.
func memArrayBytes(sz sizes) int {
	if sz.memArrayBytes > 0 {
		return sz.memArrayBytes
	}
	return max(4*llcBytes(), memFloorBytes)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// parallel runs f(thread) on `threads` goroutines and returns the wall
// time of the slowest.
func parallel(threads int, f func(thread int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			f(t)
		}(t)
	}
	wg.Wait()
	return time.Since(start)
}

// memSink keeps the microbenchmarks' sums alive so the loads are not
// optimised away.
var memSink [64]float64

// memBench measures what the machine's memory system allows at `threads`
// threads over an array of arrayBytes: sequential read bandwidth, and
// independent random 8-byte loads per second (addresses come from a
// multiplicative hash of the loop counter, so no load waits for another).
// Each figure is the median of three passes, recorded as mem.stream and
// mem.random spans.
func memBench(tr *tracer, parent, threads, arrayBytes int) (streamGBps, randomMLoadsPerS float64) {
	n := 1
	for n*8 < arrayBytes { // power of two, so that a shift bounds the hash
		n <<= 1
	}
	arr := make([]float64, n)
	for i := range arr {
		arr[i] = float64(i & 7)
	}
	shift := 64
	for m := n; m > 1; m >>= 1 {
		shift--
	}
	loadsPerThread := min(1<<23, n)
	var streams, randoms []float64
	for pass := 0; pass < 3; pass++ {
		id := tr.begin("mem.stream", parent, "")
		d := parallel(threads, func(t int) {
			part := arr[t*n/threads : (t+1)*n/threads]
			var s0, s1, s2, s3 float64
			for i := 0; i+3 < len(part); i += 4 {
				s0 += part[i]
				s1 += part[i+1]
				s2 += part[i+2]
				s3 += part[i+3]
			}
			memSink[t%len(memSink)] = s0 + s1 + s2 + s3
		})
		tr.end(id)
		streams = append(streams, float64(n*8)/d.Seconds()/1e9)

		id = tr.begin("mem.random", parent, "")
		d = parallel(threads, func(t int) {
			var s float64
			x := uint64(t+1) << 40
			for i := 0; i < loadsPerThread; i++ {
				x += 0x9E3779B97F4A7C15
				s += arr[(x*0xD1342543DE82EF95)>>shift]
			}
			memSink[t%len(memSink)] = s
		})
		tr.end(id)
		randoms = append(randoms, float64(threads*loadsPerThread)/d.Seconds()/1e6)
	}
	return median(streams), median(randoms)
}

// gatherBench times the engine's innermost loop from outside: for every
// trial, one (*elt.Direct).GatherInto per ELT of the first layer over the
// trial's event column, on `threads` goroutines over disjoint trial
// ranges. It returns wall nanoseconds per occurrence x ELT lookup and the
// bytes of direct tables the loop walks.
func gatherBench(tr *tracer, parent, threads int, p *layer.Portfolio, catalog int, y *yet.Table) (nsPerLookup float64, tableBytes int, err error) {
	l := p.Layers[0]
	directs := make([]*elt.Direct, len(l.ELTs))
	for i, t := range l.ELTs {
		if directs[i], err = elt.NewDirect(t, catalog); err != nil {
			return 0, 0, err
		}
		tableBytes += directs[i].MemoryBytes()
	}
	nt := y.NumTrials()
	id := tr.begin("elt.gather", parent, "")
	d := parallel(threads, func(t int) {
		var dst []float64
		for trial := t * nt / threads; trial < (t+1)*nt/threads; trial++ {
			events := y.TrialEvents(trial)
			if cap(dst) < len(events) {
				dst = make([]float64, len(events))
			}
			dst = dst[:len(events)]
			clear(dst)
			for i, dt := range directs {
				dt.GatherInto(dst, events, l.ELTs[i].Terms.Compile())
			}
			if len(dst) > 0 {
				memSink[t%len(memSink)] += dst[0]
			}
		}
	})
	tr.end(id)
	n := float64(y.NumOccurrences()) * float64(len(directs))
	return float64(d.Nanoseconds()) / n, tableBytes, nil
}

func nproc() int { return runtime.GOMAXPROCS(0) }
