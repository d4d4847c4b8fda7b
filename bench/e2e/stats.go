package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. xs need not be sorted and is not modified. Empty input
// yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n >= 1
// samples: ceil(n*p/100), computed in integer tenths of a percent so that
// the thresholds carry no float dust, and kept within [1, n].
func nearestRank(n int, p float64) int {
	permille := int(p*10 + 0.5)
	return min(max((n*permille+999)/1000, 1), n)
}

// median is the midpoint median (mean of the two central samples for an
// even count), the form every timing in this benchmark is reported in.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// highPercentile picks the highest percentile of {99.9, 99, 95, 90} that
// still has at least ten of the n samples beyond it, the tail a timing may
// be reported at besides its median. It returns 50 when no tail percentile
// qualifies (n < 100).
func highPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if n-nearestRank(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// span is one traced interval. Start and End are nanoseconds since the
// tracer was created; Parent is the ID of the span that caused this one
// (0 for a root); spans of one job share Job. A synthetic span carries a
// duration summed from many short calls (sink busy time divided by the
// engine workers) laid at its parent's start, not a single real interval.
type span struct {
	ID        int    `json:"id"`
	Name      string `json:"name"`
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	Parent    int    `json:"parent"`
	Job       string `json:"job"`
	Synthetic bool   `json:"synthetic,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, which is how the untraced run is spelled.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records one finished interval and returns its ID for children to
// name as their parent.
func (t *tracer) add(name string, parent int, job string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Job: job,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// begin opens a span now; end closes it. A parent is begun before its
// children so that they can name it.
func (t *tracer) begin(name string, parent int, job string) int {
	now := time.Now()
	return t.add(name, parent, job, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = time.Since(t.origin).Nanoseconds()
	t.mu.Unlock()
}

// time runs f inside a span.
func (t *tracer) time(name string, parent int, job string, f func()) {
	id := t.begin(name, parent, job)
	f()
	t.end(id)
}

// synthetic records a summed duration d as a child laid at the start of
// its (still open) parent (see span).
func (t *tracer) synthetic(name string, parent int, job string, d time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent-1].Start
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Parent: parent, Job: job,
		Start: start, End: start + d.Nanoseconds(), Synthetic: true,
	})
}

// adopt appends another tracer's spans, renumbered behind this one's and
// shifted onto this one's clock.
func (t *tracer) adopt(o *tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base, shift := len(t.spans), o.origin.Sub(t.origin).Nanoseconds()
	for _, s := range o.spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Start, s.End = s.Start+shift, s.End+shift
		t.spans = append(t.spans, s)
	}
}

// writeFile writes the spans to path as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (children are clipped to the
// parent and overlapping children are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// childSumFrac is the mean, over spans named parent, of the summed child
// durations divided by the parent's duration: 1 when the children tile
// the parent.
func childSumFrac(spans []span, parent string) float64 {
	sums := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			sums[s.Parent] += s.dur()
		}
	}
	var total float64
	n := 0
	for _, s := range spans {
		if s.Name == parent && s.dur() > 0 {
			total += float64(sums[s.ID]) / float64(s.dur())
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
