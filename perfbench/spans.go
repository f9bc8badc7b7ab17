package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into the program,
// in memory, and writes them out when the run ends. A nil tracer (the
// untraced run) records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are wall nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off). Parent 0
// is a root.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its wall duration.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// latencies collects per-operation durations with their completion times.
type latencies struct {
	mu sync.Mutex
	d  []time.Duration
	at []time.Time
}

func (l *latencies) add(d time.Duration) {
	now := time.Now()
	l.mu.Lock()
	l.d = append(l.d, d)
	l.at = append(l.at, now)
	l.mu.Unlock()
}

func (l *latencies) n() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.d)
}

// windows splits the samples into k windows of equal wall length by
// completion time.
func (l *latencies) windows(k int) [][]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]time.Duration, k)
	if len(l.d) == 0 {
		return out
	}
	first, last := l.at[0], l.at[len(l.at)-1]
	span := last.Sub(first) + 1
	for i, d := range l.d {
		w := int(int64(l.at[i].Sub(first)) * int64(k) / int64(span))
		out[w] = append(out[w], d)
	}
	return out
}

// latencyWindows is how many equal windows the latencies of a steady
// stream are cut into at most; a reported quantile is the median of the
// windows' quantiles, so one window disturbed from outside the run does not
// move it. A sequence whose cost changes as the program's state grows is
// taken whole: its windows would not be alike.
const latencyWindows = 4

// windowsFor is how many windows the samples fill while each keeps at least
// ten samples beyond p99 (at least one window).
func (l *latencies) windowsFor() int {
	return max(1, min(latencyWindows, l.n()/1000))
}

// quantileMs returns the median over k windows of each window's q-quantile
// (nearest rank), in milliseconds.
func (l *latencies) quantileMs(q float64, k int) float64 {
	var per []float64
	for _, w := range l.windows(k) {
		if len(w) == 0 {
			continue
		}
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		i := int(q*float64(len(w))+0.5) - 1
		per = append(per, float64(w[max(0, min(i, len(w)-1))])/1e6)
	}
	return median(per)
}

// tailQuantile is the highest of p99, p95 and p90 that leaves at least ten
// samples beyond it in a window of average size, of k windows.
func (l *latencies) tailQuantile(k int) float64 {
	perWindow := float64(l.n()) / float64(k)
	for _, q := range []float64{0.99, 0.95, 0.9} {
		if perWindow*(1-q) >= 10 {
			return q
		}
	}
	return 0.9
}

func (l *latencies) meanUs() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range l.d {
		sum += d
	}
	return float64(sum) / float64(len(l.d)) / 1e3
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func perUnit(total time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}
