package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call it makes. Spans of one flow or request share Trace.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID and the function that closes it.
func (t *tracer) start(name string, parent int64, trace string) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.next.Add(1)
	begin := time.Since(t.t0).Nanoseconds()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: begin, End: end})
		t.mu.Unlock()
	}
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// overheadRatio estimates how much slower the traced work ran than the
// same work untraced: the spans recorded since the tracer was made,
// times the measured cost of opening and closing one span, over the
// wall time since then less that cost. A traced pass set against a
// separate untraced pass would measure run-to-run noise instead, which
// on these workloads is far larger than the spans' cost.
func (t *tracer) overheadRatio() float64 {
	wall := float64(time.Since(t.t0))
	cost := float64(t.len()) * spanCost()
	return cost / (wall - cost)
}

// spanCost is the median cost in ns of opening and closing one span on
// a scratch tracer, over five batches of 10000.
func spanCost() float64 {
	const n = 10000
	per := make([]float64, 0, 5)
	for range 5 {
		t := newTracer()
		t0 := time.Now()
		for range n {
			_, end := t.start("cost", 1, "cost")
			end()
		}
		per = append(per, float64(time.Since(t0))/n)
	}
	return median(per)
}

// layerTime is the aggregated self time of one span name.
type layerTime struct {
	Calls  int
	SelfNs float64
}

// PerCall returns the mean self time of one call in the given unit.
func (l layerTime) PerCall(unit time.Duration) float64 {
	if l.Calls == 0 {
		return 0
	}
	return l.SelfNs / float64(l.Calls) / float64(unit)
}

// selfTimes aggregates, per span name, the calls and the self time: a
// span's duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]layerTime {
	if t == nil {
		return map[string]layerTime{}
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		covered := unionWithin(children[s.ID], s.Start, s.End)
		lt := out[s.Name]
		lt.Calls++
		lt.SelfNs += float64(s.End - s.Start - covered)
		out[s.Name] = lt
	}
	return out
}

// unionWithin returns the length of the union of the intervals clipped
// to [lo, hi].
func unionWithin(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(math.MinInt64), int64(math.MinInt64)
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ----------------------------------------------------------------- stats

// rank is the 1-based nearest rank of the q-quantile of n samples.
func rank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// quantile returns the q-quantile of xs (nearest rank); xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(q, len(xs))-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile picks the highest of p99, p95, p90, p75 and p50 that
// has at least ten samples beyond it; with fewer than 20 samples it
// falls back to the maximum.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75, 0.50} {
		if n-rank(q, n) >= 10 {
			return q
		}
	}
	return 1
}

// tail returns the tail latency of xs at tailQuantile(len(xs)).
func tail(xs []float64) float64 { return quantile(xs, tailQuantile(len(xs))) }

func seconds(d time.Duration) float64 { return d.Seconds() }

// timeSetup times one set-up after a collection, so garbage left by
// earlier work is not collected inside it.
func timeSetup(setup func() error) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	err := setup()
	return seconds(time.Since(t0)), err
}
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
