package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: its name
// (module.operation), the operation it belongs to, and the span that
// caused it (0 for an operation's root). Times are offsets from the
// tracer's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	ops    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newOp allocates an operation ID that groups the spans of one request.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// do runs fn inside a span named name and returns the span's ID (0
// when untraced), so callers can hang children off it.
func (t *tracer) do(name string, op, parent int, fn func(id int)) {
	if t == nil {
		fn(0)
		return
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	t.mu.Unlock()
	start := time.Since(t.origin)
	fn(id)
	end := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = start, end
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	buf, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its children cover. Overlapping children (concurrent
// calls under one parent) are merged first, so covered time is never
// counted twice and self time never goes negative.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfByName groups self times by span name, in microseconds.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], us(self[s.ID]))
	}
	return out
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
