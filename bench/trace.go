package main

// Span tracing from outside the program: the traced run replaces each
// Verify/Synthesize with its public parts and brackets every part with a
// span. Spans are kept in memory and written when the run ends. Spans
// inside the program (the ROADMAP's phase clock) are a later issue and must
// reuse the span names used here.

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval. Start and End are seconds since the process
// started; Parent indexes the span that caused this one (-1 for an
// operation's root span); spans of one operation share Round and Op.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Round  int     `json:"round"`
	Op     string  `json:"op"`
}

func (s span) dur() float64 { return s.End - s.Start }

// layer is the package a span is charged to: the part of its name before
// the first dot. Root spans are named "op" and charge their uncovered time
// to the benchmark's own glue.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return "bench"
}

// tracer collects spans. Learner workers call the mining oracle
// concurrently, so begin/end are safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func sinceStart(t time.Time) float64 { return t.Sub(processStart).Seconds() }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, round int, op string) int {
	now := sinceStart(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Round: round, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := sinceStart(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose endpoints were observed elsewhere (the server's
// job timestamps).
func (t *tracer) add(name string, start, end time.Time, parent, round int, op string) int {
	s := span{Name: name, Start: sinceStart(start), End: sinceStart(end), Parent: parent, Round: round, Op: op}
	if s.End < s.Start {
		s.End = s.Start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered is the length of the part of [start,end] that the given
// intervals cover; overlapping intervals are counted once.
func covered(start, end float64, ivs [][2]float64) float64 {
	clipped := ivs[:0:0]
	for _, iv := range ivs {
		lo, hi := iv[0], iv[1]
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			clipped = append(clipped, [2]float64{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, reach float64
	reach = start
	for _, iv := range clipped {
		if iv[0] > reach {
			reach = iv[0]
		}
		if iv[1] > reach {
			total += iv[1] - reach
			reach = iv[1]
		}
	}
	return total
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover.
func selfTimes(spans []span) []float64 {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.Start, s.End, children[i])
	}
	return self
}

// coverage is the share of the operation root spans' wall time that their
// children account for, taken over the least covered operation — the
// acceptance floor is per operation. Without root spans it is 0.
func coverage(spans []span) float64 {
	self := selfTimes(spans)
	worst, seen := 1.0, false
	for i, s := range spans {
		if s.Parent >= 0 || s.dur() <= 0 {
			continue
		}
		seen = true
		if c := 1 - self[i]/s.dur(); c < worst {
			worst = c
		}
	}
	if !seen {
		return 0
	}
	return worst
}

// layerSelfTimes sums self time per layer over the spans accepted by keep.
func layerSelfTimes(spans []span, keep func(span) bool) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		if keep(s) {
			out[s.layer()] += self[i]
		}
	}
	return out
}
