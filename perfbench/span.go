package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`    // shared by every span of one operation
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's epoch, in nanoseconds.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only.
type tracer struct {
	epoch time.Time
	spans []*span
	open  []*span // stack of spans not yet ended
	req   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open span. A span opened with no
// span open starts a new request.
func (t *tracer) begin(name string) *span {
	s := &span{ID: len(t.spans) + 1, Name: name}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1].ID
		s.Req = t.open[n-1].Req
	} else {
		t.req++
		s.Req = t.req
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s)
	s.Start = t.now()
	return s
}

// end closes the innermost open span, which must be s.
func (t *tracer) end(s *span) {
	s.End = t.now()
	n := len(t.open)
	if n == 0 || t.open[n-1] != s {
		panic(fmt.Sprintf("perfbench: span %q ended out of order", s.Name))
	}
	t.open = t.open[:n-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) {
	s := t.begin(name)
	fn()
	t.end(s)
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers. Children
// may nest, overlap each other, or stick out of the parent; only the
// overlap with the parent is subtracted, and overlapping children are
// subtracted once.
func selfTimes(spans []*span) map[int]int64 {
	children := make(map[int][]*span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - coveredNs(s.Start, s.End, children[s.ID])
	}
	return self
}

// coveredNs is the length of [lo, hi) covered by the union of the spans'
// intervals.
func coveredNs(lo, hi int64, kids []*span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		if !started || v.a > curB {
			if started {
				total += curB - curA
			}
			curA, curB, started = v.a, v.b, true
			continue
		}
		if v.b > curB {
			curB = v.b
		}
	}
	if started {
		total += curB - curA
	}
	return total
}
