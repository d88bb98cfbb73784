package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []*span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children covering [10, 50): 40 ns, not 50.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A child sticking out of its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// Grandchildren reduce their own parent, not the root.
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 25},
		{ID: 6, Parent: 2, Name: "a2", Start: 30, End: 35},
		// A leaf.
		{ID: 7, Parent: 3, Name: "b1", Start: 20, End: 50},
	}
	got := selfTimes(spans)
	want := map[int]int64{
		1: 100 - 40 - 10, // [10,50) and [90,100)
		2: 30 - 10 - 5,
		3: 0,
		4: 30,
		5: 10, 6: 5, 7: 30,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerParentsAndRequests(t *testing.T) {
	tr := newTracer()
	tr.do("op.a", func() {
		tr.do("layer.x", func() { tr.do("layer.y", func() {}) })
		tr.do("layer.z", func() {})
	})
	tr.do("op.b", func() {})
	if len(tr.spans) != 5 {
		t.Fatalf("%d spans, want 5", len(tr.spans))
	}
	byName := map[string]*span{}
	for _, s := range tr.spans {
		byName[s.Name] = s
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if byName["layer.y"].Parent != byName["layer.x"].ID || byName["layer.x"].Parent != byName["op.a"].ID ||
		byName["layer.z"].Parent != byName["op.a"].ID || byName["op.b"].Parent != 0 {
		t.Error("wrong parents")
	}
	if byName["layer.y"].Req != byName["op.a"].Req || byName["op.b"].Req == byName["op.a"].Req {
		t.Error("wrong request ids")
	}
	var buf bytes.Buffer
	if err := tr.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d JSON lines, want 5", len(lines))
	}
	var s span
	if err := json.Unmarshal([]byte(lines[0]), &s); err != nil || s.Name != "op.a" {
		t.Errorf("first line %q: %v", lines[0], err)
	}
}
