package main

import "testing"

// TestSelfTimesNested checks self time on nested spans: a parent's self
// time excludes the union of its children, overlapping children are not
// subtracted twice, and a child clipped at the parent's end counts only
// inside it.
func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "a.inner", Start: 12, End: 15, Parent: 1},
		{Name: "open", Start: 60, End: -1, Parent: 0}, // never closed
	}
	want := []int64{
		100 - (50 - 10) - (100 - 90),
		20 - 3,
		30,
		30,
		3,
		0,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	agg := aggregate(spans)
	if a := agg["op"]; a.Count != 1 || a.SelfNS != want[0] || a.WallNS != 100 {
		t.Errorf("aggregate op = %+v", a)
	}
	if _, ok := agg["open"]; ok {
		t.Error("an unclosed span was aggregated")
	}
}

// TestTracerNilIsOff checks that the untraced mode records nothing.
func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	id := tr.start("x", -1, 1)
	tr.end(id, "", "")
	if id != -1 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

func TestTracerRecords(t *testing.T) {
	tr := newTracer()
	root := tr.start("op", -1, 7)
	child := tr.start("core.solve", root, 7)
	tr.end(child, "decomp.solve", "miss")
	tr.end(root, "", "")
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Name != "decomp.solve" || spans[1].Tag != "miss" ||
		spans[1].Parent != 0 || spans[1].Op != 7 || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
}
