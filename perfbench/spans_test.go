package main

import (
	"testing"
	"time"
)

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		// Two concurrent children overlapping on [20,40): together they
		// cover [10,50), not 30+30.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},
		// A child nested inside a: covered by a already, and a's own
		// self time loses it.
		{ID: 4, Parent: 2, Name: "c", Start: 15 * ms, End: 25 * ms},
		// A child that outlives its parent only counts inside it.
		{ID: 5, Parent: 1, Name: "d", Start: 90 * ms, End: 120 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*ms - 40*ms - 10*ms, // [10,50) and [90,100)
		2: 30*ms - 10*ms,
		3: 30 * ms,
		4: 10 * ms,
		5: 30 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
}

func TestSelfTimeFullyCoveredIsZero(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 10, End: 20},
		{ID: 2, Parent: 1, Name: "x", Start: 0, End: 15},
		{ID: 3, Parent: 1, Name: "y", Start: 12, End: 30},
	}
	if got := selfTimes(spans)[1]; got != 0 {
		t.Fatalf("self = %v, want 0", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", tr.newOp(), 0, func(id int) { ran = id == 0 })
	if !ran {
		t.Fatal("nil tracer must still run the call with id 0")
	}
}
