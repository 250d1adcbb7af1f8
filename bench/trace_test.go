package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	r := newRecorder()
	at := func(us int) time.Time { return r.epoch.Add(time.Duration(us) * time.Microsecond) }
	root := r.add("op", at(0), at(100), -1, 1)
	a := r.add("a", at(10), at(30), root, 1)
	r.add("b", at(20), at(50), root, 1) // overlaps a
	r.add("c", at(60), at(70), root, 1)
	r.add("c", at(90), at(120), root, 1) // runs past its parent
	r.add("d", at(12), at(15), a, 1)     // grandchild: a's, not root's
	r.add("op", at(200), at(210), -1, 2) // a second op with no children

	agg := r.aggregate()
	want := map[string]time.Duration{
		"op": (100 - 40 - 10 - 10 + 10) * time.Microsecond,
		"a":  (20 - 3) * time.Microsecond,
		"b":  30 * time.Microsecond,
		"c":  (10 + 30) * time.Microsecond,
		"d":  3 * time.Microsecond,
	}
	for name, self := range want {
		if got := agg[name].self; got != self {
			t.Errorf("%s self = %v, want %v", name, got, self)
		}
	}
	if got := len(agg["c"].durs); got != 2 {
		t.Errorf("c calls = %d, want 2", got)
	}
}

func TestCoveredMergesIntervals(t *testing.T) {
	for _, tc := range []struct {
		ivs  [][2]time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[][2]time.Duration{{0, 10}}, 10},
		{[][2]time.Duration{{5, 8}, {0, 10}}, 10},           // nested, unsorted
		{[][2]time.Duration{{0, 4}, {2, 6}, {8, 9}}, 7},     // overlap and gap
		{[][2]time.Duration{{-5, 2}, {9, 15}, {20, 30}}, 3}, // clipped to [0, 10]
		{[][2]time.Duration{{0, 3}, {3, 6}, {6, 10}, {1, 2}}, 10},
	} {
		if got := covered(0, 10, tc.ivs); got != tc.want {
			t.Errorf("covered(%v) = %v, want %v", tc.ivs, got, tc.want)
		}
	}
}

func noop() (int, error) { return 0, nil }

// An untraced run must pay nothing for the tracing calls it passes through.
func TestNilRecorderAllocatesNothing(t *testing.T) {
	var r *recorder
	now := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		id := r.begin("scheduler.Run", -1, 7)
		r.end(id)
		r.add("sse.delivery", now, now, id, 7)
		_, _ = timed(r, "netsim.Run", id, 7, noop)
	})
	if allocs != 0 {
		t.Errorf("nil recorder allocates %v times per call", allocs)
	}
}
