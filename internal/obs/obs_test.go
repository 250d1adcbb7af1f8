package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryAggregates(t *testing.T) {
	r := NewRegistry()
	r.Count("a.b", 2)
	r.Count("a.b", 3)
	r.Count("zero", 0)
	r.Gauge("g", 1.5)
	r.Observe("h", 1)
	r.Observe("h", 3)

	snap := r.Snapshot()
	if snap.Counters["a.b"] != 5 {
		t.Errorf("counter a.b = %d, want 5", snap.Counters["a.b"])
	}
	if _, ok := snap.Counters["zero"]; !ok {
		t.Errorf("zero-delta Count did not register the counter")
	}
	if snap.Gauges["g"] != 1.5 {
		t.Errorf("gauge g = %v, want 1.5", snap.Gauges["g"])
	}
	h := snap.Histograms["h"]
	if h.Count != 2 || h.Sum != 4 || h.Min != 1 || h.Max != 3 || h.Mean != 2 {
		t.Errorf("histogram h = %+v, want count 2 sum 4 min 1 max 3 mean 2", h)
	}
	if h.Stddev != 1 {
		t.Errorf("histogram h stddev = %v, want 1", h.Stddev)
	}
	if v := r.CounterValue("a.b"); v != 5 {
		t.Errorf("CounterValue(a.b) = %d, want 5", v)
	}
	want := []string{"a.b", "g", "h", "zero"}
	got := r.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Count("c", 7)
	r.Observe("h", 2)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.Counters["c"] != 7 {
		t.Errorf("round-tripped counter c = %d, want 7", snap.Counters["c"])
	}
	if !strings.Contains(buf.String(), "\"histograms\"") {
		t.Errorf("output missing histograms section:\n%s", buf.String())
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Count("c", 1)
	r.Gauge("g", 1)
	r.Observe("h", 1)
	if v := r.CounterValue("c"); v != 0 {
		t.Errorf("nil registry CounterValue = %d, want 0", v)
	}
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Errorf("nil registry snapshot non-empty: %+v", snap)
	}
	if names := r.Names(); names != nil {
		t.Errorf("nil registry Names = %v, want nil", names)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Count("c", 1)
				r.Observe("h", float64(i))
			}
		}()
	}
	wg.Wait()
	if v := r.CounterValue("c"); v != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", v)
	}
	if h := r.Snapshot().Histograms["h"]; h.Count != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", h.Count)
	}
}

func TestMultiSink(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	m := MultiSink(a, nil, b)
	m.Count("c", 2)
	m.Gauge("g", 3)
	m.Observe("h", 4)
	for _, r := range []*Registry{a, b} {
		snap := r.Snapshot()
		if snap.Counters["c"] != 2 || snap.Gauges["g"] != 3 ||
			snap.Histograms["h"].Count != 1 {
			t.Errorf("multi-sink target missed signals: %+v", snap)
		}
	}
	if MultiSink(nil, nil) != nil {
		t.Errorf("MultiSink of nils should be nil")
	}
	if s := MultiSink(a); s != Sink(a) {
		t.Errorf("MultiSink of one sink should return it unwrapped")
	}
}

// TestNopSinkAllocations pins the disabled-path cost: streaming through the
// no-op sink must not allocate.
func TestNopSinkAllocations(t *testing.T) {
	var s Sink = NopSink{}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Count("scheduler.rc.reuse_placements", 1)
		s.Gauge("manage.min_pdr", 0.99)
		s.Observe("netsim.run_seconds", 0.001)
	})
	if allocs != 0 {
		t.Errorf("NopSink allocated %v times per run, want 0", allocs)
	}
}

func TestTimed(t *testing.T) {
	r := NewRegistry()
	Timed(r, "t")()
	if h := r.Snapshot().Histograms["t"]; h.Count != 1 {
		t.Errorf("Timed observed %d samples, want 1", h.Count)
	}
	// Nil sink: shared no-op, no panic, nothing recorded.
	Timed(nil, "t")()
	allocs := testing.AllocsPerRun(1000, func() { Timed(nil, "t")() })
	if allocs != 0 {
		t.Errorf("Timed(nil) allocated %v times per run, want 0", allocs)
	}
}
