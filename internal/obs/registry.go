package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
)

// Registry is the default Sink: it aggregates counters, gauges, and
// histogram summaries in memory and serializes them as one JSON
// document. It is safe for concurrent use and for use as an expvar.Func
// (publish Snapshot). The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*hist),
	}
}

// hist keeps a streaming summary of one histogram.
type hist struct {
	count    int64
	sum, ssq float64
	min, max float64
}

func (h *hist) observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.ssq += v * v
}

// Count implements Sink. A zero delta still registers the counter, so a
// caller can pre-declare its metric schema before any work runs.
func (r *Registry) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Gauge implements Sink.
func (r *Registry) Gauge(name string, value float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = value
	r.mu.Unlock()
}

// Observe implements Sink.
func (r *Registry) Observe(name string, value float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &hist{}
		r.hists[name] = h
	}
	h.observe(value)
	r.mu.Unlock()
}

// CounterValue returns the current value of one counter (0 if never
// registered).
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// HistogramSnapshot is the serialized summary of one histogram.
type HistogramSnapshot struct {
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum"`
	Min    float64 `json:"min"`
	Mean   float64 `json:"mean"`
	Max    float64 `json:"max"`
	Stddev float64 `json:"stddev"`
}

// Snapshot is a point-in-time copy of everything the registry holds, in a
// shape that marshals to stable JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current state.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Counters: map[string]int64{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counters {
		snap.Counters[k] = v
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(r.gauges))
		for k, v := range r.gauges {
			snap.Gauges[k] = v
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for k, h := range r.hists {
			hs := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
			if h.count > 0 {
				hs.Mean = h.sum / float64(h.count)
				if variance := h.ssq/float64(h.count) - hs.Mean*hs.Mean; variance > 0 {
					hs.Stddev = math.Sqrt(variance)
				}
			}
			snap.Histograms[k] = hs
		}
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON (maps marshal with sorted
// keys, so the output is deterministic for a fixed state).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Names returns every registered metric name (counters, gauges,
// histograms), sorted and deduplicated — a schema listing for documentation and
// tests.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	seen := make(map[string]bool, len(r.counters)+len(r.gauges)+len(r.hists))
	for k := range r.counters {
		seen[k] = true
	}
	for k := range r.gauges {
		seen[k] = true
	}
	for k := range r.hists {
		seen[k] = true
	}
	r.mu.Unlock()
	names := make([]string, 0, len(seen))
	for k := range seen {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
