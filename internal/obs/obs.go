// Package obs is the dependency-free observability layer of the pipeline:
// counters, gauges, and histograms aggregated by a Registry, plus a
// pluggable Sink interface so callers can stream the same signals into
// their own telemetry system.
//
// The design keeps the instrumented hot paths (the schedulers' slot search,
// the simulator's slot loop, the management cycle) cheap: packages count
// locally in plain integers while they run and flush the totals to the
// configured Sink once per run. A nil Sink disables observability entirely;
// every helper in this package treats nil as "do nothing", so the disabled
// path costs a predictable branch and allocates nothing.
package obs

import "time"

// Sink receives the observability stream. Implementations must be safe for
// concurrent use: parallel experiment trials flush into one sink.
//
// Metric names are dot-separated, lowercase, and stable across releases
// ("scheduler.rc.reuse_placements", "netsim.collisions"); see DESIGN.md for
// the catalog emitted by the built-in instrumentation.
type Sink interface {
	// Count adds delta to the named monotonically increasing counter.
	Count(name string, delta int64)
	// Gauge sets the named gauge to its latest value.
	Gauge(name string, value float64)
	// Observe records one sample of the named histogram.
	Observe(name string, value float64)
}

// NopSink discards everything. The methods are empty so calls through the
// interface compile to near-nothing and never allocate.
type NopSink struct{}

// Count implements Sink.
func (NopSink) Count(string, int64) {}

// Gauge implements Sink.
func (NopSink) Gauge(string, float64) {}

// Observe implements Sink.
func (NopSink) Observe(string, float64) {}

// multiSink fans the stream out to several sinks.
type multiSink []Sink

func (m multiSink) Count(name string, delta int64) {
	for _, s := range m {
		s.Count(name, delta)
	}
}

func (m multiSink) Gauge(name string, value float64) {
	for _, s := range m {
		s.Gauge(name, value)
	}
}

func (m multiSink) Observe(name string, value float64) {
	for _, s := range m {
		s.Observe(name, value)
	}
}

// MultiSink combines sinks: every signal is delivered to each non-nil sink
// in order. Nil sinks are dropped; with zero or one survivor the result is
// nil or that sink, avoiding the fan-out indirection.
func MultiSink(sinks ...Sink) Sink {
	kept := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// nop is the shared no-op closure Timed hands out when the sink is nil.
var nop = func() {}

// Timed starts a wall-clock measurement; the returned func observes the
// elapsed seconds into the named histogram:
//
//	defer obs.Timed(sink, "netsim.run_seconds")()
//
// With a nil sink nothing is measured and the shared no-op is returned.
func Timed(s Sink, name string) func() {
	if s == nil {
		return nop
	}
	start := time.Now()
	return func() { s.Observe(name, time.Since(start).Seconds()) }
}
