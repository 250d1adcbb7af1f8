package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsan/internal/obs"
	"wsan/wsanclient"
)

// FaultCountsDelta is the Data payload of a faults.applied event: one
// "faults.*" counter flush from a simulation run under a fault scenario.
type FaultCountsDelta struct {
	Counter string `json:"counter"`
	Delta   int64  `json:"delta"`
}

// MetricsDelta is the Data payload of a metrics.delta event: the
// counters that changed since the previous delta (the first delta after a
// subscriber attaches reports absolute values), plus the current gauges.
type MetricsDelta struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// ErrBusClosed rejects subscriptions on a shut-down daemon.
var ErrBusClosed = errors.New("server: event bus closed")

// Subscriber is one consumer of the event stream: a bounded queue the bus
// fans events into without ever blocking. When the queue is full the bus
// drops the event for this subscriber and counts it — a slow consumer can
// never stall the worker pool or other subscribers. Drops are visible to
// the consumer as gaps in the sequence numbers.
type Subscriber struct {
	bus     *Bus
	ch      chan wsanclient.Event
	job     string // "" subscribes to everything (firehose)
	dropped int64  // guarded by bus.mu
	closed  bool   // guarded by bus.mu
}

// Events returns the subscriber's delivery channel. The channel is closed
// when the subscriber or the bus closes.
func (s *Subscriber) Events() <-chan wsanclient.Event { return s.ch }

// Dropped returns how many events were dropped for this subscriber.
func (s *Subscriber) Dropped() int64 {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.dropped
}

// Close unsubscribes and closes the delivery channel. Safe to call twice.
func (s *Subscriber) Close() {
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(b.subs, s)
	close(s.ch)
	if b.mets != nil {
		b.mets.Gauge("server.events.subscribers", float64(len(b.subs)))
	}
}

// SubscribeOptions parameterizes one subscription.
type SubscribeOptions struct {
	// Job filters the stream to one job's events; empty subscribes to the
	// firehose (every event, including metrics deltas).
	Job string
	// AfterSeq resumes after a sequence number: events still in the replay
	// ring with Seq > AfterSeq are delivered first, in order, before live
	// events. Zero means live-only.
	AfterSeq uint64
	// Buffer overrides the bus's per-subscriber queue capacity (0 = default).
	Buffer int
}

// Bus is the daemon's telemetry fan-out: producers publish events, SSE
// subscribers consume them through bounded queues with slow-consumer drop
// semantics. The bus stays inert — publishing is a single atomic load, no
// allocation, no lock — until the first subscriber ever attaches; from then
// on it also retains a bounded replay ring so reconnecting subscribers can
// resume from their last seen sequence number.
type Bus struct {
	mets      obs.Sink
	bufCap    int // default per-subscriber queue capacity
	replayCap int // replay ring capacity

	// active flips true on the first subscription and never back: retention
	// and publication start with the first consumer, so a daemon nobody
	// watches pays one atomic load per potential event and nothing else.
	active atomic.Bool

	mu     sync.Mutex
	seq    uint64
	subs   map[*Subscriber]struct{}
	ring   []wsanclient.Event // bounded history, oldest first
	closed bool
}

// Default bus sizing: per-subscriber queue and replay ring capacities.
const (
	defaultEventBuffer = 64
	defaultEventReplay = 1024
)

// NewBus builds an inactive bus. bufCap and replayCap fall back to the
// defaults when non-positive; mets (optional) receives the
// server.events.* counters.
func NewBus(bufCap, replayCap int, mets obs.Sink) *Bus {
	if bufCap <= 0 {
		bufCap = defaultEventBuffer
	}
	if replayCap <= 0 {
		replayCap = defaultEventReplay
	}
	return &Bus{
		mets:      mets,
		bufCap:    bufCap,
		replayCap: replayCap,
		subs:      make(map[*Subscriber]struct{}),
	}
}

// Enabled reports whether publishing does anything yet — producers on hot
// paths check it before building an event payload, keeping the
// zero-subscriber daemon allocation-free.
func (b *Bus) Enabled() bool { return b.active.Load() }

// HasSubscribers reports whether anyone is currently listening.
func (b *Bus) HasSubscribers() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs) > 0
}

// Subscribe attaches a consumer. With AfterSeq set, retained events after
// that sequence number (matching the Job filter) are queued for delivery
// before any live event, preserving order.
func (b *Bus) Subscribe(opts SubscribeOptions) (*Subscriber, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrBusClosed
	}
	buf := opts.Buffer
	if buf <= 0 {
		buf = b.bufCap
	}
	var replay []wsanclient.Event
	if opts.AfterSeq > 0 {
		for _, e := range b.ring {
			if e.Seq > opts.AfterSeq && (opts.Job == "" || opts.Job == e.Job) {
				replay = append(replay, e)
			}
		}
	}
	if buf < len(replay) {
		buf = len(replay)
	}
	sub := &Subscriber{bus: b, ch: make(chan wsanclient.Event, buf), job: opts.Job}
	for _, e := range replay {
		sub.ch <- e
	}
	b.subs[sub] = struct{}{}
	b.active.Store(true)
	if b.mets != nil {
		b.mets.Gauge("server.events.subscribers", float64(len(b.subs)))
	}
	return sub, nil
}

// Publish appends one event to the stream: it assigns the next sequence
// number, retains the event in the replay ring, and fans it out to every
// matching subscriber without blocking — a full subscriber queue drops the
// event for that subscriber and increments server.events.dropped. Publish
// is a no-op (one atomic load) until the first subscriber ever attaches.
// payload is marshalled to JSON as the event's Data.
func (b *Bus) Publish(typ, network, job string, payload any) {
	if !b.active.Load() {
		return
	}
	var data json.RawMessage
	if payload != nil {
		d, err := json.Marshal(payload)
		if err != nil {
			// An unmarshalable payload is a programming error; publish the
			// event without data rather than dropping the transition.
			d, _ = json.Marshal(map[string]string{"marshalError": err.Error()})
		}
		data = d
	}
	e := wsanclient.Event{Type: typ, Time: time.Now(), Network: network, Job: job, Data: data}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seq++
	e.Seq = b.seq
	if len(b.ring) < b.replayCap {
		b.ring = append(b.ring, e)
	} else {
		copy(b.ring, b.ring[1:])
		b.ring[len(b.ring)-1] = e
	}
	dropped := int64(0)
	for sub := range b.subs {
		if sub.job != "" && sub.job != e.Job {
			continue
		}
		select {
		case sub.ch <- e:
		default:
			sub.dropped++
			dropped++
		}
	}
	b.mu.Unlock()
	if b.mets != nil {
		b.mets.Count("server.events.published", 1)
		if dropped > 0 {
			b.mets.Count("server.events.dropped", dropped)
		}
	}
}

// Close shuts the bus down: every subscriber channel is closed and further
// subscriptions are rejected with ErrBusClosed.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for sub := range b.subs {
		sub.closed = true
		delete(b.subs, sub)
		close(sub.ch)
	}
	if b.mets != nil {
		b.mets.Gauge("server.events.subscribers", 0)
	}
}

// faultsTap forwards "faults.*" counter flushes from a simulation run as
// EventFaultCounts stream events. It is attached (via obs.MultiSink, next
// to the real registry) only while the bus is enabled, so the fault-free
// and subscriber-free paths pay nothing.
type faultsTap struct {
	bus     *Bus
	network string
	job     string
}

func (t *faultsTap) Count(name string, delta int64) {
	if delta != 0 && strings.HasPrefix(name, "faults.") {
		t.bus.Publish(wsanclient.EventFaultCounts, t.network, t.job, FaultCountsDelta{Counter: name, Delta: delta})
	}
}

func (t *faultsTap) Gauge(string, float64)   {}
func (t *faultsTap) Observe(string, float64) {}

// jobTransition publishes one lifecycle event for a job state change. It is
// installed as the job's transition hook at submission; with no subscriber
// attached it costs one atomic load and allocates nothing.
func (s *Server) jobTransition(j *Job) {
	if !s.bus.Enabled() {
		return
	}
	v := j.View()
	s.bus.Publish("job."+string(v.State), v.Network, v.ID, v)
}

// metricsLoop periodically publishes counter deltas to firehose
// subscribers. It computes the delta against the previous publication, so
// the first delta a fresh daemon publishes carries absolute values.
func (s *Server) metricsLoop(interval time.Duration) {
	defer close(s.metricsDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	var last map[string]int64
	for {
		select {
		case <-s.metricsStop:
			return
		case <-t.C:
			// The metrics ticker doubles as the store's TTL sweep cadence
			// (expired artifacts are also reclaimed lazily on access, so a
			// disabled loop only defers reclamation, never serves stale data).
			s.store.SweepExpired()
			if !s.bus.HasSubscribers() {
				continue
			}
			snap := s.mets.Snapshot()
			delta := make(map[string]int64, len(snap.Counters))
			for name, v := range snap.Counters {
				if v != last[name] {
					delta[name] = v - last[name]
				}
			}
			last = snap.Counters
			if len(delta) == 0 {
				continue
			}
			s.bus.Publish(wsanclient.EventMetricsDelta, "", "", MetricsDelta{Counters: delta, Gauges: snap.Gauges})
		}
	}
}

// parseAfterSeq extracts the resume cursor of an SSE request: the standard
// Last-Event-ID header (what EventSource sends on reconnect), overridable
// with ?lastEventID= for clients that cannot set headers.
func parseAfterSeq(r *http.Request) (uint64, error) {
	raw := r.Header.Get("Last-Event-ID")
	if q := r.URL.Query().Get("lastEventID"); q != "" {
		raw = q
	}
	if raw == "" {
		return 0, nil
	}
	seq, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid event ID %q", raw)
	}
	return seq, nil
}

// handleEvents serves the firehose: every event of every job, plus the
// periodic metrics deltas, as a server-sent-event stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.serveSSE(w, r, "")
}

// handleJobEvents serves one job's lifecycle + telemetry stream. The stream
// begins with a job.snapshot event carrying the job's current view and
// closes after the terminal lifecycle event is delivered.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, "job %q not found", id)
		return
	}
	s.serveSSE(w, r, id)
}

// sseHeartbeat is how often an idle SSE stream emits a comment line so
// dead connections are detected.
const sseHeartbeat = 15 * time.Second

// serveSSE implements both SSE endpoints: subscribe (with optional resume),
// prime per-job streams with a snapshot, then relay events until the client
// disconnects, the bus closes, or (per-job) the job reaches a terminal
// state.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, jobID string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, codeInternal, "streaming unsupported by this connection")
		return
	}
	afterSeq, err := parseAfterSeq(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	sub, err := s.bus.Subscribe(SubscribeOptions{Job: jobID, AfterSeq: afterSeq})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, codeDraining, "%v", err)
		return
	}
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// Push the headers out immediately: subscribers block on them to learn
	// the stream is live, and on a quiet firehose nothing else would flush
	// until the first event or heartbeat.
	flusher.Flush()

	terminal := false
	if jobID != "" {
		// Prime the stream: the subscription is already registered, so the
		// snapshot plus the live events cannot miss a transition (a
		// transition after the snapshot is queued; one before is in it).
		j, ok := s.Job(jobID)
		if !ok {
			return
		}
		v := j.View()
		terminal = v.State.Terminal()
		writeSSE(w, wsanclient.Event{Type: wsanclient.EventJobSnapshot, Time: time.Now(), Network: v.Network, Job: v.ID,
			Data: mustMarshal(v)})
		flusher.Flush()
	}
	if terminal {
		// The job already finished: deliver whatever the resume replay
		// queued (it cannot grow — terminal jobs publish nothing) and end
		// the stream.
		for {
			select {
			case ev, ok := <-sub.Events():
				if !ok {
					return
				}
				writeSSE(w, ev)
				flusher.Flush()
			default:
				return
			}
		}
	}
	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-sub.Events():
			if !ok {
				return // bus closed (daemon shutting down)
			}
			writeSSE(w, ev)
			flusher.Flush()
			if jobID != "" && wsanclient.TerminalEvent(ev.Type) {
				return
			}
		case <-heartbeat.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		}
	}
}

// writeSSE frames one event on the wire: the sequence number as the SSE id
// (driving Last-Event-ID resume), the event type, and the full event
// document as data. Synthetic events (Seq 0, e.g. job.snapshot) carry no id
// line so they never regress a client's resume cursor.
func writeSSE(w io.Writer, ev wsanclient.Event) {
	if ev.Seq > 0 {
		fmt.Fprintf(w, "id: %d\n", ev.Seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: ", ev.Type)
	data, err := json.Marshal(ev)
	if err != nil {
		data, _ = json.Marshal(map[string]string{"marshalError": err.Error()})
	}
	_, _ = w.Write(data)
	_, _ = io.WriteString(w, "\n\n")
}

// mustMarshal marshals a value that cannot fail (views of plain structs),
// degrading to an error document instead of panicking if it somehow does.
func mustMarshal(v any) json.RawMessage {
	d, err := json.Marshal(v)
	if err != nil {
		d, _ = json.Marshal(map[string]string{"marshalError": err.Error()})
	}
	return d
}
