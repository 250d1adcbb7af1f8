// Package faults is the deterministic fault-injection engine of the
// pipeline: a scenario is a timeline of typed events — node crashes and
// recoveries, link blackouts and restorations, interference bursts starting
// and stopping on given channels, and step changes in the survey-to-runtime
// gain drift — that the network simulator applies as gain and topology
// overlays while it executes a schedule.
//
// Everything is seeded and order-independent: the same scenario JSON under
// the same simulation seed replays bit-identically, so a recovery trace
// produced by the management loop is reproducible evidence, not an anecdote.
// The paper's Sec. VI closed loop exists to keep flows above PRR_t when the
// network degrades; this package supplies the degradation.
package faults

import (
	"fmt"
	"sort"

	"wsan/internal/flow"
	"wsan/internal/radio"
	"wsan/internal/topology"
)

// EventKind names one fault-event type. The values are the wire strings of
// the scenario JSON format.
type EventKind string

const (
	// NodeCrash silences a node: it neither transmits nor receives until a
	// NodeRecover for the same node.
	NodeCrash EventKind = "node-crash"
	// NodeRecover brings a crashed node back.
	NodeRecover EventKind = "node-recover"
	// LinkBlackout severs one link in both directions (an obstacle, a
	// detuned antenna) until a LinkRestore for the same pair.
	LinkBlackout EventKind = "link-blackout"
	// LinkRestore lifts a blackout.
	LinkRestore EventKind = "link-restore"
	// InterferenceStart raises the noise floor by PowerDBm at every receiver
	// on the listed channels (a field-wide jammer, e.g. a WiFi AP moving in).
	// A later start on the same channel replaces its power.
	InterferenceStart EventKind = "interference-start"
	// InterferenceStop clears scenario interference from the listed channels.
	InterferenceStop EventKind = "interference-stop"
	// DriftStep layers an additional per-(link, channel) Gaussian gain offset
	// of the given σ onto the radio environment from this point on — the
	// survey aging in one discrete step (furniture moved, a wall went up).
	// Offsets are realized deterministically from the scenario seed and the
	// event's position, so replays see the same environment shift.
	DriftStep EventKind = "drift-step"
)

// Event is one timeline entry. At is the absolute slot (ASN) from which the
// event takes effect; which other fields are meaningful depends on Kind.
type Event struct {
	At   int       `json:"at"`
	Kind EventKind `json:"kind"`
	// Node identifies the subject of node-crash / node-recover.
	Node int `json:"node,omitempty"`
	// Link identifies the pair of link-blackout / link-restore.
	Link *flow.Link `json:"link,omitempty"`
	// Channels lists the physical channel indices of interference-start /
	// interference-stop.
	Channels []int `json:"channels,omitempty"`
	// PowerDBm is the interference power at every receiver
	// (interference-start only).
	PowerDBm float64 `json:"powerDBm,omitempty"`
	// SigmaDB is the Gaussian σ of a drift-step.
	SigmaDB float64 `json:"sigmaDB,omitempty"`
}

// Validate checks one event in isolation. numNodes 0 skips node-range
// checks (the loader does not know the testbed yet).
func (e *Event) Validate(numNodes int) error {
	if e.At < 0 {
		return fmt.Errorf("faults: event at slot %d: negative time", e.At)
	}
	switch e.Kind {
	case NodeCrash, NodeRecover:
		if e.Node < 0 || (numNodes > 0 && e.Node >= numNodes) {
			return fmt.Errorf("faults: %s at slot %d: node %d out of range", e.Kind, e.At, e.Node)
		}
	case LinkBlackout, LinkRestore:
		if e.Link == nil {
			return fmt.Errorf("faults: %s at slot %d: link is required", e.Kind, e.At)
		}
		if e.Link.From == e.Link.To || e.Link.From < 0 || e.Link.To < 0 ||
			(numNodes > 0 && (e.Link.From >= numNodes || e.Link.To >= numNodes)) {
			return fmt.Errorf("faults: %s at slot %d: bad link %d→%d", e.Kind, e.At, e.Link.From, e.Link.To)
		}
	case InterferenceStart, InterferenceStop:
		if len(e.Channels) == 0 {
			return fmt.Errorf("faults: %s at slot %d: channels are required", e.Kind, e.At)
		}
		for _, ch := range e.Channels {
			if ch < 0 || ch >= topology.NumChannels {
				return fmt.Errorf("faults: %s at slot %d: channel index %d out of range", e.Kind, e.At, ch)
			}
		}
	case DriftStep:
		if e.SigmaDB < 0 {
			return fmt.Errorf("faults: drift-step at slot %d: negative sigma %g", e.At, e.SigmaDB)
		}
	default:
		return fmt.Errorf("faults: unknown event kind %q at slot %d", e.Kind, e.At)
	}
	return nil
}

// Scenario is a named, seeded fault timeline.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name,omitempty"`
	// Seed drives the deterministic realization of drift steps. Zero is a
	// valid seed.
	Seed int64 `json:"seed,omitempty"`
	// Events is the timeline; it need not be pre-sorted, the engine orders
	// by At (stably, so same-slot events apply in listing order).
	Events []Event `json:"events"`
}

// Validate checks every event. numNodes 0 skips node-range checks.
func (s *Scenario) Validate(numNodes int) error {
	if s == nil {
		return nil
	}
	for i := range s.Events {
		if err := s.Events[i].Validate(numNodes); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Counts tallies the events an Overlay has applied, by kind — the fault
// engine's observability surface (flushed as "faults.*" counters).
type Counts struct {
	NodeCrashes        int64
	NodeRecoveries     int64
	LinkBlackouts      int64
	LinkRestores       int64
	InterferenceStarts int64
	InterferenceStops  int64
	DriftSteps         int64
}

// Total returns the number of applied events.
func (c Counts) Total() int64 {
	return c.NodeCrashes + c.NodeRecoveries + c.LinkBlackouts + c.LinkRestores +
		c.InterferenceStarts + c.InterferenceStops + c.DriftSteps
}

// driftLayer is one active drift step: a deterministic per-(tx, rx, channel)
// Gaussian offset field.
type driftLayer struct {
	seed    int64
	sigmaDB float64
}

// Overlay is the runtime state machine of one scenario: feed it the
// simulation clock with Advance and query the current fault state. It is the
// simulator-side view; the manage loop reads the same state through the
// snapshot accessors to decide reroutes. Not safe for concurrent use — each
// simulation run owns its own Overlay.
type Overlay struct {
	seed   int64
	events []Event // sorted by At, stable
	next   int     // first unapplied event

	nodeDown map[int]bool
	linkDown map[[2]int]bool
	interfMW [topology.NumChannels]float64
	drifts   []driftLayer

	counts Counts
}

// NewOverlay compiles a scenario into its runtime overlay, validating every
// event against the testbed size. A nil scenario yields a valid overlay that
// never reports faults.
func NewOverlay(sc *Scenario, numNodes int) (*Overlay, error) {
	o := &Overlay{
		nodeDown: make(map[int]bool),
		linkDown: make(map[[2]int]bool),
	}
	if sc == nil {
		return o, nil
	}
	if err := sc.Validate(numNodes); err != nil {
		return nil, err
	}
	o.seed = sc.Seed
	o.events = append([]Event(nil), sc.Events...)
	sort.SliceStable(o.events, func(i, j int) bool { return o.events[i].At < o.events[j].At })
	return o, nil
}

// Advance applies every event with At ≤ asn that has not been applied yet
// and returns how many fired. Calls must use a non-decreasing clock.
func (o *Overlay) Advance(asn int) int {
	applied := 0
	for o.next < len(o.events) && o.events[o.next].At <= asn {
		o.apply(o.events[o.next], o.next)
		o.next++
		applied++
	}
	return applied
}

// apply mutates the overlay state for one event. idx is the event's position
// in the sorted timeline, which keys the drift-step realization.
func (o *Overlay) apply(e Event, idx int) {
	switch e.Kind {
	case NodeCrash:
		o.nodeDown[e.Node] = true
		o.counts.NodeCrashes++
	case NodeRecover:
		delete(o.nodeDown, e.Node)
		o.counts.NodeRecoveries++
	case LinkBlackout:
		o.linkDown[linkKey(e.Link.From, e.Link.To)] = true
		o.counts.LinkBlackouts++
	case LinkRestore:
		delete(o.linkDown, linkKey(e.Link.From, e.Link.To))
		o.counts.LinkRestores++
	case InterferenceStart:
		mw := radio.DBmToMilliwatts(e.PowerDBm)
		for _, ch := range e.Channels {
			o.interfMW[ch] = mw
		}
		o.counts.InterferenceStarts++
	case InterferenceStop:
		for _, ch := range e.Channels {
			o.interfMW[ch] = 0
		}
		o.counts.InterferenceStops++
	case DriftStep:
		// Each step gets its own seed so two steps of equal σ realize
		// independent offset fields.
		o.drifts = append(o.drifts, driftLayer{seed: o.seed + int64(idx) + 1, sigmaDB: e.SigmaDB})
		o.counts.DriftSteps++
	}
}

// linkKey canonicalizes an undirected pair.
func linkKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// NodeDown reports whether the node is currently crashed.
func (o *Overlay) NodeDown(id int) bool { return o.nodeDown[id] }

// LinkDown reports whether the pair is currently blacked out (either
// direction).
func (o *Overlay) LinkDown(u, v int) bool { return o.linkDown[linkKey(u, v)] }

// InterferenceMW returns the scenario interference power (linear milliwatts)
// currently raising the noise floor on a physical channel at every receiver.
func (o *Overlay) InterferenceMW(ch int) float64 {
	if ch < 0 || ch >= topology.NumChannels {
		return 0
	}
	return o.interfMW[ch]
}

// GainOffsetDB returns the cumulative drift-step offset for one directed
// (tx, rx, channel) path, in dB.
func (o *Overlay) GainOffsetDB(tx, rx, ch int) float64 {
	total := 0.0
	for _, d := range o.drifts {
		total += radio.GaussianHash(d.seed, tx, rx, ch) * d.sigmaDB
	}
	return total
}

// HasDrift reports whether any drift step is active (lets the simulator skip
// the per-evaluation offset when the scenario has none).
func (o *Overlay) HasDrift() bool { return len(o.drifts) > 0 }

// Counts returns the applied-event tallies so far.
func (o *Overlay) Counts() Counts { return o.counts }

// CrashedNodes returns the currently crashed node IDs, sorted: the fault
// timeline's ground truth. The manage loop does not read it; it infers
// suspect nodes from the outcomes it observes.
func (o *Overlay) CrashedNodes() []int {
	out := make([]int, 0, len(o.nodeDown))
	for id := range o.nodeDown {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// BlackedLinks returns the currently blacked-out pairs in canonical
// (low, high) order, sorted.
func (o *Overlay) BlackedLinks() []flow.Link {
	out := make([]flow.Link, 0, len(o.linkDown))
	for k := range o.linkDown {
		out = append(out, flow.Link{From: k[0], To: k[1]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// InterferedChannels returns the physical channel indices currently under
// scenario interference, sorted.
func (o *Overlay) InterferedChannels() []int {
	var out []int
	for ch, mw := range o.interfMW {
		if mw > 0 {
			out = append(out, ch)
		}
	}
	return out
}
