package netsim

import (
	"bytes"
	"encoding/json"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/schedule"
	"wsan/internal/topology"
)

// reuseConfig builds an 8-node network running four 1–2-hop flows with a
// retry per hop, every cell shared by two transmissions, so co-channel
// interference, retries and duplicate retries all occur. Slot 0 holds the
// four primaries of the freshly released packets, the most transmissions
// any slot holds, so the first hyperperiod already reaches the run's peak
// concurrency.
func reuseConfig(t testing.TB, hyperperiods int) Config {
	t.Helper()
	nodes := make([]topology.Node, 8)
	for i := range nodes {
		nodes[i] = topology.Node{ID: i, X: float64(3 * i)}
	}
	flows := []*flow.Flow{
		{ID: 0, Src: 0, Dst: 2, Period: 10, Deadline: 10, Route: []flow.Link{{From: 0, To: 1}, {From: 1, To: 2}}},
		{ID: 1, Src: 3, Dst: 5, Period: 10, Deadline: 10, Route: []flow.Link{{From: 3, To: 4}, {From: 4, To: 5}}},
		{ID: 2, Src: 6, Dst: 7, Period: 10, Deadline: 10, Route: []flow.Link{{From: 6, To: 7}}},
		{ID: 3, Src: 2, Dst: 5, Period: 10, Deadline: 10, Route: []flow.Link{{From: 2, To: 5}}},
	}
	pairs := map[flow.Link]bool{}
	for _, f := range flows {
		for _, l := range f.Route {
			pairs[l] = true
		}
	}
	tb, err := topology.Custom("reuse", nodes, func(u, v, ch int) float64 {
		if pairs[flow.Link{From: u, To: v}] || pairs[flow.Link{From: v, To: u}] {
			return -78
		}
		return -88 - float64((u+v+ch)%8)
	}, topology.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.New(10, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	place := func(f *flow.Flow, hop, attempt, slot, off int) {
		t.Helper()
		if err := sched.Place(schedule.Tx{FlowID: f.ID, Hop: hop, Attempt: attempt,
			Link: f.Route[hop], Slot: slot, Offset: off}); err != nil {
			t.Fatal(err)
		}
	}
	for a := 0; a < 2; a++ {
		place(flows[0], 0, a, a, 0)
		place(flows[1], 0, a, a, 0)
		place(flows[2], 0, a, a, 1)
		place(flows[3], 0, a, a, 1)
		place(flows[0], 1, a, 2+a, 0)
		place(flows[1], 1, a, 2+a, 0)
	}
	return Config{
		Testbed: tb, Flows: flows, Schedule: sched,
		Channels: topology.Channels(2), Hyperperiods: hyperperiods,
		FadingSigmaDB: 3, SurveyDriftSigmaDB: 2, Retransmit: true,
		Interferers: []Interferer{{X: 10, PowerDBm: -30, DutyCycle: 0.3, MeanBurstSlots: 4,
			Channels: []int{0}}},
		EpochSlots: 50, SampleWindowSlots: 10, ProbeEverySlots: 7,
		Seed: 5,
	}
}

// TestSlotLoopAllocationFree pins the slot loop allocation-free: with
// epochs, probes, an interferer and survey drift on (metrics, trace and
// energy off), a 40-hyperperiod run allocates exactly what a 2-hyperperiod
// run does, so nothing is allocated per slot or per hyperperiod.
func TestSlotLoopAllocationFree(t *testing.T) {
	allocs := func(h int) float64 {
		cfg := reuseConfig(t, h)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.LinkEpochs) == 0 || res.Delivered[0] == 0 {
			t.Fatalf("H=%d: run produced no statistics or deliveries", h)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(2), allocs(40); short != long {
		t.Errorf("allocations grow with the run: %v at 2 hyperperiods, %v at 40", short, long)
	}
}

// TestUnreleasedTransmissionsNeverFire pins what the simulator does with
// schedule entries no packet can reach: a transmission of a flow missing
// from Config.Flows, or of an instance outside [0, hyper/period), never
// goes on the air and does not disturb the rest of the run.
func TestUnreleasedTransmissionsNeverFire(t *testing.T) {
	run := func(bogus []schedule.Tx) (*Result, []byte) {
		cfg := reuseConfig(t, 30)
		for _, tx := range bogus {
			if err := cfg.Schedule.Place(tx); err != nil {
				t.Fatal(err)
			}
		}
		var trace bytes.Buffer
		cfg.Trace = &trace
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, trace.Bytes()
	}
	bogus := []schedule.Tx{
		{FlowID: 42, Link: flow.Link{From: 6, To: 7}, Slot: 5, Offset: 0},
		{FlowID: 2, Instance: 1, Link: flow.Link{From: 6, To: 7}, Slot: 6, Offset: 0},
		{FlowID: 3, Instance: -1, Link: flow.Link{From: 2, To: 5}, Slot: 7, Offset: 1},
	}
	ref, refTrace := run(nil)
	res, trace := run(bogus)
	if !bytes.Equal(trace, refTrace) {
		t.Error("unreleased transmissions changed the event trace")
	}
	dec := json.NewDecoder(bytes.NewReader(trace))
	for dec.More() {
		var ev TraceEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Slot >= 5 && ev.Slot <= 7 {
			t.Fatalf("an unreleased transmission fired: %+v", ev)
		}
	}
	for id, n := range ref.Delivered {
		if res.Delivered[id] != n || res.Released[id] != ref.Released[id] {
			t.Errorf("flow %d: delivered/released %d/%d, want %d/%d",
				id, res.Delivered[id], res.Released[id], n, ref.Released[id])
		}
	}
	if _, ok := res.Released[42]; ok {
		t.Error("a flow missing from Config.Flows was credited with releases")
	}
}
