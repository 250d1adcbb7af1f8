package repair

import (
	"bytes"
	"testing"

	"wsan/internal/detect"
	"wsan/internal/flow"
	"wsan/internal/schedule"
)

// twoFlowShared builds a schedule where flows 0 and 1 share cell (0,0):
// flow 0 = 0→1, flow 1 = 4→5, plenty of free slots afterwards.
func twoFlowShared(t *testing.T) (*schedule.Schedule, []*flow.Flow) {
	t.Helper()
	flows := []*flow.Flow{
		{ID: 0, Src: 0, Dst: 1, Period: 20, Deadline: 20,
			Route: []flow.Link{{From: 0, To: 1}}},
		{ID: 1, Src: 4, Dst: 5, Period: 20, Deadline: 20,
			Route: []flow.Link{{From: 4, To: 5}}},
	}
	s, err := schedule.New(20, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		err := s.Place(schedule.Tx{
			FlowID: f.ID, Link: f.Route[0], Slot: 0, Offset: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return s, flows
}

func TestRescheduleMovesDegradedLink(t *testing.T) {
	s, flows := twoFlowShared(t)
	res, err := Reschedule(s, flows, []flow.Link{{From: 4, To: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 1 || len(res.Failed) != 0 || res.DegradedLinks != 1 {
		t.Fatalf("result = %+v", res)
	}
	// No shared cells remain.
	for k := range s.TxPerChannelHist() {
		if k > 1 {
			t.Error("shared cell survived repair")
		}
	}
	// The untouched flow stays at its original placement.
	found := false
	for _, tx := range s.Txs() {
		if tx.FlowID == 0 {
			found = true
			if tx.Slot != 0 || tx.Offset != 0 {
				t.Errorf("untouched flow moved: %+v", tx)
			}
		}
	}
	if !found {
		t.Fatal("flow 0 disappeared")
	}
	// Structure still valid.
	if err := s.Validate(nil, 0); err != nil {
		t.Errorf("repaired schedule invalid: %v", err)
	}
}

func TestRescheduleLeavesExclusiveCellsAlone(t *testing.T) {
	s, flows := twoFlowShared(t)
	// Degraded link not in any shared cell beyond (0,0)... mark a link that
	// is NOT in the schedule at all.
	res, err := Reschedule(s, flows, []flow.Link{{From: 2, To: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 0 {
		t.Errorf("nothing should move: %+v", res)
	}
}

func TestRescheduleRespectsRouteOrder(t *testing.T) {
	// Flow 0: 0→1→2 with hops at slots 2 and 3 (hop 1 shares its cell with
	// flow 1). Repair must keep hop 1 strictly after hop 0 (slot 2) and
	// within the deadline.
	flows := []*flow.Flow{
		{ID: 0, Src: 0, Dst: 2, Period: 10, Deadline: 6,
			Route: []flow.Link{{From: 0, To: 1}, {From: 1, To: 2}}},
		{ID: 1, Src: 4, Dst: 5, Period: 10, Deadline: 10,
			Route: []flow.Link{{From: 4, To: 5}}},
	}
	s, err := schedule.New(10, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	placements := []schedule.Tx{
		{FlowID: 0, Hop: 0, Link: flows[0].Route[0], Slot: 2, Offset: 0},
		{FlowID: 0, Hop: 1, Link: flows[0].Route[1], Slot: 3, Offset: 0},
		{FlowID: 1, Hop: 0, Link: flows[1].Route[0], Slot: 3, Offset: 0},
	}
	for _, p := range placements {
		if err := s.Place(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Reschedule(s, flows, []flow.Link{{From: 1, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 1 {
		t.Fatalf("result = %+v", res)
	}
	for _, tx := range s.Txs() {
		if tx.FlowID == 0 && tx.Hop == 1 {
			if tx.Slot <= 2 || tx.Slot > 5 {
				t.Errorf("moved hop at slot %d outside (2, 5]", tx.Slot)
			}
		}
	}
	if err := s.Validate(nil, 0); err != nil {
		t.Errorf("repaired schedule invalid: %v", err)
	}
}

func TestRescheduleFailsGracefullyWhenFull(t *testing.T) {
	// One channel, every slot in the window occupied by a third node pair:
	// the victim cannot move and must stay put.
	flows := []*flow.Flow{
		{ID: 0, Src: 0, Dst: 1, Period: 4, Deadline: 4,
			Route: []flow.Link{{From: 0, To: 1}}},
		{ID: 1, Src: 4, Dst: 5, Period: 4, Deadline: 4,
			Route: []flow.Link{{From: 4, To: 5}}},
		{ID: 2, Src: 2, Dst: 3, Period: 4, Deadline: 4,
			Route: []flow.Link{{From: 2, To: 3}}},
	}
	s, err := schedule.New(4, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	placements := []schedule.Tx{
		{FlowID: 0, Link: flows[0].Route[0], Slot: 0, Offset: 0},
		{FlowID: 1, Link: flows[1].Route[0], Slot: 0, Offset: 0}, // shared
		{FlowID: 2, Instance: 0, Link: flows[2].Route[0], Slot: 1, Offset: 0},
	}
	for _, p := range placements {
		if err := s.Place(p); err != nil {
			t.Fatal(err)
		}
	}
	// Fill remaining slots 2,3 with more instances of flow 2's link via
	// distinct instances.
	for slot := 2; slot <= 3; slot++ {
		err := s.Place(schedule.Tx{
			FlowID: 2, Instance: slot, Link: flows[2].Route[0], Slot: slot, Offset: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	before := s.Len()
	res, err := Reschedule(s, flows, []flow.Link{{From: 4, To: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 0 || len(res.Failed) != 1 {
		t.Fatalf("result = %+v", res)
	}
	if s.Len() != before {
		t.Error("failed repair must restore the original placement")
	}
	if err := s.Validate(nil, 1); err == nil {
		// Reuse still present (rhoT=1 allows it with hop matrix... skip).
		_ = err
	}
}

func TestRescheduleFromReports(t *testing.T) {
	s, flows := twoFlowShared(t)
	reports := []detect.Report{
		{Link: flow.Link{From: 4, To: 5}, Verdict: detect.ReuseDegraded},
		{Link: flow.Link{From: 0, To: 1}, Verdict: detect.OtherCause},
	}
	res, err := RescheduleFromReports(s, flows, reports)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 1 || res.DegradedLinks != 1 {
		t.Fatalf("result = %+v", res)
	}
}

func TestRescheduleNilSchedule(t *testing.T) {
	if _, err := Reschedule(nil, nil, nil); err == nil {
		t.Error("nil schedule should fail")
	}
}

func TestRescheduleUnknownFlow(t *testing.T) {
	s, flows := twoFlowShared(t)
	if _, err := Reschedule(s, flows[:1], []flow.Link{{From: 4, To: 5}}); err == nil {
		t.Error("schedule referencing unknown flow should fail")
	}
}

// TestErrorsLeaveScheduleUntouched checks that a repair or compaction that
// fails on an unknown flow or a broken route order leaves no earlier move
// behind: the schedule's encoding is byte-identical to the input.
func TestErrorsLeaveScheduleUntouched(t *testing.T) {
	encode := func(s *schedule.Schedule) []byte {
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Flow 0's victim comes first and has a free offset to move to; flow 1
	// is unknown.
	s, flows := twoFlowShared(t)
	before := encode(s)
	if _, err := Reschedule(s, flows[:1], []flow.Link{{From: 0, To: 1}, {From: 4, To: 5}}); err == nil {
		t.Fatal("repair of a schedule referencing an unknown flow succeeded")
	}
	if !bytes.Equal(encode(s), before) {
		t.Errorf("failed repair changed the schedule:\n got %s\nwant %s", encode(s), before)
	}

	// Flow 0's late transmission comes first in slot order and can move
	// earlier; flow 7 is unknown.
	f := &flow.Flow{ID: 0, Src: 0, Dst: 1, Period: 10, Deadline: 10,
		Route: []flow.Link{{From: 0, To: 1}}}
	s, err := schedule.New(10, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range []schedule.Tx{
		{FlowID: 0, Link: f.Route[0], Slot: 5},
		{FlowID: 7, Link: flow.Link{From: 2, To: 3}, Slot: 8},
	} {
		if err := s.Place(tx); err != nil {
			t.Fatal(err)
		}
	}
	before = encode(s)
	if moved, err := Compact(s, []*flow.Flow{f}); err == nil || moved != 0 {
		t.Fatalf("compaction with an unknown flow = %d moved, err %v; want 0 and an error", moved, err)
	}
	if !bytes.Equal(encode(s), before) {
		t.Errorf("failed compaction changed the schedule:\n got %s\nwant %s", encode(s), before)
	}

	// Flow 0's hop 1 runs before its hop 0: no slot keeps the route order.
	two := &flow.Flow{ID: 0, Src: 0, Dst: 2, Period: 10, Deadline: 10,
		Route: []flow.Link{{From: 0, To: 1}, {From: 1, To: 2}}}
	other := &flow.Flow{ID: 1, Src: 4, Dst: 5, Period: 10, Deadline: 10,
		Route: []flow.Link{{From: 4, To: 5}}}
	s, err = schedule.New(10, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range []schedule.Tx{
		{FlowID: 0, Hop: 1, Link: two.Route[1], Slot: 1},
		{FlowID: 0, Hop: 0, Link: two.Route[0], Slot: 3},
		{FlowID: 1, Link: other.Route[0], Slot: 1},
	} {
		if err := s.Place(tx); err != nil {
			t.Fatal(err)
		}
	}
	before = encode(s)
	if _, err := Reschedule(s, []*flow.Flow{two, other}, []flow.Link{{From: 1, To: 2}, {From: 4, To: 5}}); err == nil {
		t.Fatal("repair of a schedule breaking its route order succeeded")
	}
	if !bytes.Equal(encode(s), before) {
		t.Errorf("failed repair changed the schedule:\n got %s\nwant %s", encode(s), before)
	}
}
