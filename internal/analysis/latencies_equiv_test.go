package analysis

import (
	"fmt"
	"slices"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/schedule"
)

// refLatencies is a verbatim copy of Latencies before its per-instance map
// was replaced by the dense table, kept as the oracle the table version must
// reproduce exactly. It panics on a zero period.
func refLatencies(flows []*flow.Flow, sched *schedule.Schedule) ([]FlowLatency, error) {
	if sched == nil {
		return nil, fmt.Errorf("analysis: nil schedule")
	}
	byID := make(map[int]*flow.Flow, len(flows))
	for _, f := range flows {
		byID[f.ID] = f
	}
	// lastSlot[flow][instance] = last scheduled slot.
	type key struct{ id, inst int }
	last := make(map[key]int)
	for _, tx := range sched.Txs() {
		k := key{tx.FlowID, tx.Instance}
		if s, ok := last[k]; !ok || tx.Slot > s {
			last[k] = tx.Slot
		}
	}
	hyper := sched.NumSlots()
	out := make([]FlowLatency, 0, len(flows))
	for _, f := range flows {
		instances := hyper / f.Period
		if instances == 0 {
			return nil, fmt.Errorf("analysis: flow %d period %d exceeds schedule length %d",
				f.ID, f.Period, hyper)
		}
		fl := FlowLatency{FlowID: f.ID, BestSlots: int(^uint(0) >> 1), DeadlineSlots: f.Deadline}
		total := 0
		for inst := 0; inst < instances; inst++ {
			s, ok := last[key{f.ID, inst}]
			if !ok {
				return nil, fmt.Errorf("analysis: flow %d instance %d missing from schedule", f.ID, inst)
			}
			lat := s - f.Release(inst) + 1
			total += lat
			if lat > fl.WorstSlots {
				fl.WorstSlots = lat
			}
			if lat < fl.BestSlots {
				fl.BestSlots = lat
			}
		}
		fl.MeanSlots = float64(total) / float64(instances)
		out = append(out, fl)
	}
	return out, nil
}

// FuzzLatencies decodes a schedule and a flow set from the input and checks
// Latencies against the reference: the same result, or the same error text.
// The first two bytes give the schedule length (1–128 slots) and the flow
// count (0–7). Each flow takes three bytes: an ID in −1..4, so IDs repeat
// with different periods, a signed period, and a phase of 0–3. Each
// remaining four bytes place one transmission, rejected placements
// skipped: a flow ID in −1..6, so some transmissions belong to no listed
// flow, a signed instance (negative and out-of-range ones included), a slot
// and a link between two of 32 nodes. Where a period is not positive the
// reference panics; Latencies must instead report the first such flow.
func FuzzLatencies(f *testing.F) {
	// One flow, two instances, both placed.
	f.Add([]byte{20, 1, 0, 10, 0, 0, 0, 0, 1, 0, 0, 3, 2, 0, 1, 10, 3, 0, 1, 15, 4})
	// ID 2 twice with periods 5 and 10; one instance missing.
	f.Add([]byte{20, 2, 2, 5, 1, 2, 10, 0, 2, 0, 1, 9, 2, 1, 6, 0x21, 2, 2, 12, 0x42, 2, 0xff, 3, 5})
	// A period longer than the schedule and a transmission of an unlisted flow.
	f.Add([]byte{8, 2, 0, 4, 0, 1, 100, 0, 0, 0, 2, 3, 0, 1, 5, 7, 6, 0, 1, 8})
	// A zero and a negative period.
	f.Add([]byte{16, 3, 0, 8, 0, 1, 0, 0, 2, 0xf0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		const nodes = 32
		s, err := schedule.New(1+next()%128, 2, nodes)
		if err != nil {
			t.Fatal(err)
		}
		flows := make([]*flow.Flow, next()%8)
		badPeriod := -1
		for i := range flows {
			id, period, phase := next()%6-1, int(int8(next())), next()%4
			flows[i] = &flow.Flow{ID: id, Period: period, Deadline: max(period, 1), Phase: phase}
			if period <= 0 && badPeriod < 0 {
				badPeriod = i
			}
		}
		for len(data) > 0 {
			id, inst, slot, link := next()%8-1, int(int8(next())), next(), next()
			_ = s.Place(schedule.Tx{
				FlowID: id, Instance: inst, Slot: slot % s.NumSlots(),
				Link: flow.Link{From: link % nodes, To: (link/nodes + link + 1) % nodes},
			})
		}
		got, err := Latencies(flows, s)
		if badPeriod >= 0 {
			bad := flows[badPeriod]
			want := fmt.Sprintf("analysis: flow %d: period %d must be positive", bad.ID, bad.Period)
			if got != nil || err == nil || err.Error() != want {
				t.Fatalf("non-positive period: got %+v, error %v, want %q", got, err, want)
			}
			return
		}
		want, refErr := refLatencies(flows, s)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || !slices.Equal(got, want) {
			t.Fatalf("got %+v, error %v\nwant %+v, error %v", got, err, want, refErr)
		}
	})
}
