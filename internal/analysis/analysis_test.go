package analysis

import (
	"fmt"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/schedule"
)

func mkFlow(id, src, dst, period, deadline int, route ...int) *flow.Flow {
	f := &flow.Flow{ID: id, Src: src, Dst: dst, Period: period, Deadline: deadline}
	for i := 0; i+1 < len(route); i++ {
		f.Route = append(f.Route, flow.Link{From: route[i], To: route[i+1]})
	}
	return f
}

func place(t *testing.T, s *schedule.Schedule, flowID, inst, hop, from, to, slot, offset int) {
	t.Helper()
	err := s.Place(schedule.Tx{
		FlowID: flowID, Instance: inst, Hop: hop,
		Link: flow.Link{From: from, To: to}, Slot: slot, Offset: offset,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLatencies(t *testing.T) {
	f := mkFlow(0, 0, 2, 10, 8, 0, 1, 2)
	s, err := schedule.New(20, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Instance 0: slots 0 and 3 → latency 4. Instance 1: slots 10, 15 →
	// latency 6.
	place(t, s, 0, 0, 0, 0, 1, 0, 0)
	place(t, s, 0, 0, 1, 1, 2, 3, 0)
	place(t, s, 0, 1, 0, 0, 1, 10, 0)
	place(t, s, 0, 1, 1, 1, 2, 15, 0)
	lats, err := Latencies([]*flow.Flow{f}, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(lats) != 1 {
		t.Fatalf("got %d entries", len(lats))
	}
	l := lats[0]
	if l.WorstSlots != 6 || l.BestSlots != 4 || l.MeanSlots != 5 {
		t.Errorf("latency = %+v", l)
	}
	if l.Slack() != 2 {
		t.Errorf("slack = %d, want 2", l.Slack())
	}
}

func TestLatenciesMissingInstance(t *testing.T) {
	f := mkFlow(0, 0, 1, 10, 10, 0, 1)
	s, err := schedule.New(20, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	place(t, s, 0, 0, 0, 0, 1, 0, 0) // instance 1 missing
	if _, err := Latencies([]*flow.Flow{f}, s); err == nil {
		t.Error("missing instance should fail")
	}
}

func TestLatenciesNilSchedule(t *testing.T) {
	if _, err := Latencies(nil, nil); err == nil {
		t.Error("nil schedule should fail")
	}
}

// TestLatenciesNonPositivePeriod: a zero period used to divide by zero and
// a negative one to return a meaningless latency. Both are errors naming
// the first such flow in the given order.
func TestLatenciesNonPositivePeriod(t *testing.T) {
	s, err := schedule.New(20, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	place(t, s, 0, 0, 0, 0, 1, 0, 0)
	for _, period := range []int{0, -10} {
		flows := []*flow.Flow{mkFlow(0, 0, 1, 20, 20, 0, 1), mkFlow(3, 0, 1, period, 10, 0, 1), mkFlow(4, 0, 1, -1, 10, 0, 1)}
		_, err := Latencies(flows, s)
		want := fmt.Sprintf("analysis: flow 3: period %d must be positive", period)
		if err == nil || err.Error() != want {
			t.Errorf("period %d: error %v, want %q", period, err, want)
		}
	}
}

func TestLatenciesPeriodTooLong(t *testing.T) {
	f := mkFlow(0, 0, 1, 100, 100, 0, 1)
	s, err := schedule.New(20, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Latencies([]*flow.Flow{f}, s); err == nil {
		t.Error("period longer than schedule should fail")
	}
}

func TestComputeUtilization(t *testing.T) {
	// Two flows, hyperperiod 20: flow 0 period 10 (2 instances, 2 hops),
	// flow 1 period 20 (1 instance, 1 hop). attempts=2.
	flows := []*flow.Flow{
		mkFlow(0, 0, 2, 10, 10, 0, 1, 2),
		mkFlow(1, 3, 4, 20, 20, 3, 4),
	}
	u, err := ComputeUtilization(flows, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// totalTx = 2 inst × 2 hops × 2 + 1 × 1 × 2 = 10; capacity = 20 × 2 = 40.
	if u.Channel != 0.25 {
		t.Errorf("channel utilization = %v, want 0.25", u.Channel)
	}
	// Node 1 is in both hops of flow 0: demand 2 inst × 2 attempts × 2 hops
	// = 8 of 20 slots.
	if u.BottleneckID != 1 || u.BottleneckNode != 0.4 {
		t.Errorf("bottleneck = node %d @ %v, want node 1 @ 0.4", u.BottleneckID, u.BottleneckNode)
	}
}

func TestComputeUtilizationErrors(t *testing.T) {
	flows := []*flow.Flow{mkFlow(0, 0, 1, 10, 10, 0, 1)}
	if _, err := ComputeUtilization(flows, 0, 2); err == nil {
		t.Error("zero channels should fail")
	}
	if _, err := ComputeUtilization(flows, 2, 0); err == nil {
		t.Error("zero attempts should fail")
	}
	noRoute := []*flow.Flow{{ID: 0, Src: 0, Dst: 1, Period: 10, Deadline: 10}}
	if _, err := ComputeUtilization(noRoute, 2, 2); err == nil {
		t.Error("unrouted flow should fail")
	}
	if _, err := ComputeUtilization(nil, 2, 2); err == nil {
		t.Error("empty set should fail")
	}
}

// The Necessary tests check the necessary conditions that the utilization
// and delay-bound views expose: no node busy in more than every slot, channel
// demand within capacity unless channels are reused, and every flow's own
// transmissions within its deadline.
func TestNecessarySchedulable(t *testing.T) {
	ok := []*flow.Flow{mkFlow(0, 0, 2, 100, 80, 0, 1, 2)}
	u, err := ComputeUtilization(ok, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if u.BottleneckNode > 1 || u.Channel > 1 {
		t.Errorf("light load over capacity: %+v", u)
	}
	bounds, err := DelayAnalysis(ok, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !AllSchedulable(bounds) || bounds[0].ResponseSlots != 4 {
		t.Errorf("light load bound %+v, want schedulable in 4 slots", bounds)
	}
}

func TestNecessaryDeadlineTooTight(t *testing.T) {
	f := mkFlow(0, 0, 3, 100, 5, 0, 1, 2, 3) // 3 hops × 2 attempts = 6 > 5
	bounds, err := DelayAnalysis([]*flow.Flow{f}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bounds[0].Schedulable {
		t.Errorf("6 slots admitted within a 5-slot deadline: %+v", bounds[0])
	}
}

func TestNecessaryNodeOverload(t *testing.T) {
	// Node 1 relays both flows every 4 slots: 2 flows × 2 hops × 2 attempts
	// = 8 slots of node 1's time per 4.
	flows := []*flow.Flow{
		mkFlow(0, 0, 2, 4, 4, 0, 1, 2),
		mkFlow(1, 3, 4, 4, 4, 3, 1, 4),
	}
	u, err := ComputeUtilization(flows, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if u.BottleneckID != 1 || u.BottleneckNode != 2 {
		t.Errorf("bottleneck = node %d @ %v, want node 1 @ 2", u.BottleneckID, u.BottleneckNode)
	}
}

// TestUtilizationCountsBudgets: a flow's per-hop TxBudget, not the uniform
// attempt count, is its demand. Two flows relaying through node 1 every 8
// slots load it 4/8 at one attempt per hop, but 12/8 under their 3-attempt
// budgets, so only the budget-aware count sees the overload.
func TestUtilizationCountsBudgets(t *testing.T) {
	flows := []*flow.Flow{
		mkFlow(0, 0, 2, 8, 8, 0, 1, 2),
		mkFlow(1, 3, 4, 8, 8, 3, 1, 4),
	}
	u, err := ComputeUtilization(flows, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u.BottleneckNode != 0.5 || u.BottleneckID != 1 {
		t.Fatalf("unbudgeted bottleneck %v at node %d, want 0.5 at node 1", u.BottleneckNode, u.BottleneckID)
	}
	for _, f := range flows {
		f.TxBudget = []int{3, 3}
	}
	u, err = ComputeUtilization(flows, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u.BottleneckNode != 1.5 || u.BottleneckID != 1 || u.Channel != 1.5 {
		t.Errorf("budgeted utilization %+v, want node 1 at 1.5 and channel 1.5", u)
	}
	// A budget that breaks flow.ValidateBudget is an error, not a panic.
	for _, budget := range [][]int{{3}, {3, 0}} {
		flows[1].TxBudget = budget
		if _, err := ComputeUtilization(flows, 16, 1); err == nil {
			t.Errorf("budget %v should fail", budget)
		}
	}
}

func TestNecessaryChannelOverload(t *testing.T) {
	// 4 disjoint single-hop flows with period 4, attempts 2 on 1 channel:
	// demand 8 slots per 4 → channel util 2.0, so only channel reuse could
	// fit them. Nodes are each at 0.5.
	var flows []*flow.Flow
	for i := 0; i < 4; i++ {
		flows = append(flows, mkFlow(i, 2*i, 2*i+1, 4, 4, 2*i, 2*i+1))
	}
	u, err := ComputeUtilization(flows, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if u.Channel != 2 || u.BottleneckNode != 0.5 {
		t.Errorf("utilization %+v, want channel 2 and bottleneck 0.5", u)
	}
}
