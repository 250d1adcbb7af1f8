package wsan_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"wsan"
)

// metricsWorkload builds a small schedulable workload for counter tests.
func metricsWorkload(t *testing.T) (*wsan.Network, []*wsan.Flow) {
	t.Helper()
	_, net := testNetwork(t)
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows: 10, MinPeriodExp: 0, MaxPeriodExp: 1,
		Traffic: wsan.PeerToPeer, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, flows
}

func TestSchedulerMetricsExact(t *testing.T) {
	net, flows := metricsWorkload(t)
	reg := wsan.NewMetricsRegistry()
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Skip("unschedulable draw")
	}
	if got := reg.CounterValue("scheduler.rc.runs"); got != 1 {
		t.Errorf("scheduler.rc.runs = %d, want 1", got)
	}
	// Every transmission in the schedule was counted as one placement.
	if got, want := reg.CounterValue("scheduler.rc.placements"), int64(res.Schedule.Len()); got != want {
		t.Errorf("scheduler.rc.placements = %d, want %d (schedule length)", got, want)
	}
	// findSlot examines at least one slot per placement.
	if got := reg.CounterValue("scheduler.rc.slots_examined"); got < int64(res.Schedule.Len()) {
		t.Errorf("scheduler.rc.slots_examined = %d, want ≥ %d", got, res.Schedule.Len())
	}
	// Reuse placements are placements into occupied cells, so a subset.
	if got := reg.CounterValue("scheduler.rc.reuse_placements"); got < 0 || got > reg.CounterValue("scheduler.rc.placements") {
		t.Errorf("scheduler.rc.reuse_placements = %d out of range", got)
	}
	if reg.CounterValue("scheduler.nr.runs") != 0 {
		t.Error("NR counters should be untouched by an RC run")
	}
}

func TestSimulatorMetricsExact(t *testing.T) {
	net, flows := metricsWorkload(t)
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Skip("unschedulable draw")
	}
	reg := wsan.NewMetricsRegistry()
	cfg := net.NewSimConfig(flows, res, 20, 5).WithMetricsSink(reg)
	sim, err := wsan.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var released, delivered int64
	for _, n := range sim.Released {
		released += int64(n)
	}
	for _, n := range sim.Delivered {
		delivered += int64(n)
	}
	if got := reg.CounterValue("netsim.runs"); got != 1 {
		t.Errorf("netsim.runs = %d, want 1", got)
	}
	if got := reg.CounterValue("netsim.packets.released"); got != released {
		t.Errorf("netsim.packets.released = %d, want %d (result total)", got, released)
	}
	if got := reg.CounterValue("netsim.packets.delivered"); got != delivered {
		t.Errorf("netsim.packets.delivered = %d, want %d (result total)", got, delivered)
	}
	if got := reg.CounterValue("netsim.packets.lost"); got != released-delivered {
		t.Errorf("netsim.packets.lost = %d, want %d", got, released-delivered)
	}
	// At least one transmission fires per released packet.
	if got := reg.CounterValue("netsim.tx.fired"); got < released {
		t.Errorf("netsim.tx.fired = %d, want ≥ %d", got, released)
	}
	snap := reg.Snapshot()
	if _, ok := snap.Histograms["netsim.run_seconds"]; !ok {
		t.Error("netsim.run_seconds histogram missing from snapshot")
	}
}

func TestNopMetricsSinkAllocations(t *testing.T) {
	var s wsan.NopMetricsSink
	allocs := testing.AllocsPerRun(1000, func() {
		s.Count("netsim.tx.fired", 1)
		s.Gauge("manage.min_pdr", 0.5)
		s.Observe("netsim.run_seconds", 0.1)
	})
	if allocs != 0 {
		t.Errorf("NopMetricsSink allocated %v per run, want 0", allocs)
	}
}

func TestSimulateConvergedCtxCancellation(t *testing.T) {
	net, flows := metricsWorkload(t)
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Skip("unschedulable draw")
	}
	cfg := net.NewSimConfig(flows, res, 0, 3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: no chunk should run
	start := time.Now()
	_, err = wsan.SimulateConvergedCtx(ctx, cfg, wsan.ConvergeOpts{MaxChunks: 1000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.HasPrefix(err.Error(), "wsan: ") {
		t.Errorf("error %q lacks the wsan: prefix", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled converge took %v, want prompt return", elapsed)
	}

	// Mid-run cancellation: a deadline that expires during the chunk loop.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	start = time.Now()
	_, err = wsan.SimulateConvergedCtx(ctx2, cfg, wsan.ConvergeOpts{
		MaxChunks: 10000, HalfWidth: 1e-9, // unreachable precision
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline-exceeded converge took %v, want prompt return", elapsed)
	}
}

func TestManageCtxCancellation(t *testing.T) {
	net, flows := metricsWorkload(t)
	res, err := net.Schedule(flows, wsan.RA, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Skip("unschedulable draw")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	iters, err := wsan.ManageCtx(ctx, wsan.ManageConfig{
		Sim: wsan.SimConfig{
			Testbed:           net.Testbed(),
			Flows:             flows,
			Schedule:          res.Schedule,
			Channels:          net.Channels(),
			EpochSlots:        5_000,
			SampleWindowSlots: 500,
			Seed:              2,
		},
		MaxIterations: 3,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(iters) != 0 {
		t.Errorf("pre-cancelled loop returned %d iterations, want 0", len(iters))
	}
}

func TestErrorPrefixExactlyOnce(t *testing.T) {
	fail := []struct {
		name string
		err  func() error
	}{
		{"Simulate empty config", func() error {
			_, err := wsan.Simulate(wsan.SimConfig{})
			return err
		}},
		{"LoadTestbed bad JSON", func() error {
			_, err := wsan.LoadTestbed(strings.NewReader("{"))
			return err
		}},
		{"Summary empty sample", func() error {
			_, err := wsan.Summary(nil)
			return err
		}},
		{"Manage empty config", func() error {
			_, err := wsan.Manage(wsan.ManageConfig{})
			return err
		}},
	}
	for _, tc := range fail {
		err := tc.err()
		if err == nil {
			t.Errorf("%s: expected an error", tc.name)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "wsan: ") {
			t.Errorf("%s: error %q lacks the wsan: prefix", tc.name, msg)
		}
		if n := strings.Count(msg, "wsan: "); n != 1 {
			t.Errorf("%s: error %q carries the wsan: prefix %d times, want exactly once", tc.name, msg, n)
		}
	}
}

func TestDelayBoundsAttemptDefaults(t *testing.T) {
	_, flows := metricsWorkload(t)

	newAPI, err := wsan.DelayBounds(flows, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defaulted, err := wsan.DelayBounds(flows, 4, 0) // 0 → default 2 attempts
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(newAPI, defaulted) {
		t.Error("DelayBounds(attempts=0) should default to 2 attempts")
	}
	single, err := wsan.DelayBounds(flows, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(newAPI, single) {
		t.Error("DelayBounds(attempts=1) should differ from attempts=2 (retry slots change the bound)")
	}

	newUtil, err := wsan.AnalyzeUtilization(flows, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defUtil, err := wsan.AnalyzeUtilization(flows, 4, 0) // 0 → default 2 attempts
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(newUtil, defUtil) {
		t.Error("AnalyzeUtilization(attempts=0) should default to 2 attempts")
	}
}

func TestWithMetricsSinkOption(t *testing.T) {
	reg := wsan.NewMetricsRegistry()
	sim := wsan.SimConfig{}.WithMetricsSink(reg)
	if sim.Metrics != wsan.MetricsSink(reg) {
		t.Error("SimConfig.WithMetricsSink did not attach the sink")
	}
	man := wsan.ManageConfig{Sim: wsan.SimConfig{}.WithMetricsSink(reg)}
	if man.Sim.Metrics != wsan.MetricsSink(reg) {
		t.Error("SimConfig.WithMetricsSink on ManageConfig.Sim did not attach the sink")
	}
	multi := wsan.MultiMetricsSink(nil, reg, nil)
	if multi != wsan.MetricsSink(reg) {
		t.Error("MultiMetricsSink should collapse to the single non-nil sink")
	}
}
