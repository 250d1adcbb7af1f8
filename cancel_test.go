package wsan_test

import (
	"context"
	"errors"
	"testing"

	"wsan"
)

// TestManageCtxCancelMidLoop: cancelling the context after the first
// iteration must stop the loop promptly, return the iterations completed so
// far, and surface an error satisfying errors.Is(err, context.Canceled).
// Running under -race additionally verifies the simulator goroutines exit
// cleanly rather than racing a dead loop.
func TestManageCtxCancelMidLoop(t *testing.T) {
	nodes := []wsan.Node{{ID: 0}, {ID: 1}, {ID: 2}}
	gain := func(u, v, ch int) float64 {
		if (u == 0 && v == 1) || (u == 1 && v == 0) ||
			(u == 1 && v == 2) || (u == 2 && v == 1) {
			return -50
		}
		return -200
	}
	tb, err := wsan.CustomTestbed("cancel-line", nodes, gain)
	if err != nil {
		t.Fatal(err)
	}
	net, err := wsan.NewNetwork(tb, 4)
	if err != nil {
		t.Fatal(err)
	}
	flows := []*wsan.Flow{{ID: 0, Src: 0, Dst: 2, Period: 20, Deadline: 20}}
	if err := net.Route(flows, wsan.PeerToPeer); err != nil {
		t.Fatal(err)
	}
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The crashed source keeps every iteration degraded and unrepairable, so
	// without the cancellation the loop would run all three stalled
	// iterations it allows under a fault scenario.
	iters, err := wsan.ManageCtx(ctx, wsan.ManageConfig{
		Sim: wsan.SimConfig{
			Testbed:           tb,
			Flows:             flows,
			Schedule:          res.Schedule,
			Channels:          net.Channels(),
			EpochSlots:        2_000,
			SampleWindowSlots: 200,
			Faults: &wsan.FaultScenario{Events: []wsan.FaultEvent{
				{At: 0, Kind: wsan.FaultNodeCrash, Node: 0},
			}},
			Seed: 5,
		},
		MaxIterations: 10,
		// Cancel the moment the loop reports its first completed
		// iteration, so cancellation lands deterministically between
		// iterations (or inside the next observation simulation —
		// whichever the loop reaches first).
		OnIteration: func(wsan.ManageIteration) { cancel() },
	})
	if err == nil {
		t.Fatal("cancelled loop returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
	if len(iters) != 1 {
		t.Fatalf("completed iterations = %d, want exactly the one finished before cancel: %+v",
			len(iters), iters)
	}
}
