package manage

import (
	"math/rand"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/netsim"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// raNetwork schedules a heavy RA workload on the WUSTL topology — plenty of
// reuse for the loop to chew on.
func raNetwork(t *testing.T) (*topology.Testbed, []*flow.Flow, *schedule.Schedule) {
	t.Helper()
	tb, err := topology.WUSTL(1)
	if err != nil {
		t.Fatal(err)
	}
	chs := topology.Channels(4)
	gc, err := tb.CommGraph(chs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := tb.ReuseGraph(chs)
	if err != nil {
		t.Fatal(err)
	}
	hop := gr.AllPairsHop()
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flows, err := flow.Generate(rng, gc, flow.GenConfig{
			NumFlows: 45, MinPeriodExp: 0, MaxPeriodExp: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := routing.Assign(flows, gc, routing.Config{Traffic: routing.PeerToPeer}); err != nil {
			t.Fatal(err)
		}
		res, err := scheduler.Run(flows, scheduler.Config{
			Algorithm: scheduler.RA, NumChannels: 4, RhoT: 2, HopGR: hop, Retransmit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedulable {
			return tb, flows, res.Schedule
		}
	}
	t.Fatal("no schedulable RA workload found")
	return nil, nil, nil
}

func TestLoopValidation(t *testing.T) {
	if _, err := Loop(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	tb, flows, sched := raNetwork(t)
	if _, err := Loop(Config{Sim: netsim.Config{Testbed: tb, Flows: flows, Schedule: sched}}); err == nil {
		t.Error("missing observation horizon should fail")
	}
}

func TestLoopConvergesOrStops(t *testing.T) {
	tb, flows, sched := raNetwork(t)
	iters, err := Loop(Config{
		Sim: netsim.Config{
			Testbed:            tb,
			Flows:              flows,
			Schedule:           sched,
			Channels:           topology.Channels(4),
			EpochSlots:         10_000,
			SampleWindowSlots:  600,
			ProbeEverySlots:    200,
			FadingSigmaDB:      2.5,
			SurveyDriftSigmaDB: 2.5,
			Seed:               5,
		},
		MaxIterations: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) == 0 {
		t.Fatal("no iterations ran")
	}
	t.Logf("iterations: %+v", iters)
	last := iters[len(iters)-1]
	// The loop must have terminated for one of its three reasons.
	stopped := last.Degraded == 0 || last.Moved == 0 || len(iters) == 4
	if !stopped {
		t.Errorf("loop ended without a stop condition: %+v", last)
	}
	// Indices are sequential.
	for i, it := range iters {
		if it.Index != i {
			t.Errorf("iteration %d has index %d", i, it.Index)
		}
		if it.MinPDR < 0 || it.MinPDR > 1 || it.MeanPDR < 0 || it.MeanPDR > 1 {
			t.Errorf("iteration %d has out-of-range PDRs: %+v", i, it)
		}
	}
	// The schedule stays valid after all repairs, compactions and
	// reroutes: the channel constraint is checked on the reuse graph the
	// schedule was built against.
	gr, err := tb.ReuseGraph(topology.Channels(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(gr.AllPairsHop(), 2); err != nil {
		t.Errorf("schedule invalid after the loop: %v", err)
	}
}

// cleanNetwork schedules a light RC workload with no reuse on the WUSTL
// topology and returns the loop's simulator configuration for it.
func cleanNetwork(t *testing.T) netsim.Config {
	t.Helper()
	tb, err := topology.WUSTL(1)
	if err != nil {
		t.Fatal(err)
	}
	chs := topology.Channels(4)
	gc, err := tb.CommGraph(chs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := tb.ReuseGraph(chs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	flows, err := flow.Generate(rng, gc, flow.GenConfig{
		NumFlows: 10, MinPeriodExp: 0, MaxPeriodExp: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.Assign(flows, gc, routing.Config{Traffic: routing.PeerToPeer}); err != nil {
		t.Fatal(err)
	}
	res, err := scheduler.Run(flows, scheduler.Config{
		Algorithm: scheduler.RC, NumChannels: 4, RhoT: 2,
		HopGR: gr.AllPairsHop(), Retransmit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatal("light workload should be schedulable")
	}
	return netsim.Config{
		Testbed:           tb,
		Flows:             flows,
		Schedule:          res.Schedule,
		Channels:          chs,
		EpochSlots:        5_000,
		SampleWindowSlots: 500,
		ProbeEverySlots:   200,
		FadingSigmaDB:     2.5,
		Seed:              9,
	}
}

func TestLoopCleanNetworkStopsImmediately(t *testing.T) {
	// The first observation finds no degraded links and the loop returns
	// after one iteration.
	iters, err := Loop(Config{Sim: cleanNetwork(t)})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 1 || iters[0].Degraded != 0 {
		t.Errorf("clean network should stop after one iteration: %+v", iters)
	}
}

// TestLoopObservesWithSim pins that an iteration observes exactly the
// simulation its Sim describes: iteration 0 of a clean network reports the
// PDRs of a direct run of Sim over ⌈EpochSlots / slotframe⌉ hyperperiods
// with the drift pinned to Seed. The fields the loop owns must be left to
// it.
func TestLoopObservesWithSim(t *testing.T) {
	sim := cleanNetwork(t)
	iters, err := Loop(Config{Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	direct := sim
	hyper := sim.Schedule.NumSlots()
	direct.Hyperperiods = (sim.EpochSlots + hyper - 1) / hyper
	direct.DriftSeed = sim.Seed
	res, err := netsim.Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	minPDR, sum := 2.0, 0.0
	pdrs := res.PDRs()
	for _, p := range pdrs {
		minPDR = min(minPDR, p)
		sum += p
	}
	if it := iters[0]; it.MinPDR != minPDR || it.MeanPDR != sum/float64(len(pdrs)) {
		t.Errorf("iteration 0 PDRs min %v mean %v, direct run min %v mean %v",
			it.MinPDR, it.MeanPDR, minPDR, sum/float64(len(pdrs)))
	}
	for name, set := range map[string]func(*netsim.Config){
		"Hyperperiods":     func(c *netsim.Config) { c.Hyperperiods = 1 },
		"DriftSeed":        func(c *netsim.Config) { c.DriftSeed = 1 },
		"FaultOffsetSlots": func(c *netsim.Config) { c.FaultOffsetSlots = 1 },
	} {
		owned := sim
		set(&owned)
		if _, err := Loop(Config{Sim: owned}); err == nil {
			t.Errorf("a Sim that sets %s was accepted", name)
		}
	}
}
