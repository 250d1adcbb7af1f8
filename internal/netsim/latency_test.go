package netsim_test

import (
	"math/rand"
	"testing"

	"wsan/internal/analysis"
	"wsan/internal/flow"
	"wsan/internal/netsim"
	"wsan/internal/routing"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// TestSimulatedLatencyWithinScheduleBound checks the simulator against the
// schedule analysis, which share no latency code: every packet netsim
// delivers arrives no later than analysis.Latencies' worst case for its
// flow, the release-to-last-scheduled-transmission span. A packet is
// delivered on one of its instance's scheduled transmissions, so a later
// arrival would be a simulator bug (or an undocumented model difference).
// The workload is the observe-repair benchmark's: 50-flow peer-to-peer
// WUSTL sets on 4 channels with retransmission, NR, RA and RC schedules,
// survey drift and fading, and one WiFi interferer at the centroid of the
// first floor, run for 100 hyperperiods (20 under -short).
func TestSimulatedLatencyWithinScheduleBound(t *testing.T) {
	const channels, rhoT = 4, 2
	hyperperiods, sets := 100, 4
	if testing.Short() {
		hyperperiods, sets = 20, 2
	}
	tb, err := topology.Generate(topology.WUSTLConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	chs := topology.Channels(channels)
	gc, err := tb.CommGraph(chs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := tb.ReuseGraph(chs)
	if err != nil {
		t.Fatal(err)
	}
	hop := gr.AllPairsHop()
	aps := topology.AccessPoints(gc, 2)
	wifi := netsim.Interferer{
		Floor: 1, PowerDBm: -20, DutyCycle: 0.25, MeanBurstSlots: 20, Channels: chs,
	}
	n := 0
	for _, nd := range tb.Nodes {
		if nd.Floor == wifi.Floor {
			wifi.X, wifi.Y, wifi.Z = wifi.X+nd.X, wifi.Y+nd.Y, wifi.Z+nd.Z
			n++
		}
	}
	wifi.X, wifi.Y, wifi.Z = wifi.X/float64(n), wifi.Y/float64(n), wifi.Z/float64(n)

	rng := rand.New(rand.NewSource(7))
	checked, delivered := 0, 0
	for tries := 0; checked < sets; tries++ {
		if tries == 50*sets {
			t.Fatalf("only %d of %d flow sets schedulable under NR, RA and RC in %d draws", checked, sets, tries)
		}
		fs, err := flow.Generate(rng, gc, flow.GenConfig{NumFlows: 50, Exclude: aps})
		if err != nil {
			t.Fatal(err)
		}
		if err := routing.Assign(fs, gc, routing.Config{Traffic: routing.PeerToPeer, APs: aps}); err != nil {
			t.Fatal(err)
		}
		algs := []scheduler.Algorithm{scheduler.NR, scheduler.RA, scheduler.RC}
		var results []*scheduler.Result
		for _, alg := range algs {
			res, err := scheduler.Run(fs, scheduler.Config{
				Algorithm: alg, NumChannels: channels, RhoT: rhoT, HopGR: hop, Retransmit: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Schedulable {
				break
			}
			results = append(results, res)
		}
		if len(results) < 3 {
			continue
		}
		for k, res := range results {
			bounds, err := analysis.Latencies(fs, res.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			worst := make(map[int]int, len(bounds))
			for _, b := range bounds {
				worst[b.FlowID] = b.WorstSlots
			}
			sim, err := netsim.Run(netsim.Config{
				Testbed: tb, Flows: fs, Schedule: res.Schedule, Channels: chs,
				Hyperperiods: hyperperiods, FadingSigmaDB: 2.5, SurveyDriftSigmaDB: 2.5,
				Interferers: []netsim.Interferer{wifi}, TrackLatency: true, Seed: int64(100*checked + k),
			})
			if err != nil {
				t.Fatal(err)
			}
			for id, lats := range sim.Latencies {
				for _, l := range lats {
					if l > worst[id] {
						t.Fatalf("set %d, %v: flow %d delivered after %d slots, schedule bound %d",
							checked, algs[k], id, l, worst[id])
					}
				}
				delivered += len(lats)
			}
		}
		checked++
	}
	if delivered == 0 {
		t.Fatal("no packet delivered")
	}
}
