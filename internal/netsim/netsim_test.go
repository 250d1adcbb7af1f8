package netsim

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/radio"
	"wsan/internal/schedule"
	"wsan/internal/topology"
)

// denseTestbed builds a tiny 2-node-per-meter testbed where every link is
// excellent, so packet loss comes only from what the test injects.
func denseTestbed(t testing.TB, nodes int) *topology.Testbed {
	t.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.NumNodes = nodes
	cfg.Floors = 1
	cfg.FloorWidthM = 10
	cfg.FloorDepthM = 5
	cfg.ShadowSigmaDB = 0
	cfg.ChannelFadeSigmaDB = 0
	cfg.NodeOffsetSigmaDB = 0
	tb, err := topology.Generate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// lineFlowSchedule builds a flow 0→1→…→k and its trivial NR schedule.
func lineFlowSchedule(t testing.TB, hops, period int, retransmit bool) ([]*flow.Flow, *schedule.Schedule) {
	t.Helper()
	f := &flow.Flow{ID: 0, Src: 0, Dst: hops, Period: period, Deadline: period}
	for i := 0; i < hops; i++ {
		f.Route = append(f.Route, flow.Link{From: i, To: i + 1})
	}
	sched, err := schedule.New(period, 4, hops+1)
	if err != nil {
		t.Fatal(err)
	}
	attempts := 1
	if retransmit {
		attempts = 2
	}
	slot := 0
	for h := 0; h < hops; h++ {
		for a := 0; a < attempts; a++ {
			err := sched.Place(schedule.Tx{
				FlowID: 0, Hop: h, Attempt: a,
				Link: f.Route[h], Slot: slot, Offset: 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			slot++
		}
	}
	return []*flow.Flow{f}, sched
}

func TestRunValidation(t *testing.T) {
	tb := denseTestbed(t, 4)
	flows, sched := lineFlowSchedule(t, 3, 100, false)
	base := Config{
		Testbed: tb, Flows: flows, Schedule: sched,
		Channels: topology.Channels(4), Hyperperiods: 1,
	}
	missing := base
	missing.Testbed = nil
	if _, err := Run(missing); err == nil {
		t.Error("missing testbed should fail")
	}
	badCh := base
	badCh.Channels = topology.Channels(2)
	if _, err := Run(badCh); err == nil {
		t.Error("channel/offset mismatch should fail")
	}
	badIdx := base
	badIdx.Channels = []int{0, 1, 2, 99}
	if _, err := Run(badIdx); err == nil {
		t.Error("bad channel index should fail")
	}
	noReps := base
	noReps.Hyperperiods = 0
	if _, err := Run(noReps); err == nil {
		t.Error("zero hyperperiods should fail")
	}
	badEpoch := base
	badEpoch.EpochSlots = 100
	if _, err := Run(badEpoch); err == nil {
		t.Error("epoch without window should fail")
	}
}

func TestPerfectNetworkDeliversEverything(t *testing.T) {
	tb := denseTestbed(t, 4)
	flows, sched := lineFlowSchedule(t, 3, 100, true)
	res, err := Run(Config{
		Testbed: tb, Flows: flows, Schedule: sched,
		Channels: topology.Channels(4), Hyperperiods: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Released[0] != 50 {
		t.Errorf("released = %d, want 50", res.Released[0])
	}
	if got := res.PDR(0); got != 1 {
		t.Errorf("PDR = %v, want 1 on a perfect network", got)
	}
}

func TestRetransmissionRecoversFadingLosses(t *testing.T) {
	tb := denseTestbed(t, 4)
	run := func(retransmit bool) float64 {
		flows, sched := lineFlowSchedule(t, 3, 100, retransmit)
		res, err := Run(Config{
			Testbed: tb, Flows: flows, Schedule: sched,
			Channels: topology.Channels(4), Hyperperiods: 400,
			FadingSigmaDB: 12, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PDR(0)
	}
	without := run(false)
	with := run(true)
	if with <= without {
		t.Errorf("retransmission should improve PDR: with=%v without=%v", with, without)
	}
	if without > 0.999 {
		t.Errorf("12 dB fading should cause some loss without retries: %v", without)
	}
}

func TestInterfererDegradesPDR(t *testing.T) {
	tb := denseTestbed(t, 4)
	run := func(interferers []Interferer) float64 {
		flows, sched := lineFlowSchedule(t, 3, 100, false)
		res, err := Run(Config{
			Testbed: tb, Flows: flows, Schedule: sched,
			Channels: topology.Channels(4), Hyperperiods: 200,
			Interferers: interferers, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PDR(0)
	}
	clean := run(nil)
	noisy := run([]Interferer{{
		X: 5, Y: 2.5, Floor: 0, PowerDBm: -10,
		DutyCycle: 0.6, MeanBurstSlots: 10,
		Channels: topology.Channels(4),
	}})
	if noisy >= clean {
		t.Errorf("interference should reduce PDR: clean=%v noisy=%v", clean, noisy)
	}
	// Interference on unused channels must not hurt.
	offBand := run([]Interferer{{
		X: 5, Y: 2.5, Floor: 0, PowerDBm: -10,
		DutyCycle: 0.6, MeanBurstSlots: 10,
		Channels: []int{10, 11},
	}})
	if offBand < clean-0.01 {
		t.Errorf("off-band interference should be harmless: clean=%v offBand=%v", clean, offBand)
	}
}

func TestChannelHoppingSpreadsInterference(t *testing.T) {
	// A jammer on a single channel out of four should cost roughly a quarter
	// of the transmissions (per-hop), not all of them. The slotframe length
	// (9) is coprime with the channel count (4) so hopping visits every
	// channel — the same reason real TSCH deployments pick coprime
	// slotframe lengths.
	tb := denseTestbed(t, 2)
	flows, sched := lineFlowSchedule(t, 1, 9, false)
	res, err := Run(Config{
		Testbed: tb, Flows: flows, Schedule: sched,
		Channels: topology.Channels(4), Hyperperiods: 2000,
		Interferers: []Interferer{{
			X: 5, Y: 2.5, Floor: 0, PowerDBm: 0,
			DutyCycle: 1, MeanBurstSlots: 1e9,
			Channels: []int{2},
		}},
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pdr := res.PDR(0)
	if pdr < 0.70 || pdr > 0.80 {
		t.Errorf("single-channel jammer on 1/4 channels: PDR = %v, want ≈0.75", pdr)
	}
}

func TestCoChannelReuseInterference(t *testing.T) {
	// Two flows scheduled in the same cell: pairs (0,1) and (2,3) with
	// strong intra-pair links. When the cross-pair coupling is as strong as
	// the links, reuse must destroy them; when it is 60 dB down, the capture
	// effect must rescue both.
	mk := func(crossGain float64) *topology.Testbed {
		nodes := []topology.Node{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
		gain := func(u, v, ch int) float64 {
			samePair := (u/2 == v/2)
			if samePair {
				return -50
			}
			return crossGain
		}
		tb, err := topology.Custom("pairs", nodes, gain, topology.DefaultGenConfig())
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	run := func(tb *topology.Testbed) (float64, float64) {
		flows := []*flow.Flow{
			{ID: 0, Src: 0, Dst: 1, Period: 10, Deadline: 10,
				Route: []flow.Link{{From: 0, To: 1}}},
			{ID: 1, Src: 2, Dst: 3, Period: 10, Deadline: 10,
				Route: []flow.Link{{From: 2, To: 3}}},
		}
		sched, err := schedule.New(10, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flows {
			err := sched.Place(schedule.Tx{
				FlowID: f.ID, Link: f.Route[0], Slot: 0, Offset: 0,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := Run(Config{
			Testbed: tb, Flows: flows, Schedule: sched,
			Channels: topology.Channels(4), Hyperperiods: 1000, Seed: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PDR(0), res.PDR(1)
	}
	nearA, nearB := run(mk(-50)) // cross-pair as strong as the links
	farA, farB := run(mk(-110))  // cross-pair far below the links
	if nearA > 0.5 && nearB > 0.5 {
		t.Errorf("close-range reuse should hurt at least one flow: %v %v", nearA, nearB)
	}
	if farA < 0.99 || farB < 0.99 {
		t.Errorf("distant reuse should be rescued by capture: %v %v", farA, farB)
	}
}

func TestEpochStatsCollection(t *testing.T) {
	tb := denseTestbed(t, 4)
	flows, sched := lineFlowSchedule(t, 3, 100, false)
	res, err := Run(Config{
		Testbed: tb, Flows: flows, Schedule: sched,
		Channels: topology.Channels(4), Hyperperiods: 40,
		EpochSlots: 2000, SampleWindowSlots: 500,
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LinkEpochs) != 3 {
		t.Fatalf("expected stats for 3 links, got %d", len(res.LinkEpochs))
	}
	for link, epochs := range res.LinkEpochs {
		if len(epochs) != 2 {
			t.Fatalf("link %v: %d epochs, want 2 (4000 slots / 2000)", link, len(epochs))
		}
		for i, ep := range epochs {
			// This schedule has no reuse: all traffic is contention-free.
			if ep.Reuse.Attempts != 0 {
				t.Errorf("link %v epoch %d: unexpected reuse attempts", link, i)
			}
			if ep.CF.Attempts != 20 {
				t.Errorf("link %v epoch %d: CF attempts = %d, want 20", link, i, ep.CF.Attempts)
			}
			if len(ep.CF.Samples) != 4 {
				t.Errorf("link %v epoch %d: %d samples, want 4 windows", link, i, len(ep.CF.Samples))
			}
			if p := ep.CF.PRR(); p != 1 {
				t.Errorf("link %v epoch %d: PRR = %v, want 1", link, i, p)
			}
		}
	}
}

func TestLinkCondStatsPRRNoAttempts(t *testing.T) {
	var s LinkCondStats
	if got := s.PRR(); got != -1 {
		t.Errorf("PRR with no attempts = %v, want -1", got)
	}
}

func TestDeterministicRuns(t *testing.T) {
	tb := denseTestbed(t, 4)
	run := func() *Result {
		flows, sched := lineFlowSchedule(t, 3, 100, true)
		res, err := Run(Config{
			Testbed: tb, Flows: flows, Schedule: sched,
			Channels: topology.Channels(4), Hyperperiods: 100,
			FadingSigmaDB: 8, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Delivered[0] != b.Delivered[0] {
		t.Errorf("same seed, different deliveries: %d vs %d", a.Delivered[0], b.Delivered[0])
	}
	if math.Abs(a.PDR(0)-b.PDR(0)) > 1e-12 {
		t.Errorf("same seed, different PDR")
	}
}

func TestPDRsOrdering(t *testing.T) {
	res := &Result{
		Released:  map[int]int{2: 10, 0: 10, 1: 10},
		Delivered: map[int]int{2: 5, 0: 10, 1: 0},
	}
	got := res.PDRs()
	want := []float64{1, 0, 0.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PDRs = %v, want %v", got, want)
		}
	}
}

var _ = radio.DefaultPacketBits // keep the import explicit for the test file

// TestConcurrentRunsAreDeterministic proves the simulator's random stream is
// confined to one Run call: many concurrent runs of the same config must
// produce byte-identical event traces and identical delivery counts, both
// against each other and against a serial reference run. Under `go test
// -race` this doubles as the audit that no *rand.Rand (or any other
// simulator state) is shared across goroutines by the parallel Monte-Carlo
// trial fan-out.
func TestConcurrentRunsAreDeterministic(t *testing.T) {
	tb := denseTestbed(t, 4)
	run := func() (*Result, []byte) {
		flows, sched := lineFlowSchedule(t, 3, 100, true)
		var trace bytes.Buffer
		res, err := Run(Config{
			Testbed: tb, Flows: flows, Schedule: sched,
			Channels: topology.Channels(4), Hyperperiods: 50,
			FadingSigmaDB: 8, InterferenceFactor: 0.5, Seed: 42,
			Trace: &trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, trace.Bytes()
	}
	ref, refTrace := run()
	if len(refTrace) == 0 {
		t.Fatal("reference run produced an empty trace")
	}
	const workers = 8
	results := make([]*Result, workers)
	traces := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], traces[w] = run()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if !bytes.Equal(traces[w], refTrace) {
			t.Errorf("worker %d: trace differs from serial reference", w)
		}
		if results[w].Delivered[0] != ref.Delivered[0] ||
			results[w].Released[0] != ref.Released[0] {
			t.Errorf("worker %d: delivered/released %d/%d, reference %d/%d",
				w, results[w].Delivered[0], results[w].Released[0],
				ref.Delivered[0], ref.Released[0])
		}
	}
}
