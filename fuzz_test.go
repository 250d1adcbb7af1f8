package wsan_test

import (
	"bytes"
	"slices"
	"testing"

	"wsan"
)

// The artifact loaders are the daemon's untrusted-input surface: every job
// submission and every wsansim invocation funnels JSON through them. The
// fuzz targets below assert the loader contract — arbitrary bytes either
// fail loudly or produce a value that survives an encode/decode round trip.

// seedTestbed produces a small valid survey document.
func seedTestbed(f *testing.F) []byte {
	f.Helper()
	tb, err := wsan.CustomTestbed("fuzz", []wsan.Node{{ID: 0}, {ID: 1}, {ID: 2}},
		func(u, v, ch int) float64 { return -60 })
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wsan.SaveTestbed(tb, &buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzLoadTestbed(f *testing.F) {
	f.Add(seedTestbed(f))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","nodes":[{"id":0}],"gains":[]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := wsan.LoadTestbed(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := wsan.SaveTestbed(tb, &buf); err != nil {
			t.Fatalf("decoded testbed fails to re-encode: %v", err)
		}
		again, err := wsan.LoadTestbed(&buf)
		if err != nil {
			t.Fatalf("re-encoded testbed fails to decode: %v", err)
		}
		if again.NumNodes() != tb.NumNodes() {
			t.Fatalf("round trip changed node count: %d → %d", tb.NumNodes(), again.NumNodes())
		}
	})
}

func FuzzLoadWorkload(f *testing.F) {
	flows := []*wsan.Flow{{ID: 0, Src: 0, Dst: 2, Period: 20, Deadline: 20,
		Route: []wsan.Link{{From: 0, To: 1}, {From: 1, To: 2}}}}
	var buf bytes.Buffer
	if err := wsan.SaveWorkload(flows, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// A reliability-annotated workload: delivery-probability target plus a
	// per-hop retransmission budget parallel to the route.
	budgeted := []*wsan.Flow{{ID: 0, Src: 0, Dst: 2, Period: 20, Deadline: 20,
		Route:     []wsan.Link{{From: 0, To: 1}, {From: 1, To: 2}},
		TargetPDR: 0.99, TxBudget: []int{3, 2}}}
	var bbuf bytes.Buffer
	if err := wsan.SaveWorkload(budgeted, &bbuf); err != nil {
		f.Fatal(err)
	}
	f.Add(bbuf.Bytes())
	f.Add([]byte(`{"flows":[]}`))
	f.Add([]byte(`{"flows":[{"id":0,"src":0,"dst":1,"period":-5}]}`))
	// Malformed reliability annotations: target out of range, budget length
	// not matching the route, and a non-positive per-hop entry.
	f.Add([]byte(`{"flows":[{"id":0,"src":0,"dst":1,"period":20,"deadline":20,
	  "route":[{"from":0,"to":1}],"targetPDR":1.5}]}`))
	f.Add([]byte(`{"flows":[{"id":0,"src":0,"dst":1,"period":20,"deadline":20,
	  "route":[{"from":0,"to":1}],"txBudget":[2,2]}]}`))
	f.Add([]byte(`{"flows":[{"id":0,"src":0,"dst":1,"period":20,"deadline":20,
	  "route":[{"from":0,"to":1}],"targetPDR":0.9,"txBudget":[0]}]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := wsan.LoadWorkload(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := wsan.SaveWorkload(fs, &out); err != nil {
			t.Fatalf("decoded workload fails to re-encode: %v", err)
		}
		again, err := wsan.LoadWorkload(&out)
		if err != nil {
			t.Fatalf("re-encoded workload fails to decode: %v", err)
		}
		if len(again) != len(fs) {
			t.Fatalf("round trip changed flow count: %d → %d", len(fs), len(again))
		}
		for i, fl := range fs {
			if fl.TargetPDR != again[i].TargetPDR {
				t.Fatalf("round trip changed flow %d targetPDR: %v → %v",
					fl.ID, fl.TargetPDR, again[i].TargetPDR)
			}
			if len(fl.TxBudget) != len(again[i].TxBudget) {
				t.Fatalf("round trip changed flow %d txBudget length: %d → %d",
					fl.ID, len(fl.TxBudget), len(again[i].TxBudget))
			}
		}
	})
}

func FuzzLoadSchedule(f *testing.F) {
	f.Add([]byte(`{"numSlots":10,"numOffsets":2,"numNodes":3,
	  "transmissions":[{"flow":0,"link":{"from":0,"to":1},"slot":0,"offset":0}]}`))
	f.Add([]byte(`{"numSlots":0}`))
	f.Add([]byte(`{"numSlots":10,"numOffsets":1,"numNodes":4,
	  "transmissions":[{"flow":0,"link":{"from":0,"to":1},"slot":3,"offset":0},
	                   {"flow":1,"link":{"from":1,"to":2},"slot":3,"offset":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := wsan.LoadSchedule(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !res.Schedulable {
			t.Fatal("a loaded schedule must report schedulable")
		}
		// Save → load → save is a fixed point: the canonical bytes reload
		// to the same transmission list and re-encode to the same bytes.
		var out, again bytes.Buffer
		if err := wsan.SaveSchedule(res, &out); err != nil {
			t.Fatalf("decoded schedule fails to re-encode: %v", err)
		}
		reloaded, err := wsan.LoadSchedule(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded schedule fails to decode: %v", err)
		}
		if !slices.Equal(reloaded.Schedule.Txs(), res.Schedule.Txs()) {
			t.Fatalf("reloaded transmissions %v, want %v", reloaded.Schedule.Txs(), res.Schedule.Txs())
		}
		if err := wsan.SaveSchedule(reloaded, &again); err != nil {
			t.Fatalf("reloaded schedule fails to re-encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("save → load → save changed the bytes:\n%s\n%s", out.Bytes(), again.Bytes())
		}
	})
}

func FuzzLoadFaultScenario(f *testing.F) {
	sc := &wsan.FaultScenario{
		Name: "seed",
		Seed: 3,
		Events: []wsan.FaultEvent{
			{At: 0, Kind: wsan.FaultNodeCrash, Node: 1},
			{At: 50, Kind: wsan.FaultInterferenceStart, Channels: []int{0, 1}, PowerDBm: -25},
			{At: 200, Kind: wsan.FaultDriftStep, SigmaDB: 2},
		},
	}
	var buf bytes.Buffer
	if err := wsan.SaveFaultScenario(sc, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"events":[]}`))
	f.Add([]byte(`{"events":[{"at":-1,"kind":"node-crash"}]}`))
	f.Add([]byte(`{"events":[{"at":0,"kind":"mystery"}]}`))
	f.Add([]byte(`{"events":[{"at":0,"kind":"interference-start"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := wsan.LoadFaultScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A loaded scenario is fully validated (with node ranges deferred).
		if err := got.Validate(0); err != nil {
			t.Fatalf("loaded scenario fails validation: %v", err)
		}
		var out bytes.Buffer
		if err := wsan.SaveFaultScenario(got, &out); err != nil {
			t.Fatalf("decoded scenario fails to re-encode: %v", err)
		}
		if _, err := wsan.LoadFaultScenario(&out); err != nil {
			t.Fatalf("re-encoded scenario fails to decode: %v", err)
		}
	})
}
