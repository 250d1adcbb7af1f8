package server

import (
	"bytes"
	"testing"

	"wsan"
	"wsan/internal/server/storage"
	"wsan/wsanclient"
)

func TestArtifactKeyDeterminism(t *testing.T) {
	a := ArtifactKey("net1", wsanclient.KindSchedule, []byte(`{"flows":5,"seed":1}`))
	b := ArtifactKey("net1", wsanclient.KindSchedule, []byte(`{"flows":5,"seed":1}`))
	if a != b {
		t.Fatal("identical requests must share a key")
	}
	variants := []string{
		ArtifactKey("net2", wsanclient.KindSchedule, []byte(`{"flows":5,"seed":1}`)),
		ArtifactKey("net1", wsanclient.KindSimulate, []byte(`{"flows":5,"seed":1}`)),
		ArtifactKey("net1", wsanclient.KindSchedule, []byte(`{"flows":5,"seed":2}`)),
	}
	for i, v := range variants {
		if v == a {
			t.Errorf("variant %d collides with the base key", i)
		}
	}
}

// testStore is a memory-only store — the configuration a daemon without
// -store-dir runs.
func testStore(t *testing.T) *storage.Store {
	t.Helper()
	s, err := storage.Open(storage.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustPut(t *testing.T, s *storage.Store, id, kind string, parts map[string][]byte) *Artifact {
	t.Helper()
	a, err := s.Put(id, kind, parts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestTopologyRoundTripUnderStore pins the property the HTTP artifact
// surface depends on: testbed JSON stored as an artifact part decodes back
// to a testbed that re-encodes to the identical bytes.
func TestTopologyRoundTripUnderStore(t *testing.T) {
	tb := testTestbed(t)
	var buf bytes.Buffer
	if err := wsan.SaveTestbed(tb, &buf); err != nil {
		t.Fatal(err)
	}
	s := testStore(t)
	mustPut(t, s, "6b", wsanclient.KindSchedule, map[string][]byte{"survey.json": buf.Bytes()})
	a, ok := s.Get("6b")
	if !ok {
		t.Fatal("artifact missing")
	}
	decoded, err := wsan.LoadTestbed(bytes.NewReader(a.Part("survey.json")))
	if err != nil {
		t.Fatalf("stored survey does not decode: %v", err)
	}
	var again bytes.Buffer
	if err := wsan.SaveTestbed(decoded, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("testbed JSON is not a byte-stable round trip through the store")
	}
}

// TestScheduleRoundTripUnderStore does the same for workload and schedule
// parts: decode from the store, re-encode, compare bytes.
func TestScheduleRoundTripUnderStore(t *testing.T) {
	tb := testTestbed(t)
	net, err := wsan.NewNetwork(tb, 4)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows: 5, MaxPeriodExp: 1, Traffic: wsan.PeerToPeer, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Schedule(flows, wsan.RC, wsan.ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var workload, sched bytes.Buffer
	if err := wsan.SaveWorkload(flows, &workload); err != nil {
		t.Fatal(err)
	}
	if err := wsan.SaveSchedule(res, &sched); err != nil {
		t.Fatal(err)
	}
	s := testStore(t)
	mustPut(t, s, "6b", wsanclient.KindSchedule, map[string][]byte{
		"workload.json": workload.Bytes(),
		"schedule.json": sched.Bytes(),
	})
	a, _ := s.Get("6b")

	gotFlows, err := wsan.LoadWorkload(bytes.NewReader(a.Part("workload.json")))
	if err != nil {
		t.Fatalf("stored workload does not decode: %v", err)
	}
	var workloadAgain bytes.Buffer
	if err := wsan.SaveWorkload(gotFlows, &workloadAgain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(workload.Bytes(), workloadAgain.Bytes()) {
		t.Fatal("workload JSON is not a byte-stable round trip through the store")
	}

	gotSched, err := wsan.LoadSchedule(bytes.NewReader(a.Part("schedule.json")))
	if err != nil {
		t.Fatalf("stored schedule does not decode: %v", err)
	}
	var schedAgain bytes.Buffer
	if err := wsan.SaveSchedule(gotSched, &schedAgain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sched.Bytes(), schedAgain.Bytes()) {
		t.Fatal("schedule JSON is not a byte-stable round trip through the store")
	}
	// The decoded schedule must also be semantically identical: an empty
	// dissemination delta against the original.
	delta, err := wsan.DiffSchedules(res, gotSched)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != 0 {
		t.Fatalf("round-tripped schedule differs by %d delta entries", len(delta))
	}
}
