package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"wsan"
	"wsan/wsanclient"
)

// TestSoakJob drives the soak job kind end to end: submit a scaled-down
// churn run against the hosted network's topology, wait for completion, and
// check the result.json artifact (decoded through the client SDK's wire
// type) reports real work, a passing oracle, and a canonical digest.
// Resubmitting identical parameters must be a cache hit on the same
// artifact.
func TestSoakJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	createTestNetwork(t, ts, "plant")

	params := map[string]any{
		"flows": 12, "ops": 80, "seed": 7,
		"batchEvery": 20, "batchSize": 3, "oracleEvery": 40,
	}
	v, code := submit(t, ts, "plant", wsanclient.KindSoak, params)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := poll(t, ts, v.ID, 60*time.Second)
	if done.State != wsanclient.StateDone {
		t.Fatalf("soak job finished %v (%s)", done.State, done.Error)
	}

	var res wsanclient.SoakResult
	if err := json.Unmarshal(fetchPart(t, ts, done.Artifact, "result.json"), &res); err != nil {
		t.Fatal(err)
	}
	if res.Ops != 80 || res.Flows != 12 {
		t.Fatalf("result does not match params: %+v", res)
	}
	// The network was created with 4 channels; the default must follow it.
	if res.Channels != 4 || res.Nodes != 18 {
		t.Errorf("soak ran on wrong topology: %d channels, %d nodes", res.Channels, res.Nodes)
	}
	if res.Applied == 0 || res.OracleChecks == 0 || res.Digest == "" {
		t.Fatalf("soak did no verified work: %+v", res)
	}
	if res.DeltasPerSec <= 0 || res.Elapsed <= 0 || res.Max < res.P50 {
		t.Errorf("throughput figures missing: %+v", res)
	}

	// Identical parameters hash to the same artifact: a cache hit.
	v2, code := submit(t, ts, "plant", wsanclient.KindSoak, params)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", code)
	}
	done2 := poll(t, ts, v2.ID, 60*time.Second)
	if done2.State != wsanclient.StateDone || done2.Artifact != done.Artifact {
		t.Fatalf("resubmit produced a different artifact: %+v vs %+v", done2, done)
	}
}

// TestSoakSweepMultiWorker drives the soak harness through the job queue at
// Workers=4: four soak jobs with distinct seeds plus two simulate jobs over
// a schedule artifact, all in flight at once so soak deltas, the replay
// oracle, and the TSCH simulator run concurrently on separate workers. Every
// soak must pass its oracle checkpoints and report a canonical digest;
// distinct seeds must produce distinct digests, and the seed-1 digest must
// match a direct in-process wsan.Soak run with identical parameters — the
// queue, the event bus, and worker concurrency must not perturb schedules.
func TestSoakSweepMultiWorker(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueCap: 16})
	createTestNetwork(t, ts, "plant")
	art := mustSchedule(t, ts, "plant")

	soakParams := func(seed int) map[string]any {
		return map[string]any{
			"flows": 10, "channels": 4, "ops": 60, "seed": seed,
			"batchEvery": 20, "batchSize": 2, "oracleEvery": 30,
		}
	}
	var soakIDs []string
	for seed := 1; seed <= 4; seed++ {
		v, code := submit(t, ts, "plant", wsanclient.KindSoak, soakParams(seed))
		if code != http.StatusAccepted {
			t.Fatalf("soak seed %d: status %d", seed, code)
		}
		soakIDs = append(soakIDs, v.ID)
	}
	var simIDs []string
	for seed := 1; seed <= 2; seed++ {
		v, code := submit(t, ts, "plant", wsanclient.KindSimulate, map[string]any{
			"artifact": art, "hyperperiods": 3, "seed": seed,
		})
		if code != http.StatusAccepted {
			t.Fatalf("simulate seed %d: status %d", seed, code)
		}
		simIDs = append(simIDs, v.ID)
	}

	// Poll all six jobs concurrently so none serializes the others' waits.
	var wg sync.WaitGroup
	results := make([]wsanclient.SoakResult, len(soakIDs))
	for i, id := range soakIDs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := poll(t, ts, id, 120*time.Second)
			if done.State != wsanclient.StateDone {
				t.Errorf("soak %s finished %v (%s)", id, done.State, done.Error)
				return
			}
			if err := json.Unmarshal(fetchPart(t, ts, done.Artifact, "result.json"), &results[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	for _, id := range simIDs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if done := poll(t, ts, id, 120*time.Second); done.State != wsanclient.StateDone {
				t.Errorf("simulate %s finished %v (%s)", id, done.State, done.Error)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	digests := make(map[string]int)
	for i, res := range results {
		if res.Applied == 0 || res.OracleChecks < 2 || res.Digest == "" {
			t.Fatalf("soak seed %d did no verified work: %+v", i+1, res)
		}
		if prev, dup := digests[res.Digest]; dup {
			t.Fatalf("seeds %d and %d produced the same digest %s", prev, i+1, res.Digest)
		}
		digests[res.Digest] = i + 1
	}

	// Byte-identity across the queue boundary: an in-process run with the
	// same parameters over the same topology must land on the same digest.
	direct, err := wsan.Soak(context.Background(), wsan.SoakConfig{
		Flows: 10, Channels: 4, Ops: 60, Seed: 1,
		BatchEvery: 20, BatchSize: 2, OracleEvery: 30,
		Testbed: testTestbed(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Digest != results[0].Digest {
		t.Fatalf("queued soak digest %s != direct run digest %s", results[0].Digest, direct.Digest)
	}
}

// TestSoakJobValidation exercises the 400 surface of the soak kind.
func TestSoakJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	createTestNetwork(t, ts, "plant")

	bad := []map[string]any{
		{"flows": -1},
		{"ops": -5},
		{"channels": 99}, // the network has 4
		{"batchEvery": -1},
		{"unknownField": true},
	}
	for i, params := range bad {
		if _, code := submit(t, ts, "plant", wsanclient.KindSoak, params); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400 (%v)", i, code, params)
		}
	}
}
