package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"wsan/internal/jobs"
	"wsan/wsanclient"
)

// TestQueueSweepMultiWorker drives the job queue at Workers=4: four
// schedule jobs with distinct seeds plus two simulate jobs over a schedule
// artifact, all in flight at once so the scheduler and the TSCH simulator
// run concurrently on separate workers over one shared testbed. Each queued
// schedule must be byte-identical to the same canonical request run
// serially in-process on the same network — the queue, the event bus, and
// worker concurrency must not perturb schedules — and distinct seeds must
// produce distinct schedules.
func TestQueueSweepMultiWorker(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 4, QueueCap: 16})
	createTestNetwork(t, ts, "plant")
	art := mustSchedule(t, ts, "plant")

	scheduleParams := func(seed int) map[string]any {
		return map[string]any{"flows": 30, "alg": "rc", "seed": seed}
	}
	var schedIDs []string
	for seed := 1; seed <= 4; seed++ {
		v, code := submit(t, ts, "plant", wsanclient.KindSchedule, scheduleParams(seed))
		if code != http.StatusAccepted {
			t.Fatalf("schedule seed %d: status %d", seed, code)
		}
		schedIDs = append(schedIDs, v.ID)
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
	queued := make([][]byte, len(schedIDs))
	for i, id := range schedIDs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := poll(t, ts, id, 120*time.Second)
			if done.State != wsanclient.StateDone {
				t.Errorf("schedule %s finished %v (%s)", id, done.State, done.Error)
				return
			}
			queued[i] = fetchPart(t, ts, done.Artifact, "schedule.json")
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

	// Byte-identity across the queue boundary: the same canonical request
	// run serially in-process on the same network.
	nw, ok := srv.nets.get("plant")
	if !ok {
		t.Fatal("network not registered")
	}
	env := &jobs.Env{Network: nw.Network}
	for i, got := range queued {
		raw, err := json.Marshal(scheduleParams(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		canon, err := jobs.Canonical(env, wsanclient.KindSchedule, raw)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := jobs.Run(context.Background(), env, wsanclient.KindSchedule, canon)
		if err != nil {
			t.Fatal(err)
		}
		if want := parts.Part("schedule.json"); len(got) == 0 || !bytes.Equal(got, want) {
			t.Errorf("seed %d: queued schedule.json (%d bytes) differs from the serial run (%d bytes)", i+1, len(got), len(want))
		}
		for j := range i {
			if bytes.Equal(got, queued[j]) {
				t.Errorf("seeds %d and %d produced the same schedule", j+1, i+1)
			}
		}
	}
}
