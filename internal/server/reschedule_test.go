package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"wsan"
	"wsan/internal/schedule"
	"wsan/wsanclient"
)

// fetchPart downloads one artifact part's exact bytes.
func fetchPart(t *testing.T, ts *httptest.Server, id, part string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + id + "/" + part)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch %s/%s: status %d", id, part, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// deltaDoc mirrors the delta.json document a reschedule job emits.
type deltaDoc struct {
	Op       string               `json:"op"`
	Flow     int                  `json:"flow"`
	Fallback string               `json:"fallback"`
	Evicted  []int                `json:"evicted"`
	Changes  []wsan.ScheduleDelta `json:"changes"`
}

// TestRescheduleJobs drives the reschedule job kind through a
// remove → add → reroute chain, checking each produced bundle stays a valid
// input for the next delta and for downstream job kinds.
func TestRescheduleJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	createTestNetwork(t, ts, "plant")
	base := mustSchedule(t, ts, "plant")

	baseFlows, err := wsan.LoadWorkload(bytes.NewReader(fetchPart(t, ts, base, "workload.json")))
	if err != nil {
		t.Fatal(err)
	}
	victim := baseFlows[2]

	// Remove one flow.
	v, code := submit(t, ts, "plant", wsanclient.KindReschedule, map[string]any{
		"artifact": base, "op": "remove", "flow": victim.ID,
	})
	if code != http.StatusAccepted {
		t.Fatalf("remove submit: status %d", code)
	}
	done := poll(t, ts, v.ID, 30*time.Second)
	if done.State != wsanclient.StateDone {
		t.Fatalf("remove job finished %v (%s)", done.State, done.Error)
	}
	removedArt := done.Artifact
	flows, err := wsan.LoadWorkload(bytes.NewReader(fetchPart(t, ts, removedArt, "workload.json")))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != len(baseFlows)-1 {
		t.Fatalf("workload after remove has %d flows, want %d", len(flows), len(baseFlows)-1)
	}
	for _, f := range flows {
		if f.ID == victim.ID {
			t.Fatalf("flow %d still in workload after removal", victim.ID)
		}
	}
	var dd deltaDoc
	if err := json.Unmarshal(fetchPart(t, ts, removedArt, "delta.json"), &dd); err != nil {
		t.Fatal(err)
	}
	if dd.Op != "remove" || dd.Flow != victim.ID || len(dd.Changes) == 0 {
		t.Fatalf("unexpected delta.json: %+v", dd)
	}
	for _, c := range dd.Changes {
		if c.Kind != schedule.Removed {
			t.Fatalf("remove delta contains an addition: %+v", c)
		}
	}

	// Add the flow back under a fresh ID, on the removed bundle.
	v, code = submit(t, ts, "plant", wsanclient.KindReschedule, map[string]any{
		"artifact": removedArt, "op": "add", "flow": 99,
		"src": victim.Src, "dst": victim.Dst,
		"period": victim.Period, "deadline": victim.Deadline,
	})
	if code != http.StatusAccepted {
		t.Fatalf("add submit: status %d", code)
	}
	done = poll(t, ts, v.ID, 30*time.Second)
	if done.State != wsanclient.StateDone {
		t.Fatalf("add job finished %v (%s)", done.State, done.Error)
	}
	addArt := done.Artifact
	flows, err = wsan.LoadWorkload(bytes.NewReader(fetchPart(t, ts, addArt, "workload.json")))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range flows {
		found = found || f.ID == 99
	}
	if !found || len(flows) != len(baseFlows) {
		t.Fatalf("workload after add: %d flows, flow 99 present: %v", len(flows), found)
	}

	// Reroute the new flow (no avoid set: the shortest route is re-derived).
	v, code = submit(t, ts, "plant", wsanclient.KindReschedule, map[string]any{
		"artifact": addArt, "op": "reroute", "flow": 99,
	})
	if code != http.StatusAccepted {
		t.Fatalf("reroute submit: status %d", code)
	}
	done = poll(t, ts, v.ID, 30*time.Second)
	if done.State != wsanclient.StateDone {
		t.Fatalf("reroute job finished %v (%s)", done.State, done.Error)
	}

	// The rescheduled bundle must remain a valid input for simulation.
	v, code = submit(t, ts, "plant", wsanclient.KindSimulate, map[string]any{
		"artifact": done.Artifact, "hyperperiods": 1,
	})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("simulate submit: status %d", code)
	}
	if done = poll(t, ts, v.ID, 30*time.Second); done.State != wsanclient.StateDone {
		t.Fatalf("simulate over rescheduled bundle finished %v (%s)", done.State, done.Error)
	}
}

// TestRescheduleValidation exercises the 400 surface of the reschedule kind.
func TestRescheduleValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	createTestNetwork(t, ts, "plant")
	art := mustSchedule(t, ts, "plant")

	bad := []map[string]any{
		{"artifact": art, "op": "transmogrify", "flow": 0},
		{"artifact": art, "op": "remove", "flow": -1},
		{"artifact": art, "op": "add", "flow": 99, "src": 1, "dst": 1, "period": 100},
		{"artifact": art, "op": "add", "flow": 99, "src": 1, "dst": 2},
		{"artifact": art, "op": "add", "flow": 99, "src": 1, "dst": 2, "period": 100, "avoid": []int{3}},
		{"artifact": art, "op": "remove", "flow": 0, "period": 100},
		{"artifact": "nope", "op": "remove", "flow": 0},
	}
	for i, params := range bad {
		if _, code := submit(t, ts, "plant", wsanclient.KindReschedule, params); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400 (%v)", i, code, params)
		}
	}
}

// TestQueuedDuplicateReusesArtifact: two identical cold submissions both
// miss the cache at submit time and queue two jobs with one key. The second
// to run must find the first's artifact through runJob's store probe and
// return it, never recomputing the pipeline or re-writing the store.
func TestQueuedDuplicateReusesArtifact(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	createTestNetwork(t, ts, "plant")
	art := mustSchedule(t, ts, "plant")

	// Pin the single worker so both duplicates wait in the queue.
	long, code := submit(t, ts, "plant", wsanclient.KindSimulate,
		map[string]any{"artifact": art, "hyperperiods": 2_000_000, "seed": 11})
	if code != http.StatusAccepted {
		t.Fatalf("long job: status %d", code)
	}
	waitState(t, ts, long.ID, wsanclient.StateRunning, 10*time.Second)
	stored := srv.mets.CounterValue("server.cache.stored")

	params := map[string]any{"flows": 3, "maxPeriodExp": 1, "seed": 7}
	var dups []wsanclient.Job
	for i := 0; i < 2; i++ {
		v, code := submit(t, ts, "plant", wsanclient.KindSchedule, params)
		if code != http.StatusAccepted || v.Cached {
			t.Fatalf("duplicate %d: status %d, cached %v; want a queued cold job", i, code, v.Cached)
		}
		dups = append(dups, v)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+long.ID, nil, nil)

	var artifact string
	for i, v := range dups {
		done := poll(t, ts, v.ID, 30*time.Second)
		if done.State != wsanclient.StateDone || done.Artifact == "" {
			t.Fatalf("duplicate %d: %+v, want done", i, done)
		}
		if i > 0 && done.Artifact != artifact {
			t.Fatalf("duplicates ended on artifacts %s and %s, want one", artifact, done.Artifact)
		}
		artifact = done.Artifact
	}
	if got := srv.mets.CounterValue("server.cache.stored") - stored; got != 1 {
		t.Errorf("server.cache.stored rose by %d, want 1", got)
	}
	// Without the probe the second duplicate recomputes and re-Puts, which
	// counts a duplicate write.
	if got := srv.mets.CounterValue("server.cache.dup_writes"); got != 0 {
		t.Errorf("server.cache.dup_writes = %d, want 0", got)
	}
}

// TestQueueFullRetryAfter checks that 429 responses carry a Retry-After
// derived from the actual backlog, and that the estimate clamps sanely.
func TestQueueFullRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	createTestNetwork(t, ts, "plant")
	art := mustSchedule(t, ts, "plant")

	// An idle pool would tell a client to retry in one second.
	if got := srv.pool.RetryAfterSeconds(); got != 1 {
		t.Fatalf("idle RetryAfterSeconds = %d, want 1", got)
	}

	long := func(seed int) map[string]any {
		return map[string]any{"artifact": art, "hyperperiods": 2_000_000, "seed": seed}
	}
	// Occupy the single worker, then fill the two queue slots.
	v1, code := submit(t, ts, "plant", wsanclient.KindSimulate, long(11))
	if code != http.StatusAccepted {
		t.Fatalf("job 1: status %d", code)
	}
	waitState(t, ts, v1.ID, wsanclient.StateRunning, 10*time.Second)
	var queued []wsanclient.Job
	for seed := 12; seed <= 13; seed++ {
		v, code := submit(t, ts, "plant", wsanclient.KindSimulate, long(seed))
		if code != http.StatusAccepted {
			t.Fatalf("job seed %d: status %d", seed, code)
		}
		queued = append(queued, v)
	}

	// The overflow submission is rejected with the backlog-derived header:
	// 1 running + 2 queued jobs on 1 worker → 3 seconds. (The running job
	// counts: before the fix the estimate ignored busy workers and said 2.)
	body, _ := json.Marshal(map[string]any{"kind": wsanclient.KindSimulate, "params": long(14)})
	resp, err := http.Post(ts.URL+"/v1/networks/plant/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if ra != 3 {
		t.Errorf("Retry-After = %d, want 3", ra)
	}

	for _, v := range queued {
		doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil, nil)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v1.ID, nil, nil)
	waitState(t, ts, v1.ID, wsanclient.StateCancelled, 10*time.Second)
}
