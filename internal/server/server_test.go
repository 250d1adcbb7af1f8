package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsan"
	"wsan/internal/jobs"
	"wsan/wsanclient"
)

// contextWithTimeout is a shorthand for context.WithTimeout off Background.
func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// testTestbed generates a small three-floor deployment once per call —
// small enough that schedule jobs finish in milliseconds and simulation
// jobs are dominated by the requested hyperperiod count.
func testTestbed(t *testing.T) *wsan.Testbed {
	t.Helper()
	cfg := wsan.DefaultTestbedConfig()
	cfg.NumNodes = 18
	tb, err := wsan.GenerateTestbed(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// newTestServer starts a daemon on an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := contextWithTimeout(2 * time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

// doJSON issues one request with a JSON body and decodes the JSON response.
// Every non-2xx response is asserted to be the v1 error envelope (except
// /healthz, whose 503 is a liveness report, not an error); pass out as
// *errorBody to inspect the code. So every failure path any test exercises
// doubles as an envelope-shape assertion.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 400 && !strings.HasSuffix(url, "/healthz") {
		var env errorBody
		if err := json.Unmarshal(data, &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
			t.Fatalf("%s %s: status %d body %q is not the error envelope", method, url, resp.StatusCode, data)
		}
		if e, ok := out.(*errorBody); ok {
			*e = env
		}
		return resp.StatusCode
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// createTestNetwork uploads the small testbed as network "plant".
func createTestNetwork(t *testing.T, ts *httptest.Server, name string) {
	t.Helper()
	var buf bytes.Buffer
	if err := wsan.SaveTestbed(testTestbed(t), &buf); err != nil {
		t.Fatal(err)
	}
	var view wsanclient.Network
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/networks", map[string]any{
		"name":     name,
		"testbed":  json.RawMessage(buf.Bytes()),
		"channels": 4,
	}, &view)
	if code != http.StatusCreated {
		t.Fatalf("create network: status %d", code)
	}
	if view.Nodes != 18 || len(view.Channels) != 4 {
		t.Fatalf("unexpected network view: %+v", view)
	}
}

// submit posts one job and returns its view and HTTP status.
func submit(t *testing.T, ts *httptest.Server, network, kind string, params map[string]any) (wsanclient.Job, int) {
	t.Helper()
	var v wsanclient.Job
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/networks/"+network+"/jobs",
		map[string]any{"kind": kind, "params": params}, &v)
	return v, code
}

// poll waits for a job to leave the queued/running states.
func poll(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) wsanclient.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v wsanclient.Job
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, &v); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		if v.State != wsanclient.StateQueued && v.State != wsanclient.StateRunning {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %v after %v", id, v.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitState waits for a job to reach one specific state.
func waitState(t *testing.T, ts *httptest.Server, id string, want wsanclient.JobState, timeout time.Duration) wsanclient.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v wsanclient.Job
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, &v)
		if v.State == want {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s is %v, want %v after %v", id, v.State, want, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestArtifactPartExactBytes checks that the SDK's ArtifactPart returns
// every part of a schedule job exactly as the store holds it, trailing
// newline included. So the fetched schedule.json is Encode's exact output
// (it re-encodes to itself), which wsan.LoadSchedule reads on the schedule
// codec's canonical fast path (TestEncodeOutputIsCanonical pins that the
// scanner accepts every Encode output).
func TestArtifactPartExactBytes(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	createTestNetwork(t, ts, "plant")
	v, code := submit(t, ts, "plant", wsanclient.KindSchedule,
		map[string]any{"flows": 5, "alg": "rc", "seed": 3, "maxPeriodExp": 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%+v)", code, v)
	}
	done := poll(t, ts, v.ID, 30*time.Second)
	if done.State != wsanclient.StateDone {
		t.Fatalf("job finished %v (%s)", done.State, done.Error)
	}
	stored, ok := srv.store.Get(done.Artifact)
	if !ok {
		t.Fatal("artifact missing from the store")
	}
	ctx, cancel := contextWithTimeout(10 * time.Second)
	defer cancel()
	c := wsanclient.New(ts.URL, wsanclient.Options{})
	names := stored.PartNames()
	if len(names) == 0 {
		t.Fatal("artifact has no parts")
	}
	for _, name := range names {
		got, err := c.ArtifactPart(ctx, done.Artifact, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, stored.Part(name)) {
			t.Errorf("%s: ArtifactPart returned %d bytes, the store holds %d", name, len(got), len(stored.Part(name)))
		}
	}
	part, err := c.ArtifactPart(ctx, done.Artifact, "schedule.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := wsan.LoadSchedule(bytes.NewReader(part))
	if err != nil {
		t.Fatal(err)
	}
	var re bytes.Buffer
	if err := wsan.SaveSchedule(res, &re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), part) {
		t.Error("the fetched schedule.json is not Encode's canonical form")
	}
}

// TestEndToEnd drives the acceptance-criteria chain: create a network,
// schedule with RC, poll to done, fetch the artifact, resubmit the
// identical request and observe a cache hit, then simulate the schedule.
func TestEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	createTestNetwork(t, ts, "plant")

	params := map[string]any{"flows": 5, "alg": "rc", "seed": 3, "maxPeriodExp": 1}
	v, code := submit(t, ts, "plant", wsanclient.KindSchedule, params)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%+v)", code, v)
	}
	if v.Cached {
		t.Fatal("first submission should not be a cache hit")
	}
	done := poll(t, ts, v.ID, 30*time.Second)
	if done.State != wsanclient.StateDone {
		t.Fatalf("job finished %v (%s)", done.State, done.Error)
	}
	if done.Artifact == "" {
		t.Fatal("done job has no artifact")
	}

	// The artifact bundle must round-trip through the library decoders.
	var bundle struct {
		ID    string                     `json:"id"`
		Parts map[string]json.RawMessage `json:"parts"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/artifacts/"+done.Artifact, nil, &bundle); code != http.StatusOK {
		t.Fatalf("get artifact: status %d", code)
	}
	for _, part := range []string{"survey.json", "workload.json", "schedule.json", "summary.json"} {
		if len(bundle.Parts[part]) == 0 {
			t.Fatalf("artifact missing part %s", part)
		}
	}
	flows, err := wsan.LoadWorkload(bytes.NewReader(bundle.Parts["workload.json"]))
	if err != nil {
		t.Fatalf("workload part does not decode: %v", err)
	}
	if len(flows) != 5 {
		t.Fatalf("artifact workload has %d flows, want 5", len(flows))
	}
	sched, err := wsan.LoadSchedule(bytes.NewReader(bundle.Parts["schedule.json"]))
	if err != nil {
		t.Fatalf("schedule part does not decode: %v", err)
	}
	if sched.Schedule.Len() == 0 {
		t.Fatal("artifact schedule is empty")
	}
	// The raw part endpoint serves the stored bytes untouched — the same
	// bytes `wsansim gen-schedule` would have written to schedule.json.
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + done.Artifact + "/schedule.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	stored, ok := srv.store.Get(done.Artifact)
	if !ok {
		t.Fatal("artifact missing from the store")
	}
	if !bytes.Equal(raw, stored.Part("schedule.json")) {
		t.Fatal("raw part endpoint rewrote the stored bytes")
	}
	// The bundle embeds the same documents (modulo indentation).
	var compactBundle, compactRaw bytes.Buffer
	if err := json.Compact(&compactBundle, bundle.Parts["schedule.json"]); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compactRaw, raw); err != nil {
		t.Fatal(err)
	}
	if compactBundle.String() != compactRaw.String() {
		t.Fatal("bundle part differs from the raw part")
	}

	// Identical resubmission: cache hit, done instantly, same artifact.
	hits := srv.Metrics().CounterValue("server.cache.hits")
	v2, code := submit(t, ts, "plant", wsanclient.KindSchedule, params)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d, want 200 (cache hit)", code)
	}
	if !v2.Cached || v2.State != wsanclient.StateDone || v2.Artifact != done.Artifact {
		t.Fatalf("resubmit not a cache hit: %+v", v2)
	}
	if got := srv.Metrics().CounterValue("server.cache.hits"); got != hits+1 {
		t.Fatalf("server.cache.hits = %d, want %d", got, hits+1)
	}

	// Chain a simulation over the artifact.
	sv, code := submit(t, ts, "plant", wsanclient.KindSimulate, map[string]any{
		"artifact": done.Artifact, "hyperperiods": 5, "seed": 2,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit simulate: status %d (%+v)", code, sv)
	}
	sdone := poll(t, ts, sv.ID, 30*time.Second)
	if sdone.State != wsanclient.StateDone {
		t.Fatalf("simulate finished %v (%s)", sdone.State, sdone.Error)
	}
	resp, err = http.Get(ts.URL + "/v1/artifacts/" + sdone.Artifact + "/report.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep jobs.SimReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	resp.Body.Close()
	if rep.Flows != 5 || rep.Hyperperiods != 5 || len(rep.PerFlow) != 5 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.PDRSummary.Max <= 0 {
		t.Fatalf("report PDR summary is empty: %+v", rep.PDRSummary)
	}

	// /metrics serves the registry snapshot with the server schema.
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &snap); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if snap.Counters["server.jobs.completed"] < 2 {
		t.Fatalf("metrics report %d completed jobs, want ≥ 2", snap.Counters["server.jobs.completed"])
	}
}

// TestCancelRunningJob verifies that DELETE on a running job interrupts the
// simulation promptly instead of letting it run to completion.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	createTestNetwork(t, ts, "plant")
	art := mustSchedule(t, ts, "plant")

	// A simulation this long would take minutes; cancellation must cut it
	// to well under the polling deadline.
	v, code := submit(t, ts, "plant", wsanclient.KindSimulate, map[string]any{
		"artifact": art, "hyperperiods": 2_000_000, "seed": 5,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, ts, v.ID, wsanclient.StateRunning, 10*time.Second)

	start := time.Now()
	var cv wsanclient.Job
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil, &cv); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	fin := waitState(t, ts, v.ID, wsanclient.StateCancelled, 10*time.Second)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if fin.Error == "" {
		t.Fatal("cancelled job should carry the cancellation error")
	}
	// A finished job cannot be cancelled again.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil, nil); code != http.StatusConflict {
		t.Fatalf("re-cancel: status %d, want 409", code)
	}
}

// TestBackpressure fills the queue and expects 429 on the overflow job.
func TestBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	createTestNetwork(t, ts, "plant")
	art := mustSchedule(t, ts, "plant")

	long := func(seed int) map[string]any {
		return map[string]any{"artifact": art, "hyperperiods": 2_000_000, "seed": seed}
	}
	// First long job occupies the single worker...
	v1, code := submit(t, ts, "plant", wsanclient.KindSimulate, long(11))
	if code != http.StatusAccepted {
		t.Fatalf("job 1: status %d", code)
	}
	waitState(t, ts, v1.ID, wsanclient.StateRunning, 10*time.Second)
	// ...the second fills the queue...
	v2, code := submit(t, ts, "plant", wsanclient.KindSimulate, long(12))
	if code != http.StatusAccepted {
		t.Fatalf("job 2: status %d", code)
	}
	// ...and the third must be rejected with 429.
	_, code = submit(t, ts, "plant", wsanclient.KindSimulate, long(13))
	if code != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429", code)
	}
	// Cancel the queued job: it must finish without ever running.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v2.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel queued: status %d", code)
	}
	if v := waitState(t, ts, v2.ID, wsanclient.StateCancelled, 5*time.Second); v.Started != nil {
		t.Fatalf("queued job should never start, got %+v", v)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v1.ID, nil, nil)
	waitState(t, ts, v1.ID, wsanclient.StateCancelled, 10*time.Second)
}

// mustSchedule runs one small schedule job to completion and returns its
// artifact ID.
func mustSchedule(t *testing.T, ts *httptest.Server, network string) string {
	t.Helper()
	v, code := submit(t, ts, network, wsanclient.KindSchedule, map[string]any{
		"flows": 5, "alg": "rc", "seed": 3, "maxPeriodExp": 1,
	})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("schedule submit: status %d", code)
	}
	done := poll(t, ts, v.ID, 30*time.Second)
	if done.State != wsanclient.StateDone {
		t.Fatalf("schedule job finished %v (%s)", done.State, done.Error)
	}
	return done.Artifact
}

// TestValidationAndNotFound exercises the 4xx surfaces.
func TestValidationAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	createTestNetwork(t, ts, "plant")

	cases := []struct {
		name string
		do   func() int
		want int
	}{
		{"unknown network", func() int {
			_, c := submit(t, ts, "ghost", wsanclient.KindSchedule, nil)
			return c
		}, http.StatusNotFound},
		{"unknown kind", func() int {
			_, c := submit(t, ts, "plant", "explode", nil)
			return c
		}, http.StatusBadRequest},
		{"bad algorithm", func() int {
			_, c := submit(t, ts, "plant", wsanclient.KindSchedule, map[string]any{"alg": "bogus"})
			return c
		}, http.StatusBadRequest},
		{"unknown params field", func() int {
			_, c := submit(t, ts, "plant", wsanclient.KindSchedule, map[string]any{"bogus": 1})
			return c
		}, http.StatusBadRequest},
		{"simulate without artifact", func() int {
			_, c := submit(t, ts, "plant", wsanclient.KindSimulate, nil)
			return c
		}, http.StatusBadRequest},
		{"simulate with unknown artifact", func() int {
			_, c := submit(t, ts, "plant", wsanclient.KindSimulate, map[string]any{"artifact": "nope"})
			return c
		}, http.StatusBadRequest},
		{"unknown job", func() int {
			return doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j999", nil, nil)
		}, http.StatusNotFound},
		{"unknown artifact", func() int {
			return doJSON(t, http.MethodGet, ts.URL+"/v1/artifacts/nope", nil, nil)
		}, http.StatusNotFound},
		{"duplicate network", func() int {
			var buf bytes.Buffer
			_ = wsan.SaveTestbed(testTestbed(t), &buf)
			return doJSON(t, http.MethodPost, ts.URL+"/v1/networks", map[string]any{
				"name": "plant", "testbed": json.RawMessage(buf.Bytes()),
			}, nil)
		}, http.StatusConflict},
		{"network without topology", func() int {
			return doJSON(t, http.MethodPost, ts.URL+"/v1/networks", map[string]any{
				"name": "empty",
			}, nil)
		}, http.StatusBadRequest},
		{"preset and testbed together", func() int {
			var buf bytes.Buffer
			_ = wsan.SaveTestbed(testTestbed(t), &buf)
			return doJSON(t, http.MethodPost, ts.URL+"/v1/networks", map[string]any{
				"name": "both", "preset": "wustl", "testbed": json.RawMessage(buf.Bytes()),
			}, nil)
		}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := c.do(); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}
}

// TestJobParamsRejectedAtSubmit: parameters the pipeline would silently
// replace with its own defaults (or divide down to zero) are a 400 at
// submission, never a job that runs something other than it names or
// fails later on the worker.
func TestJobParamsRejectedAtSubmit(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	createTestNetwork(t, ts, "plant")
	const art = "bundle"
	if _, err := srv.store.Put(art, wsanclient.KindSchedule, map[string][]byte{
		"survey.json": []byte(`{}`), "workload.json": []byte(`{}`), "schedule.json": []byte(`{}`),
	}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		kind   string
		params map[string]any
	}{
		{wsanclient.KindConverge, map[string]any{"artifact": art, "chunkHyperperiods": -5}},
		{wsanclient.KindConverge, map[string]any{"artifact": art, "maxChunks": -1}},
		{wsanclient.KindConverge, map[string]any{"artifact": art, "halfWidth": -0.01}},
		{wsanclient.KindManage, map[string]any{"artifact": art, "maxIterations": -1}},
		{wsanclient.KindManage, map[string]any{"artifact": art, "epochSlots": 17}},
		{wsanclient.KindManage, map[string]any{"artifact": art, "epochSlots": 1}},
		{wsanclient.KindManage, map[string]any{"artifact": art, "epochSlots": -3000}},
		// An added flow must be a valid flow between two of the network's nodes.
		{wsanclient.KindReschedule, map[string]any{"artifact": art, "op": "add", "flow": 20, "src": 1, "dst": 2, "period": 100, "deadline": 300}},
		{wsanclient.KindReschedule, map[string]any{"artifact": art, "op": "add", "flow": 20, "src": 1, "dst": 2, "period": 100, "deadline": -5}},
		{wsanclient.KindReschedule, map[string]any{"artifact": art, "op": "add", "flow": 20, "src": 1, "dst": 2, "period": 100, "phase": -5}},
		{wsanclient.KindReschedule, map[string]any{"artifact": art, "op": "add", "flow": 20, "src": 1, "dst": 2, "period": 100, "phase": 150}},
		{wsanclient.KindReschedule, map[string]any{"artifact": art, "op": "add", "flow": 20, "src": 18, "dst": 2, "period": 100}},
		// The daemon no longer hosts the churn harness (`wsansim soak` runs it).
		{"soak", map[string]any{"flows": 12, "ops": 80}},
	}
	for _, c := range cases {
		var env errorBody
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/networks/plant/jobs",
			map[string]any{"kind": c.kind, "params": c.params}, &env)
		if code != http.StatusBadRequest || env.Error.Code != codeInvalidRequest {
			t.Errorf("%s %v: status %d code %q, want 400 %q", c.kind, c.params, code, env.Error.Code, codeInvalidRequest)
		}
	}
	// The smallest epoch with a non-empty sample window is accepted.
	nw, _ := srv.nets.get("plant")
	if _, err := srv.canonicalParams(nw, wsanclient.KindManage, json.RawMessage(`{"artifact":"bundle","epochSlots":18}`)); err != nil {
		t.Errorf("epochSlots 18: %v", err)
	}
	// An unknown kind names the kind table.
	var env errorBody
	doJSON(t, http.MethodPost, ts.URL+"/v1/networks/plant/jobs", map[string]any{"kind": "warp"}, &env)
	const want = `invalid warp parameters: unknown job kind "warp" (want converge, manage, reschedule, schedule, or simulate)`
	if env.Error.Message != want {
		t.Errorf("unknown kind message %q, want %q", env.Error.Message, want)
	}
}

// TestNetworkLifecycle covers create/list/get/delete.
func TestNetworkLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	createTestNetwork(t, ts, "a")
	createTestNetwork(t, ts, "b")

	var list struct {
		Networks []wsanclient.Network `json:"networks"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/networks", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Networks) != 2 || list.Networks[0].Name != "a" || list.Networks[1].Name != "b" {
		t.Fatalf("list = %+v", list.Networks)
	}
	var view wsanclient.Network
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/networks/a", nil, &view); code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}
	if view.ReuseDiameter < 1 || view.CommEdges == 0 || len(view.AccessPoints) != 2 {
		t.Fatalf("view = %+v", view)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/networks/a", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/networks/a", nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/networks/a", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: status %d", code)
	}
}

// TestGracefulShutdown verifies that draining rejects new submissions and
// that a shutdown deadline forcibly cancels a stuck job.
func TestGracefulShutdown(t *testing.T) {
	srv, err := New(Config{Workers: 1, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	createTestNetwork(t, ts, "plant")
	art := mustSchedule(t, ts, "plant")
	v, code := submit(t, ts, "plant", wsanclient.KindSimulate, map[string]any{
		"artifact": art, "hyperperiods": 2_000_000, "seed": 9,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, ts, v.ID, wsanclient.StateRunning, 10*time.Second)

	ctx, cancel := contextWithTimeout(50 * time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("shutdown with a running 2M-hyperperiod job should exceed a 50ms budget")
	}
	// The forced cancellation must have aborted the job.
	j, ok := srv.Job(v.ID)
	if !ok {
		t.Fatal("job disappeared")
	}
	if st := j.State(); st != wsanclient.StateCancelled {
		t.Fatalf("job state after forced shutdown = %v, want cancelled", st)
	}
	// Draining rejects new work with 503.
	if _, code := submit(t, ts, "plant", wsanclient.KindSchedule, map[string]any{"flows": 3}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", code)
	}
	var health map[string]any
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil, &health); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", code)
	}
}

// TestConvergeAndManageJobs runs the remaining job kinds end to end.
func TestConvergeAndManageJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation jobs skipped in -short mode")
	}
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	createTestNetwork(t, ts, "plant")
	art := mustSchedule(t, ts, "plant")

	cv, code := submit(t, ts, "plant", wsanclient.KindConverge, map[string]any{
		"artifact": art, "chunkHyperperiods": 2, "maxChunks": 3, "halfWidth": 0.5,
	})
	if code != http.StatusAccepted {
		t.Fatalf("converge submit: status %d", code)
	}
	mv, code := submit(t, ts, "plant", wsanclient.KindManage, map[string]any{
		"artifact": art, "maxIterations": 1, "epochSlots": 3000,
	})
	if code != http.StatusAccepted {
		t.Fatalf("manage submit: status %d", code)
	}
	cdone := poll(t, ts, cv.ID, 60*time.Second)
	if cdone.State != wsanclient.StateDone {
		t.Fatalf("converge finished %v (%s)", cdone.State, cdone.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + cdone.Artifact + "/report.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep jobs.SimReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Converged == nil || rep.Chunks < 1 {
		t.Fatalf("converge report = %+v", rep)
	}
	mdone := poll(t, ts, mv.ID, 60*time.Second)
	if mdone.State != wsanclient.StateDone {
		t.Fatalf("manage finished %v (%s)", mdone.State, mdone.Error)
	}
	resp, err = http.Get(ts.URL + "/v1/artifacts/" + mdone.Artifact + "/schedule.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wsan.LoadSchedule(resp.Body); err != nil {
		t.Fatalf("managed schedule does not decode: %v", err)
	}
	resp.Body.Close()
}
