package wsanclient

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// envelope writes the v1 error envelope, as the daemon does.
func envelope(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error":{"code":%q,"message":%q}}`, code, msg)
}

func testClient(ts *httptest.Server, opts Options) *Client {
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = time.Millisecond
	}
	return New(ts.URL, opts)
}

// fakeClock stands in for a client's clock: every wait returns at once,
// with the context's error if it is done, and is recorded.
type fakeClock struct {
	mu    sync.Mutex
	waits []time.Duration
}

// install makes c wait on the fake clock.
func (f *fakeClock) install(c *Client) *Client {
	c.sleep = func(ctx context.Context, d time.Duration) error {
		f.mu.Lock()
		f.waits = append(f.waits, d)
		f.mu.Unlock()
		return ctx.Err()
	}
	return c
}

// recorded returns the waits so far, in milliseconds.
func (f *fakeClock) recorded() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	ms := make([]int64, len(f.waits))
	for i, d := range f.waits {
		ms[i] = d.Milliseconds()
	}
	return ms
}

func TestRetryTransientThenSucceed(t *testing.T) {
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/j1" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		if attempts.Add(1) <= 2 {
			envelope(w, http.StatusServiceUnavailable, "draining", "try later")
			return
		}
		json.NewEncoder(w).Encode(Job{ID: "j1", State: StateDone})
	}))
	defer ts.Close()

	c := testClient(ts, Options{MaxRetries: 3})
	job, err := c.Job(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "j1" || job.State != StateDone {
		t.Fatalf("job = %+v", job)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3 (two 503s then success)", n)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		attempts.Add(1)
		envelope(w, http.StatusBadGateway, "", "bad gateway")
	}))
	defer ts.Close()

	c := testClient(ts, Options{MaxRetries: 2})
	_, err := c.Job(context.Background(), "j1")
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("err = %v, want APIError 502", err)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3 (initial + 2 retries)", n)
	}
}

func TestNoRetryOnClientError(t *testing.T) {
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		attempts.Add(1)
		envelope(w, http.StatusNotFound, "not_found", "no job j9")
	}))
	defer ts.Close()

	c := testClient(ts, Options{})
	_, err := c.Job(context.Background(), "j9")
	if !IsNotFound(err) {
		t.Fatalf("err = %v, want not_found", err)
	}
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.Code != "not_found" || apiErr.Message != "no job j9" {
		t.Fatalf("envelope not decoded: %v", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("server saw %d attempts, want 1 (4xx is permanent)", n)
	}
}

func TestRetryHonorsRetryAfter(t *testing.T) {
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			envelope(w, http.StatusTooManyRequests, "queue_full", "queue full")
			return
		}
		json.NewEncoder(w).Encode(Job{ID: "j1", State: StateQueued})
	}))
	defer ts.Close()

	c := testClient(ts, Options{MaxRetries: 1})
	start := time.Now()
	if _, err := c.Job(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retried after %v, want >= ~1s from Retry-After", elapsed)
	}
}

func TestSubmitRetryResubmitsBody(t *testing.T) {
	var bodies atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Kind   string          `json:"kind"`
			Params json.RawMessage `json:"params"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Kind != "schedule" {
			t.Errorf("attempt %d: body not re-sent intact: %v (%+v)", bodies.Load()+1, err, req)
		}
		if bodies.Add(1) == 1 {
			envelope(w, http.StatusServiceUnavailable, "draining", "busy")
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(Job{ID: "j1", State: StateQueued, Kind: req.Kind})
	}))
	defer ts.Close()

	c := testClient(ts, Options{MaxRetries: 2})
	job, err := c.SubmitJob(context.Background(), "plant", KindSchedule, map[string]any{"flows": 5})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "j1" || bodies.Load() != 2 {
		t.Fatalf("job %+v after %d attempts", job, bodies.Load())
	}
}

// sseEvent frames one event the way the daemon does.
func sseEvent(w http.ResponseWriter, seq uint64, typ, job string) {
	ev := Event{Seq: seq, Type: typ, Job: job, Network: "plant"}
	data, _ := json.Marshal(ev)
	if seq > 0 {
		fmt.Fprintf(w, "id: %d\n", seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", typ, data)
	w.(http.Flusher).Flush()
}

// TestStreamReconnectResume kills the SSE connection mid-stream and checks
// the client transparently reconnects with Last-Event-ID so no retained
// event is skipped or duplicated.
func TestStreamReconnectResume(t *testing.T) {
	var conns atomic.Int32
	var resumedFrom atomic.Value // string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/j1/events" {
			envelope(w, http.StatusNotFound, "not_found", r.URL.Path)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		switch conns.Add(1) {
		case 1:
			if lid := r.Header.Get("Last-Event-ID"); lid != "" {
				t.Errorf("first connection sent Last-Event-ID %q", lid)
			}
			sseEvent(w, 0, EventJobSnapshot, "j1")
			sseEvent(w, 3, EventJobQueued, "j1")
			sseEvent(w, 4, EventJobRunning, "j1")
			// Drop the connection without a terminal event: the client must
			// reconnect and resume after seq 4.
		default:
			resumedFrom.Store(r.Header.Get("Last-Event-ID"))
			sseEvent(w, 0, EventJobSnapshot, "j1")
			sseEvent(w, 7, EventManageHealth, "j1")
			sseEvent(w, 9, EventJobDone, "j1")
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	c := testClient(ts, Options{})
	st, err := c.Watch(ctx, "j1")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var types []string
	var seqs []uint64
	for ev := range st.Events() {
		types = append(types, ev.Type)
		if ev.Seq > 0 {
			seqs = append(seqs, ev.Seq)
		}
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream err: %v (got %v)", err, types)
	}
	if conns.Load() != 2 {
		t.Fatalf("server saw %d connections, want 2", conns.Load())
	}
	if got := resumedFrom.Load(); got != "4" {
		t.Fatalf("reconnect resumed from %v, want \"4\"", got)
	}
	wantSeqs := []uint64{3, 4, 7, 9}
	if len(seqs) != len(wantSeqs) {
		t.Fatalf("sequenced events %v, want %v (types %v)", seqs, wantSeqs, types)
	}
	for i := range wantSeqs {
		if seqs[i] != wantSeqs[i] {
			t.Fatalf("sequenced events %v, want %v", seqs, wantSeqs)
		}
	}
}

// TestStreamGivesUpAfterMaxRetries ends the stream with an error once
// consecutive reconnection attempts exhaust the budget.
func TestStreamGivesUpAfterMaxRetries(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		if conns.Add(1) == 1 {
			sseEvent(w, 0, EventJobSnapshot, "j1")
			sseEvent(w, 1, EventJobQueued, "j1")
		}
		// Every connection drops without a terminal event; reconnections
		// deliver nothing, so the failure budget is never reset.
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	clock := &fakeClock{}
	c := clock.install(testClient(ts, Options{}))
	st, err := c.Subscribe(ctx, StreamOptions{Job: "j1", MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for range st.Events() {
	}
	if err := st.Err(); err == nil {
		t.Fatal("stream ended cleanly, want a reconnect-exhausted error")
	}
	if n := conns.Load(); n < 3 {
		t.Fatalf("server saw %d connections, want initial + 2 retries", n)
	}
	if got, want := fmt.Sprint(clock.recorded()), "[1 2]"; got != want {
		t.Fatalf("backoffs %s ms, want %s", got, want)
	}
}

// TestStreamBackoffResetsAfterDelivery checks that the reconnect failure
// budget — and with it the exponential backoff position — resets whenever a
// connection delivers an event. The server alternates connections that
// deliver one event with connections that deliver nothing, dropping every
// one; with MaxRetries=2 the stream survives six drops (far more than the
// budget) only because each delivery resets the count, then ends cleanly on
// the seventh connection's terminal event.
func TestStreamBackoffResetsAfterDelivery(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		switch n := conns.Add(1); {
		case n >= 7:
			sseEvent(w, uint64(n), EventJobDone, "j1")
		case n%2 == 1:
			// Odd connections deliver progress, then drop.
			sseEvent(w, uint64(n), EventJobRunning, "j1")
		default:
			// Even connections drop without delivering anything, burning
			// one reconnect attempt each.
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	clock := &fakeClock{}
	c := clock.install(testClient(ts, Options{}))
	st, err := c.Subscribe(ctx, StreamOptions{Job: "j1", MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var delivered int
	for range st.Events() {
		delivered++
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream err: %v — failure budget did not reset on delivery", err)
	}
	if n := conns.Load(); n != 7 {
		t.Fatalf("server saw %d connections, want 7 (six drops survived)", n)
	}
	if delivered != 4 {
		t.Fatalf("delivered %d events, want 4 (three progress + terminal)", delivered)
	}
	// Each delivery restarts the backoff at its base.
	if got, want := fmt.Sprint(clock.recorded()), "[1 2 1 2 1 2]"; got != want {
		t.Fatalf("backoffs %s ms, want %s", got, want)
	}
}

// TestStreamResumeSurvivesConsecutiveDrops drops the connection twice in a
// row without delivering anything in between and checks every reconnect
// still resumes from the highest sequence number actually seen — an empty
// connection must not regress or clear Last-Event-ID.
func TestStreamResumeSurvivesConsecutiveDrops(t *testing.T) {
	var mu sync.Mutex
	var resumes []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		resumes = append(resumes, r.Header.Get("Last-Event-ID"))
		n := len(resumes)
		mu.Unlock()
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		switch n {
		case 1:
			sseEvent(w, 5, EventJobRunning, "j1")
			// Drop after seq 5.
		case 2, 3:
			// Two consecutive empty drops.
		default:
			sseEvent(w, 9, EventJobDone, "j1")
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	c := testClient(ts, Options{})
	st, err := c.Watch(ctx, "j1")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var seqs []uint64
	for ev := range st.Events() {
		seqs = append(seqs, ev.Seq)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream err: %v", err)
	}
	mu.Lock()
	got := append([]string(nil), resumes...)
	mu.Unlock()
	want := []string{"", "5", "5", "5"}
	if len(got) != len(want) {
		t.Fatalf("resume headers %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("connection %d resumed from %q, want %q (all: %q)", i+1, got[i], want[i], got)
		}
	}
	if len(seqs) != 2 || seqs[0] != 5 || seqs[1] != 9 {
		t.Fatalf("delivered seqs %v, want [5 9]", seqs)
	}
}

func TestSubscribeRejectsBadTarget(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		envelope(w, http.StatusNotFound, "not_found", "no job")
	}))
	defer ts.Close()

	c := testClient(ts, Options{})
	if _, err := c.Watch(context.Background(), "ghost"); !IsNotFound(err) {
		t.Fatalf("Watch(ghost) = %v, want not_found at the call site", err)
	}
}

// pagingStub serves a cursor-paginated artifact/job list from fixed ID
// sets, implementing the daemon's strictly-greater resume semantics.
func pagingStub(t *testing.T, artifactIDs, jobIDs []string) http.Handler {
	page := func(ids []string, after string, limit int) (out []string, next string) {
		start := 0
		for start < len(ids) && ids[start] <= after {
			start++
		}
		end := len(ids)
		if limit > 0 && start+limit < end {
			end = start + limit
		}
		out = ids[start:end]
		if end < len(ids) && len(out) > 0 {
			next = out[len(out)-1]
		}
		return out, next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		after := r.URL.Query().Get("after")
		limit := 0
		if raw := r.URL.Query().Get("limit"); raw != "" {
			fmt.Sscanf(raw, "%d", &limit)
		}
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/v1/artifacts":
			ids, next := page(artifactIDs, after, limit)
			p := ArtifactPage{NextAfter: next}
			for _, id := range ids {
				p.Artifacts = append(p.Artifacts, ArtifactInfo{ID: id, Kind: "schedule"})
			}
			json.NewEncoder(w).Encode(p)
		case "/v1/jobs":
			ids, next := page(jobIDs, after, limit)
			p := JobPage{NextAfter: next}
			for _, id := range ids {
				p.Jobs = append(p.Jobs, Job{ID: id, State: StateDone})
			}
			json.NewEncoder(w).Encode(p)
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
			envelope(w, http.StatusNotFound, "not_found", "no route")
		}
	})
}

func TestAllArtifactsFollowsCursors(t *testing.T) {
	ids := make([]string, 7)
	for i := range ids {
		ids[i] = fmt.Sprintf("%02x", i+1)
	}
	ts := httptest.NewServer(pagingStub(t, ids, nil))
	defer ts.Close()

	all, err := testClient(ts, Options{}).AllArtifacts(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(ids) {
		t.Fatalf("walked %d artifacts, want %d", len(all), len(ids))
	}
	for i, a := range all {
		if a.ID != ids[i] {
			t.Fatalf("artifact %d = %s, want %s", i, a.ID, ids[i])
		}
	}
}

func TestAllJobsFollowsCursors(t *testing.T) {
	ids := []string{"j1", "j2", "j3", "j4", "j5"}
	ts := httptest.NewServer(pagingStub(t, nil, ids))
	defer ts.Close()

	all, err := testClient(ts, Options{}).AllJobs(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(ids) {
		t.Fatalf("walked %d jobs, want %d", len(all), len(ids))
	}
	for i, j := range all {
		if j.ID != ids[i] {
			t.Fatalf("job %d = %s, want %s", i, j.ID, ids[i])
		}
	}
}

func TestMetricsSnapshot(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/metrics" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"counters":{"server.cache.hits":4},"gauges":{"server.cache.bytes":123.0}}`)
	}))
	defer ts.Close()

	snap, err := testClient(ts, Options{}).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.cache.hits"] != 4 || snap.Gauges["server.cache.bytes"] != 123 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestCacheEvictionDecode(t *testing.T) {
	e := Event{Type: EventCacheEvict, Data: json.RawMessage(`{"id":"ab","kind":"schedule","bytes":64,"reason":"capacity"}`)}
	ev, err := e.CacheEvictionData()
	if err != nil {
		t.Fatal(err)
	}
	if ev.ID != "ab" || ev.Bytes != 64 || ev.Reason != "capacity" {
		t.Fatalf("eviction = %+v", ev)
	}
}

// TestManageHealthRebudgetDecode streams one manage.health event carrying
// the reliability re-budgeting fields through a stub daemon and checks the
// typed decode surfaces rebudget counts, rehabilitated channels, and the
// per-flow shortfall report.
func TestManageHealthRebudgetDecode(t *testing.T) {
	payload := `{"iteration":2,"health":"degraded","minPDR":0.91,"meanPDR":0.97,` +
		`"degradedLinks":1,"moved":0,"unmovable":0,"rerouted":0,` +
		`"blacklisted":[15],"rehabilitated":[16],"channels":[11,12,13,16],` +
		`"deltaChanges":6,"affectedDevices":4,` +
		`"rebudgeted":2,"retriesShed":3,"shedFlows":[7],` +
		`"shortfalls":[{"flow":7,"target":0.99,"predicted":0.942}]}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/j1/events" {
			envelope(w, http.StatusNotFound, "not_found", r.URL.Path)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		ev := Event{Seq: 1, Type: EventManageHealth, Job: "j1", Network: "plant",
			Data: json.RawMessage(payload)}
		data, _ := json.Marshal(ev)
		fmt.Fprintf(w, "id: 1\nevent: %s\ndata: %s\n\n", EventManageHealth, data)
		sseEvent(w, 2, EventJobDone, "j1")
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	st, err := testClient(ts, Options{}).Watch(ctx, "j1")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var mh *ManageHealth
	for ev := range st.Events() {
		if ev.Type != EventManageHealth {
			continue
		}
		m, err := ev.ManageHealthData()
		if err != nil {
			t.Fatal(err)
		}
		mh = &m
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if mh == nil {
		t.Fatal("no manage.health event seen")
	}
	if mh.Rebudgeted != 2 || mh.RetriesShed != 3 {
		t.Fatalf("rebudget fields = %+v", mh)
	}
	if len(mh.Rehabilitated) != 1 || mh.Rehabilitated[0] != 16 {
		t.Fatalf("rehabilitated = %v", mh.Rehabilitated)
	}
	if len(mh.ShedFlows) != 1 || mh.ShedFlows[0] != 7 {
		t.Fatalf("shedFlows = %v", mh.ShedFlows)
	}
	if len(mh.Shortfalls) != 1 {
		t.Fatalf("shortfalls = %+v", mh.Shortfalls)
	}
	sf := mh.Shortfalls[0]
	if sf.Flow != 7 || sf.Target != 0.99 || sf.Predicted != 0.942 {
		t.Fatalf("shortfall = %+v", sf)
	}
}
