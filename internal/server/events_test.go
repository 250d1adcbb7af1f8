package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"wsan/internal/obs"
	"wsan/wsanclient"
)

// collectN drains exactly n events from a subscriber or fails the test.
func collectN(t *testing.T, sub *Subscriber, n int, timeout time.Duration) []wsanclient.Event {
	t.Helper()
	out := make([]wsanclient.Event, 0, n)
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("subscriber channel closed after %d/%d events", len(out), n)
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out with %d/%d events", len(out), n)
		}
	}
	return out
}

func TestBusFanOutOrdered(t *testing.T) {
	reg := obs.NewRegistry()
	bus := NewBus(0, 0, reg)
	defer bus.Close()

	const nSubs, nEvents, nPublishers = 8, 120, 4
	subs := make([]*Subscriber, nSubs)
	for i := range subs {
		sub, err := bus.Subscribe(SubscribeOptions{Buffer: nEvents + 8})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs[i] = sub
	}

	// Publish concurrently from several goroutines: the bus must still hand
	// every subscriber the same, strictly seq-ordered stream.
	var wg sync.WaitGroup
	for p := 0; p < nPublishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < nEvents/nPublishers; i++ {
				bus.Publish(wsanclient.EventJobQueued, "net", fmt.Sprintf("j%d-%d", p, i), nil)
			}
		}(p)
	}
	wg.Wait()

	var reference []wsanclient.Event
	for i, sub := range subs {
		got := collectN(t, sub, nEvents, 5*time.Second)
		for j := 1; j < len(got); j++ {
			if got[j].Seq <= got[j-1].Seq {
				t.Fatalf("subscriber %d: seq not increasing at %d: %d then %d",
					i, j, got[j-1].Seq, got[j].Seq)
			}
		}
		if i == 0 {
			reference = got
			continue
		}
		for j := range got {
			if got[j].Seq != reference[j].Seq || got[j].Job != reference[j].Job {
				t.Fatalf("subscriber %d diverges from subscriber 0 at %d: %+v vs %+v",
					i, j, got[j], reference[j])
			}
		}
		if d := sub.Dropped(); d != 0 {
			t.Fatalf("subscriber %d dropped %d events with ample buffer", i, d)
		}
	}
	if n := reg.Snapshot().Counters["server.events.published"]; n != nEvents {
		t.Fatalf("server.events.published = %d, want %d", n, nEvents)
	}
}

func TestBusSlowConsumerDropsWithoutBlocking(t *testing.T) {
	reg := obs.NewRegistry()
	bus := NewBus(0, 0, reg)
	defer bus.Close()

	fast, err := bus.Subscribe(SubscribeOptions{Buffer: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	slow, err := bus.Subscribe(SubscribeOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()

	// Never drain `slow`. Publishing must complete promptly regardless.
	const nEvents = 50
	start := time.Now()
	for i := 0; i < nEvents; i++ {
		bus.Publish(wsanclient.EventJobQueued, "net", fmt.Sprintf("j%d", i), nil)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("publishing %d events past a stuck subscriber took %v", nEvents, elapsed)
	}

	got := collectN(t, fast, nEvents, 5*time.Second)
	if len(got) != nEvents {
		t.Fatalf("fast subscriber got %d events, want %d", len(got), nEvents)
	}
	wantDropped := int64(nEvents - 1) // its channel retains exactly one
	if d := slow.Dropped(); d != wantDropped {
		t.Fatalf("slow subscriber dropped %d, want %d", d, wantDropped)
	}
	if n := reg.Snapshot().Counters["server.events.dropped"]; n != wantDropped {
		t.Fatalf("server.events.dropped = %d, want %d", n, wantDropped)
	}
}

func TestBusReplayAndResume(t *testing.T) {
	bus := NewBus(0, 4, obs.NewRegistry())
	defer bus.Close()
	// Make the bus active so events are retained (no subscriber ever →
	// publishing is a no-op by design).
	primer, err := bus.Subscribe(SubscribeOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	primer.Close()

	for i := 1; i <= 10; i++ {
		bus.Publish(wsanclient.EventJobQueued, "net", fmt.Sprintf("j%d", i), nil)
	}

	// AfterSeq past the ring start: exact resume.
	sub, err := bus.Subscribe(SubscribeOptions{AfterSeq: 8})
	if err != nil {
		t.Fatal(err)
	}
	got := collectN(t, sub, 2, time.Second)
	if got[0].Seq != 9 || got[1].Seq != 10 {
		t.Fatalf("resume after seq 8 delivered %d, %d; want 9, 10", got[0].Seq, got[1].Seq)
	}
	sub.Close()

	// AfterSeq before the ring start: the bounded ring serves what it
	// retains (the last 4), surfacing the gap via sequence numbers.
	sub2, err := bus.Subscribe(SubscribeOptions{AfterSeq: 1})
	if err != nil {
		t.Fatal(err)
	}
	got = collectN(t, sub2, 4, time.Second)
	if got[0].Seq != 7 || got[3].Seq != 10 {
		t.Fatalf("ring replay spans %d..%d, want 7..10", got[0].Seq, got[3].Seq)
	}
	sub2.Close()

	// Job filter applies to replay too.
	sub3, err := bus.Subscribe(SubscribeOptions{Job: "j9", AfterSeq: 1})
	if err != nil {
		t.Fatal(err)
	}
	got = collectN(t, sub3, 1, time.Second)
	if got[0].Job != "j9" {
		t.Fatalf("filtered replay delivered job %q, want j9", got[0].Job)
	}
	sub3.Close()

	bus.Close()
	if _, err := bus.Subscribe(SubscribeOptions{}); err != ErrBusClosed {
		t.Fatalf("Subscribe on closed bus: %v, want ErrBusClosed", err)
	}
}

// TestPublishInactiveAllocFree is the bench-gate guard: with no subscriber
// ever attached (the common case — a daemon nobody is watching), Publish
// must cost one atomic load and zero heap allocations, keeping the job hot
// path identical to the pre-streaming code.
func TestPublishInactiveAllocFree(t *testing.T) {
	bus := NewBus(0, 0, obs.NewRegistry())
	defer bus.Close()
	var payload any = &wsanclient.ManageHealth{Iteration: 1, Health: "healthy"}
	allocs := testing.AllocsPerRun(1000, func() {
		bus.Publish(wsanclient.EventManageHealth, "net", "j1", payload)
	})
	if allocs != 0 {
		t.Fatalf("inactive Publish allocates %.1f per call, want 0", allocs)
	}
	if bus.HasSubscribers() || bus.Enabled() {
		t.Fatal("bus unexpectedly active")
	}
}

func TestJobsPagination(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueCap: 16})
	createTestNetwork(t, ts, "plant")

	const nJobs = 5
	ids := make([]string, 0, nJobs)
	for i := 0; i < nJobs; i++ {
		v, code := submit(t, ts, "plant", wsanclient.KindSchedule, map[string]any{
			"flows": 3 + i, "alg": "rc", "seed": 100 + i,
		})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids = append(ids, v.ID)
	}

	// Walk the cursor: pages of 2, stable submission order, no overlap.
	var walked []string
	after := ""
	for {
		var page struct {
			Jobs      []wsanclient.Job `json:"jobs"`
			NextAfter string           `json:"nextAfter"`
		}
		url := ts.URL + "/v1/jobs?limit=2"
		if after != "" {
			url += "&after=" + after
		}
		if code := doJSON(t, http.MethodGet, url, nil, &page); code != http.StatusOK {
			t.Fatalf("list: status %d", code)
		}
		if len(page.Jobs) > 2 {
			t.Fatalf("limit=2 returned %d jobs", len(page.Jobs))
		}
		for _, j := range page.Jobs {
			walked = append(walked, j.ID)
		}
		if page.NextAfter == "" {
			break
		}
		after = page.NextAfter
	}
	if len(walked) != nJobs {
		t.Fatalf("cursor walk yielded %d jobs, want %d: %v", len(walked), nJobs, walked)
	}
	for i, id := range walked {
		if id != ids[i] {
			t.Fatalf("cursor order diverges at %d: got %s, want %s (submission order)", i, id, ids[i])
		}
	}

	// Direct accessor agrees with HTTP.
	views, next := srv.JobViews(ids[1], 2)
	if len(views) != 2 || views[0].ID != ids[2] || views[1].ID != ids[3] || next != ids[3] {
		t.Fatalf("JobViews(after=%s, limit=2) = %v jobs, next %q", ids[1], len(views), next)
	}

	// limit=0 keeps the pre-pagination behavior: everything, no cursor.
	var all struct {
		Jobs      []wsanclient.Job `json:"jobs"`
		NextAfter string           `json:"nextAfter"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &all)
	if len(all.Jobs) != nJobs || all.NextAfter != "" {
		t.Fatalf("unpaginated list: %d jobs, nextAfter %q", len(all.Jobs), all.NextAfter)
	}

	// Malformed paging parameters are invalid_request, not silent defaults.
	for _, q := range []string{"?limit=-1", "?limit=bogus"} {
		var env errorBody
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs"+q, nil, &env); code != http.StatusBadRequest {
			t.Fatalf("GET /v1/jobs%s: status %d, want 400", q, code)
		}
		if env.Error.Code != codeInvalidRequest {
			t.Fatalf("GET /v1/jobs%s: code %q, want %q", q, env.Error.Code, codeInvalidRequest)
		}
	}

	for _, id := range ids {
		poll(t, ts, id, 30*time.Second)
	}

	// Artifact pages: hex-ID order, cursor walk covers every artifact once.
	var artWalked []string
	after = ""
	for {
		var page struct {
			Artifacts []wsanclient.ArtifactInfo `json:"artifacts"`
			NextAfter string                    `json:"nextAfter"`
		}
		url := ts.URL + "/v1/artifacts?limit=2"
		if after != "" {
			url += "&after=" + after
		}
		if code := doJSON(t, http.MethodGet, url, nil, &page); code != http.StatusOK {
			t.Fatalf("artifacts: status %d", code)
		}
		for _, a := range page.Artifacts {
			artWalked = append(artWalked, a.ID)
		}
		if page.NextAfter == "" {
			break
		}
		after = page.NextAfter
	}
	if len(artWalked) != nJobs {
		t.Fatalf("artifact walk yielded %d, want %d", len(artWalked), nJobs)
	}
	for i := 1; i < len(artWalked); i++ {
		if artWalked[i] <= artWalked[i-1] {
			t.Fatalf("artifact order not strictly increasing at %d: %q then %q",
				i, artWalked[i-1], artWalked[i])
		}
	}
}

// TestUnversionedPathsNotFound: only /v1 is served. A former unversioned
// alias falls through to the catch-all and answers the not_found envelope,
// and no response advertises a deprecation.
func TestUnversionedPathsNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})

	get := func(path string) (*http.Response, errorBody) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env errorBody
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("GET %s: status %d body is not the error envelope: %v", path, resp.StatusCode, err)
			}
		}
		return resp, env
	}

	if v1, _ := get("/v1/healthz"); v1.StatusCode != http.StatusOK || v1.Header.Get("Deprecation") != "" {
		t.Fatalf("GET /v1/healthz: status %d, Deprecation %q", v1.StatusCode, v1.Header.Get("Deprecation"))
	}
	for _, path := range []string{"/healthz", "/jobs", "/networks", "/v1/nope"} {
		resp, env := get(path)
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != codeNotFound {
			t.Errorf("GET %s: status %d code %q, want 404 %q", path, resp.StatusCode, env.Error.Code, codeNotFound)
		}
		if d := resp.Header.Get("Deprecation"); d != "" {
			t.Errorf("GET %s carries Deprecation: %q", path, d)
		}
	}
}

func TestErrorEnvelopeCodes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	createTestNetwork(t, ts, "plant")

	cases := []struct {
		name     string
		method   string
		path     string
		body     any
		status   int
		wantCode string
	}{
		{"job not found", http.MethodGet, "/v1/jobs/j999", nil, 404, codeNotFound},
		{"network not found", http.MethodGet, "/v1/networks/ghost", nil, 404, codeNotFound},
		{"artifact not found", http.MethodGet, "/v1/artifacts/beef", nil, 404, codeNotFound},
		{"events for unknown job", http.MethodGet, "/v1/jobs/j999/events", nil, 404, codeNotFound},
		{"bad submit body", http.MethodPost, "/v1/networks/plant/jobs", map[string]any{"kind": "warp"}, 400, codeInvalidRequest},
		{"bad network body", http.MethodPost, "/v1/networks", map[string]any{"name": ""}, 400, codeInvalidRequest},
		{"duplicate network", http.MethodPost, "/v1/networks", map[string]any{"name": "plant", "preset": "wustl", "channels": 4}, 409, codeConflict},
		{"bad resume cursor", http.MethodGet, "/v1/events?lastEventID=bogus", nil, 400, codeInvalidRequest},
		{"bad jobs cursor", http.MethodGet, "/v1/jobs?after=garbage", nil, 400, codeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var env errorBody
			code := doJSON(t, tc.method, ts.URL+tc.path, tc.body, &env)
			if code != tc.status {
				t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, code, tc.status)
			}
			if env.Error.Code != tc.wantCode {
				t.Fatalf("%s %s: code %q, want %q", tc.method, tc.path, env.Error.Code, tc.wantCode)
			}
		})
	}
}

// TestStreamedManageJob is the acceptance test for the tentpole: a
// wsanclient subscriber attached over real SSE receives the job's ordered
// lifecycle transitions AND per-iteration health verdicts, with every
// health event published strictly before the terminal event (sequence
// numbers are assigned at publish time, so seq(health) < seq(done) proves
// the verdicts streamed while the job executed, however fast it ran).
func TestStreamedManageJob(t *testing.T) {
	if testing.Short() {
		t.Skip("manage jobs skipped in -short mode")
	}
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	createTestNetwork(t, ts, "plant")

	ctx, cancel := contextWithTimeout(60 * time.Second)
	defer cancel()
	c := wsanclient.New(ts.URL, wsanclient.Options{})

	// A firehose subscription first: it activates the bus (and its replay
	// ring) before any job runs, so the per-job subscription below can
	// resume from the ring even if the job outpaces the HTTP round-trips.
	primer, err := c.Subscribe(ctx, wsanclient.StreamOptions{Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer primer.Close()

	// The schedule job's own events advance the sequence counter past 1, so
	// AfterSeq=1 below replays the manage job's stream from its first event.
	art := mustSchedule(t, ts, "plant")

	mv, code := submit(t, ts, "plant", wsanclient.KindManage, map[string]any{
		"artifact": art, "maxIterations": 2, "epochSlots": 3000,
	})
	if code != http.StatusAccepted {
		t.Fatalf("manage submit: status %d", code)
	}

	st, err := c.Subscribe(ctx, wsanclient.StreamOptions{Job: mv.ID, AfterSeq: 1, Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var (
		order     []string
		healthSeq []uint64
		doneSeq   uint64
		lastSeq   uint64
		final     wsanclient.Job
	)
	for ev := range st.Events() {
		if ev.Seq > 0 { // the snapshot primer carries no sequence number
			if ev.Seq <= lastSeq {
				t.Errorf("stream out of order: seq %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
		}
		order = append(order, ev.Type)
		switch ev.Type {
		case wsanclient.EventManageHealth:
			mh, derr := ev.ManageHealthData()
			if derr != nil {
				t.Errorf("manage.health payload: %v", derr)
			}
			if mh.Iteration < 0 || mh.Health == "" {
				t.Errorf("manage.health payload incomplete: %+v", mh)
			}
			healthSeq = append(healthSeq, ev.Seq)
		case wsanclient.EventJobDone:
			doneSeq = ev.Seq
			if j, jerr := ev.JobData(); jerr == nil {
				final = j
			}
		}
	}
	if serr := st.Err(); serr != nil {
		t.Fatalf("stream: %v (events so far: %v)", serr, order)
	}
	if final.State != wsanclient.StateDone {
		t.Fatalf("manage job finished %q: %s (events: %v)", final.State, final.Error, order)
	}
	if len(healthSeq) == 0 {
		t.Fatalf("no manage.health events streamed; got %v", order)
	}
	if doneSeq == 0 {
		t.Fatalf("no job.done event streamed; got %v", order)
	}
	for _, hs := range healthSeq {
		if hs >= doneSeq {
			t.Fatalf("health event seq %d not before job.done seq %d", hs, doneSeq)
		}
	}
	// The first event is the snapshot primer; running precedes done.
	if order[0] != wsanclient.EventJobSnapshot {
		t.Fatalf("stream did not open with a snapshot: %v", order)
	}
	iRunning, iDone := -1, -1
	for i, typ := range order {
		switch typ {
		case wsanclient.EventJobRunning:
			iRunning = i
		case wsanclient.EventJobDone:
			iDone = i
		}
	}
	if iDone == -1 || (iRunning != -1 && iRunning > iDone) {
		t.Fatalf("lifecycle out of order: %v", order)
	}
}

// TestSlowSubscriberDoesNotDelayJobs is the backpressure acceptance test: a
// subscriber that never drains its 1-slot queue must cost the pipeline
// nothing — the job completes promptly and the overflow shows up in
// server.events.dropped.
func TestSlowSubscriberDoesNotDelayJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("manage jobs skipped in -short mode")
	}
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Metrics: reg})
	createTestNetwork(t, ts, "plant")
	art := mustSchedule(t, ts, "plant")

	stuck, err := srv.Events().Subscribe(SubscribeOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	// Never read stuck.Events().

	mv, code := submit(t, ts, "plant", wsanclient.KindManage, map[string]any{
		"artifact": art, "maxIterations": 2, "epochSlots": 3000,
	})
	if code != http.StatusAccepted {
		t.Fatalf("manage submit: status %d", code)
	}
	start := time.Now()
	done := poll(t, ts, mv.ID, 60*time.Second)
	elapsed := time.Since(start)
	if done.State != wsanclient.StateDone {
		t.Fatalf("manage finished %v (%s)", done.State, done.Error)
	}
	// The same job shape completes in a few seconds in TestConvergeAndManage
	// even under -race; a stuck subscriber must not change that order of
	// magnitude. The bound is deliberately generous to stay robust on slow
	// CI machines while still catching a blocking fan-out (which would hang
	// until the 60s poll limit).
	if elapsed > 45*time.Second {
		t.Fatalf("manage job took %v with a stuck subscriber", elapsed)
	}
	if d := stuck.Dropped(); d == 0 {
		t.Fatal("stuck subscriber recorded no drops")
	}
	if n := reg.Snapshot().Counters["server.events.dropped"]; n == 0 {
		t.Fatal("server.events.dropped not incremented")
	}
}

// TestFirehoseMetricsAndFaultEvents covers the remaining event families:
// metrics.delta on the firehose and faults.applied during a manage job.
func TestFirehoseMetricsAndFaultEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("manage jobs skipped in -short mode")
	}
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, MetricsInterval: 50 * time.Millisecond})
	createTestNetwork(t, ts, "plant")
	art := mustSchedule(t, ts, "plant")

	ctx, cancel := contextWithTimeout(60 * time.Second)
	defer cancel()
	c := wsanclient.New(ts.URL, wsanclient.Options{})
	st, err := c.Subscribe(ctx, wsanclient.StreamOptions{Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// A fault scenario makes the simulator flush faults.* counters, which
	// the job's sink tap turns into faults.applied stream events.
	mv, code := submit(t, ts, "plant", wsanclient.KindManage, map[string]any{
		"artifact": art, "maxIterations": 1, "epochSlots": 3000,
		"faults": map[string]any{
			"seed": 1,
			"events": []map[string]any{
				{"at": 0, "kind": "interference-start", "channels": []int{0}, "powerDBm": -70},
			},
		},
	})
	if code != http.StatusAccepted {
		t.Fatalf("manage submit: status %d", code)
	}
	if done := poll(t, ts, mv.ID, 60*time.Second); done.State != wsanclient.StateDone {
		t.Fatalf("manage finished %v (%s)", done.State, done.Error)
	}

	seen := map[string]bool{}
	deadline := time.After(10 * time.Second)
	for !(seen[wsanclient.EventMetricsDelta] && seen[wsanclient.EventFaultCounts] && seen[wsanclient.EventJobDone]) {
		select {
		case ev, ok := <-st.Events():
			if !ok {
				t.Fatalf("stream closed early (%v); saw %v", st.Err(), seen)
			}
			seen[ev.Type] = true
		case <-deadline:
			t.Fatalf("firehose missing event families after 10s; saw %v", seen)
		}
	}
}
