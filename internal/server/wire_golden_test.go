package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"wsan"
)

// The golden wire test pins the daemon's v1 wire contract byte for byte:
// the canonical parameter encoding and artifact key of every job kind (the
// cache-key material — a drift here silently invalidates every stored
// artifact), and the JSON encodings of the job, network, artifact-list,
// SSE-event and manage.health documents clients decode. It names no wire
// type, only the values the server builds, so it holds across refactors of
// who declares those types.

// goldenTime is the fixed clock every pinned document carries.
var goldenTime = time.Date(2026, 1, 2, 3, 4, 5, 6000, time.UTC)

// goldenArtifact is the schedule-bundle ID the canonical documents reference.
const goldenArtifact = "golden-art"

// goldenParams maps kind → raw params → {canonical bytes, artifact key}.
var goldenParams = []struct {
	kind, raw, canon, key string
}{
	{"schedule", `{}`,
		`{"flows":30,"minPeriodExp":0,"maxPeriodExp":2,"traffic":"p2p","alg":"rc","seed":1,"rhoT":2}`,
		"8a4a06473f944ff461dd0eb3ab01a1ee66ac2ae2015cdcfbac9238d95c4000c6"},
	{"schedule", `{"flows":7,"minPeriodExp":1,"maxPeriodExp":3,"traffic":"centralized","alg":"ra","seed":9,"rhoT":3,"disableRetransmit":true,"targetPDR":0.95}`,
		`{"flows":7,"minPeriodExp":1,"maxPeriodExp":3,"traffic":"centralized","alg":"ra","seed":9,"rhoT":3,"disableRetransmit":true,"targetPDR":0.95}`,
		"279e9dc7c2e24523796a23aabf004d67037fc37bfe5e50e4551a0f3272f12b9b"},
	{"simulate", `{"artifact":"golden-art"}`,
		`{"artifact":"golden-art","hyperperiods":100,"seed":1}`,
		"50b6c35fe3a0487587858751ec999c30dc2429ef79a240735cf56ace47288bef"},
	{"simulate", `{"artifact":"golden-art","hyperperiods":5,"seed":9,"fading":1.5,"drift":0,"faults":{"seed":1,"events":[{"at":0,"kind":"interference-start","channels":[0],"powerDBm":-70}]}}`,
		`{"artifact":"golden-art","hyperperiods":5,"seed":9,"fading":1.5,"drift":0,"faults":{"seed":1,"events":[{"at":0,"kind":"interference-start","channels":[0],"powerDBm":-70}]}}`,
		"c64c1edf643ea1eba04f55e493b0c672317e844e313194eaa622bba9a44b11bd"},
	{"converge", `{"artifact":"golden-art"}`,
		`{"artifact":"golden-art","seed":1,"chunkHyperperiods":20,"maxChunks":50,"halfWidth":0.01}`,
		"698f6689f55a4d7b98c7d52302c2c924ac02da5be686f0e4a5ce8de8838e1415"},
	{"converge", `{"artifact":"golden-art","seed":4,"fading":0,"chunkHyperperiods":2,"maxChunks":3,"halfWidth":0.5}`,
		`{"artifact":"golden-art","seed":4,"fading":0,"chunkHyperperiods":2,"maxChunks":3,"halfWidth":0.5}`,
		"b6a5806186b381d9e01de8aae318f3322d4fdfbb8df3dbff6519cd3819225e35"},
	{"manage", `{"artifact":"golden-art"}`,
		`{"artifact":"golden-art","maxIterations":3,"epochSlots":90000,"seed":1}`,
		"717c3dcec3c4d71094cb4320ed3bf5ba51624263aaeb5c85c24e8590e324c534"},
	{"manage", `{"artifact":"golden-art","maxIterations":2,"epochSlots":3000,"seed":4,"targetPDR":0.95,"paroleCleanIterations":2}`,
		`{"artifact":"golden-art","maxIterations":2,"epochSlots":3000,"seed":4,"targetPDR":0.95,"paroleCleanIterations":2}`,
		"70fdabb5f71988202b7d9020cd62b820c6482f30242d1fa1cd6364cc4a0faf0c"},
	{"reschedule", `{"artifact":"golden-art","op":"add","flow":99,"src":1,"dst":2,"period":100}`,
		`{"artifact":"golden-art","op":"add","flow":99,"src":1,"dst":2,"period":100,"deadline":100,"alg":"rc","rhoT":2}`,
		"cffa1f202cca1743eb03679858cf9beb21a83ab6f2a14cbcdbdf7420418ed2ee"},
	{"reschedule", `{"artifact":"golden-art","op":"reroute","flow":3,"avoid":[5,3,5],"alg":"nr","rhoT":4}`,
		`{"artifact":"golden-art","op":"reroute","flow":3,"avoid":[3,5],"alg":"nr","rhoT":4}`,
		"a666beeac828d5843f56edbf1c7339b7cc62ccd6cf1d1a656dd8b50309e5307e"},
	{"reschedule", `{"artifact":"golden-art","op":"remove","flow":0}`,
		`{"artifact":"golden-art","op":"remove","flow":0,"alg":"rc","rhoT":2}`,
		"79ad53ab8f4a97717795b034caac6c9824d2772a527d550237824f0a964f523d"},
}

// goldenJobs pins one job view per lifecycle state.
var goldenJobs = []struct {
	state, want string
}{
	{"queued", `{"id":"j7","network":"golden","kind":"schedule","state":"queued","cached":false,"created":"2026-01-02T03:04:05.000006Z"}`},
	{"running", `{"id":"j7","network":"golden","kind":"schedule","state":"running","cached":false,"created":"2026-01-02T03:04:05.000006Z","started":"2026-01-02T03:04:06.000006Z"}`},
	{"done", `{"id":"j7","network":"golden","kind":"schedule","state":"done","cached":false,"artifact":"abc123","created":"2026-01-02T03:04:05.000006Z","started":"2026-01-02T03:04:06.000006Z","finished":"2026-01-02T03:04:07.000006Z"}`},
	{"failed", `{"id":"j7","network":"golden","kind":"schedule","state":"failed","cached":false,"error":"boom","created":"2026-01-02T03:04:05.000006Z","started":"2026-01-02T03:04:06.000006Z","finished":"2026-01-02T03:04:07.000006Z"}`},
	{"cancelled", `{"id":"j7","network":"golden","kind":"schedule","state":"cancelled","cached":false,"error":"context canceled","created":"2026-01-02T03:04:05.000006Z","finished":"2026-01-02T03:04:07.000006Z"}`},
}

const (
	goldenNetwork  = `{"name":"golden","hash":"fe29d60327e603e74198c9906795344fd72fefe293981c0d32d64b4627d9a93c","nodes":18,"channels":[0,1,2,3],"accessPoints":[7,4],"commEdges":57,"reuseDiameter":2,"created":"2026-01-02T03:04:05.000006Z"}`
	goldenArtList  = `{"id":"golden-art","kind":"schedule","created":"2026-01-02T03:04:05.000006Z","parts":["schedule.json","survey.json","workload.json"]}`
	goldenSSE      = "id: 1\nevent: job.done\ndata: " + `{"seq":1,"type":"job.done","time":"2026-01-02T03:04:05.000006Z","network":"golden","job":"j7","data":{"id":"j7","network":"golden","kind":"schedule","state":"done","cached":false,"artifact":"abc123","created":"2026-01-02T03:04:05.000006Z","started":"2026-01-02T03:04:06.000006Z","finished":"2026-01-02T03:04:07.000006Z"}}` + "\n\n"
	goldenHealth   = `{"iteration":0,"health":"degraded","minPDR":0,"meanPDR":0.4,"degradedLinks":0,"degradedFlows":[0,2,4],"moved":0,"unmovable":0,"rerouted":0,"blacklisted":[0,1],"channels":[4,5,2,3],"deltaChanges":10,"affectedDevices":5,"rebudgeted":2,"shortfalls":[{"flow":0,"target":0.999,"predicted":0.12260649333333341},{"flow":1,"target":0.999,"predicted":0.9262318325536412},{"flow":2,"target":0.999,"predicted":0.1194024298412699},{"flow":4,"target":0.999,"predicted":0.12265555555555563}]}`
	goldenNetworkN = "golden"
)

// newGoldenServer starts a daemon hosting the small test testbed as
// network "golden".
func newGoldenServer(t *testing.T) (*Server, *netEntry) {
	t.Helper()
	srv, err := New(Config{Workers: 1, QueueCap: 4, MetricsInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	var tb bytes.Buffer
	if err := wsan.SaveTestbed(testTestbed(t), &tb); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"name": goldenNetworkN, "testbed": json.RawMessage(tb.Bytes()), "channels": 4})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/networks", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create network: %d %s", rec.Code, rec.Body)
	}
	nw, ok := srv.nets.get(goldenNetworkN)
	if !ok {
		t.Fatal("network not registered")
	}
	return srv, nw
}

// goldenJob builds a job in the named lifecycle state with fixed clocks. The
// state is decoded from its wire string, so the test never names the type.
func goldenJob(t *testing.T, state string) *Job {
	t.Helper()
	j := &Job{ID: "j7", Network: goldenNetworkN, Kind: "schedule", Key: "k", created: goldenTime}
	v := j.View()
	if err := json.Unmarshal([]byte(strconv.Quote(state)), &v.State); err != nil {
		t.Fatal(err)
	}
	j.state = v.State
	switch state {
	case "running":
		j.started = goldenTime.Add(time.Second)
	case "done":
		j.started = goldenTime.Add(time.Second)
		j.finished = goldenTime.Add(2 * time.Second)
		j.artifactID = "abc123"
	case "failed":
		j.started = goldenTime.Add(time.Second)
		j.finished = goldenTime.Add(2 * time.Second)
		j.err = "boom"
	case "cancelled":
		j.finished = goldenTime.Add(2 * time.Second)
		j.err = "context canceled"
	}
	return j
}

func marshalString(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestWireGolden(t *testing.T) {
	srv, nw := newGoldenServer(t)
	if _, err := srv.store.Put(goldenArtifact, "schedule", map[string][]byte{
		"survey.json": []byte(`{}`), "workload.json": []byte(`{}`), "schedule.json": []byte(`{}`),
	}); err != nil {
		t.Fatal(err)
	}

	t.Run("params", func(t *testing.T) {
		for _, g := range goldenParams {
			canon, err := srv.canonicalParams(nw, g.kind, json.RawMessage(g.raw))
			if err != nil {
				t.Errorf("%s %s: %v", g.kind, g.raw, err)
				continue
			}
			if string(canon) != g.canon {
				t.Errorf("%s %s:\n canonical %q\n      want %q", g.kind, g.raw, canon, g.canon)
			}
			if key := ArtifactKey(nw.Hash, g.kind, canon); key != g.key {
				t.Errorf("%s %s: key %q, want %q", g.kind, g.raw, key, g.key)
			}
		}
	})

	t.Run("job views", func(t *testing.T) {
		for _, g := range goldenJobs {
			if got := marshalString(t, goldenJob(t, g.state).View()); got != g.want {
				t.Errorf("%s job view:\n got %q\nwant %q", g.state, got, g.want)
			}
		}
	})

	t.Run("network view", func(t *testing.T) {
		nw.Created = goldenTime
		if got := marshalString(t, nw.view()); got != goldenNetwork {
			t.Errorf("network view:\n got %q\nwant %q", got, goldenNetwork)
		}
	})

	t.Run("artifact list entry", func(t *testing.T) {
		views, _ := srv.ArtifactViews("", 1)
		if len(views) != 1 {
			t.Fatalf("%d artifact views, want 1", len(views))
		}
		views[0].Created = goldenTime
		if got := marshalString(t, views[0]); got != goldenArtList {
			t.Errorf("artifact list entry:\n got %q\nwant %q", got, goldenArtList)
		}
	})

	t.Run("sse event", func(t *testing.T) {
		sub, err := srv.Events().Subscribe(SubscribeOptions{Buffer: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		srv.jobTransition(goldenJob(t, "done"))
		ev := <-sub.Events()
		ev.Time = goldenTime
		var buf bytes.Buffer
		writeSSE(&buf, ev)
		if got := buf.String(); got != goldenSSE {
			t.Errorf("sse frame:\n got %q\nwant %q", got, goldenSSE)
		}
	})

	t.Run("manage health", func(t *testing.T) {
		// A real manage job over a real schedule bundle: the payload is the
		// one its OnIteration hook publishes.
		sched := runGoldenJob(t, srv, nw, "schedule", `{"flows":5,"alg":"rc","seed":3,"maxPeriodExp":1}`)
		sub, err := srv.Events().Subscribe(SubscribeOptions{Buffer: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		runGoldenJob(t, srv, nw, "manage", `{"artifact":"`+sched+`","maxIterations":1,"epochSlots":3000,"seed":2,"targetPDR":0.999,`+
			`"faults":{"seed":1,"events":[{"at":0,"kind":"interference-start","channels":[0,1],"powerDBm":-60}]}}`)
		var health string
		for len(sub.Events()) > 0 {
			if ev := <-sub.Events(); ev.Type == "manage.health" && health == "" {
				health = string(ev.Data)
			}
		}
		if health != goldenHealth {
			t.Errorf("manage.health payload:\n got %q\nwant %q", health, goldenHealth)
		}
	})
}

// runGoldenJob executes one job synchronously on the calling goroutine and
// returns its artifact ID.
func runGoldenJob(t *testing.T, srv *Server, nw *netEntry, kind, raw string) string {
	t.Helper()
	canon, err := srv.canonicalParams(nw, kind, json.RawMessage(raw))
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{ID: "g-" + kind, Network: nw.Name, Kind: kind, Key: ArtifactKey(nw.Hash, kind, canon), Params: canon}
	art, err := srv.runJob(context.Background(), j)
	if err != nil {
		t.Fatalf("%s job: %v", kind, err)
	}
	return art
}
