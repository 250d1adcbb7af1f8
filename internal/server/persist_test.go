package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wsan/internal/obs"
	"wsan/wsanclient"
)

// startPersistent starts a daemon over a store directory without the
// newTestServer cleanup hook — restart tests shut servers down mid-test.
func startPersistent(t *testing.T, dir string, reg *obs.Registry) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Workers: 2, QueueCap: 8, StoreDir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return srv, httptest.NewServer(srv.Handler())
}

func stopPersistent(t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// getPart fetches one artifact part's exact bytes (404 returns nil).
func getPart(t *testing.T, ts *httptest.Server, id, part string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + id + "/" + part)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/%s: status %d", id, part, resp.StatusCode)
	}
	return data
}

// TestRestartServesFromDisk is the acceptance criterion of the durable
// store: a daemon restarted over the same store directory answers a
// resubmitted request from disk — cache hit, byte-identical artifact, no
// recomputation.
func TestRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	params := map[string]any{"flows": 5, "alg": "rc", "seed": 3, "maxPeriodExp": 1}

	srv1, ts1 := startPersistent(t, dir, nil)
	createTestNetwork(t, ts1, "plant")
	v, code := submit(t, ts1, "plant", wsanclient.KindSchedule, params)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	done := poll(t, ts1, v.ID, 30*time.Second)
	if done.State != wsanclient.StateDone {
		t.Fatalf("schedule job finished %v (%s)", done.State, done.Error)
	}
	want := getPart(t, ts1, done.Artifact, "schedule.json")
	if want == nil {
		t.Fatal("schedule.json missing before restart")
	}
	stopPersistent(t, srv1, ts1)

	reg := obs.NewRegistry()
	srv2, ts2 := startPersistent(t, dir, reg)
	defer stopPersistent(t, srv2, ts2)

	// The artifact is listed and servable before any job runs.
	views, _ := srv2.ArtifactViews("", 0)
	if len(views) != 1 || views[0].ID != done.Artifact {
		t.Fatalf("restarted daemon lists %v, want [%s]", views, done.Artifact)
	}

	createTestNetwork(t, ts2, "plant")
	again, code := submit(t, ts2, "plant", wsanclient.KindSchedule, params)
	if code != http.StatusOK {
		t.Fatalf("resubmit after restart: status %d, want 200 (cache hit)", code)
	}
	if !again.Cached || again.Artifact != done.Artifact {
		t.Fatalf("resubmit: cached=%v artifact=%s, want cached from %s", again.Cached, again.Artifact, done.Artifact)
	}
	if got := getPart(t, ts2, again.Artifact, "schedule.json"); !bytes.Equal(got, want) {
		t.Fatal("schedule.json differs across restart")
	}
	if hits := reg.CounterValue("server.cache.hits"); hits < 1 {
		t.Fatalf("cache hits = %d, want >= 1", hits)
	}
	if stored := reg.CounterValue("server.cache.stored"); stored != 0 {
		t.Fatalf("restarted daemon recomputed %d artifacts, want 0", stored)
	}
}

// TestRestartQuarantinesCorruptedArtifact: a part corrupted while the
// daemon was down is quarantined by the warm-scan, and the resubmitted
// request recomputes instead of serving bad bytes.
func TestRestartQuarantinesCorruptedArtifact(t *testing.T) {
	dir := t.TempDir()
	params := map[string]any{"flows": 5, "alg": "rc", "seed": 3, "maxPeriodExp": 1}

	srv1, ts1 := startPersistent(t, dir, nil)
	createTestNetwork(t, ts1, "plant")
	v, _ := submit(t, ts1, "plant", wsanclient.KindSchedule, params)
	done := poll(t, ts1, v.ID, 30*time.Second)
	if done.State != wsanclient.StateDone {
		t.Fatalf("schedule job finished %v (%s)", done.State, done.Error)
	}
	stopPersistent(t, srv1, ts1)

	victim := filepath.Join(dir, "objects", done.Artifact, "schedule.json")
	if err := os.WriteFile(victim, []byte(`{"tampered":true}`), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	srv2, ts2 := startPersistent(t, dir, reg)
	defer stopPersistent(t, srv2, ts2)
	if got := reg.CounterValue("server.cache.quarantined"); got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	if getPart(t, ts2, done.Artifact, "schedule.json") != nil {
		t.Fatal("corrupted artifact must not be served")
	}
	// The resubmission is a miss: the daemon recomputes rather than
	// serving the quarantined entry.
	createTestNetwork(t, ts2, "plant")
	again, code := submit(t, ts2, "plant", wsanclient.KindSchedule, params)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit of quarantined request: status %d, want 202", code)
	}
	redone := poll(t, ts2, again.ID, 30*time.Second)
	if redone.State != wsanclient.StateDone || redone.Artifact != done.Artifact {
		t.Fatalf("recompute finished %v, artifact %s", redone.State, redone.Artifact)
	}
}

// TestCacheEvictionEvent pins the store→bus wiring: exceeding the byte
// budget publishes a cache.evicted firehose event naming the evicted
// artifact.
func TestCacheEvictionEvent(t *testing.T) {
	srv, err := New(Config{Workers: 1, QueueCap: 2, StoreMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(2 * time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	sub, err := srv.Events().Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if _, err := srv.store.Put("aa", "schedule", map[string][]byte{"p.json": make([]byte, 48)}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.store.Put("bb", "schedule", map[string][]byte{"p.json": make([]byte, 48)}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.Events():
		if ev.Type != wsanclient.EventCacheEvict {
			t.Fatalf("event type %s, want %s", ev.Type, wsanclient.EventCacheEvict)
		}
		if !bytes.Contains(ev.Data, []byte(`"aa"`)) || !bytes.Contains(ev.Data, []byte(`"capacity"`)) {
			t.Fatalf("eviction payload %s, want artifact aa for capacity", ev.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no cache.evicted event published")
	}
}
