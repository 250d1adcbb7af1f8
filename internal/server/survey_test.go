package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"wsan/wsanclient"
)

// TestCrossNetworkArtifactRejected submits, on network B, jobs that name a
// schedule artifact built on network A (the same preset, another toposeed).
// Every job runs on its network's own topology, so each must fail with the
// survey-mismatch error instead of mixing A's bundle with B's testbed.
func TestCrossNetworkArtifactRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	for name, seed := range map[string]int64{"a": 1, "b": 2} {
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/networks", map[string]any{
			"name": name, "preset": "wustl", "toposeed": seed,
		}, nil)
		if code != http.StatusCreated {
			t.Fatalf("create network %s: status %d", name, code)
		}
	}
	art := mustSchedule(t, ts, "a")
	for _, c := range []struct {
		kind   string
		params map[string]any
	}{
		{wsanclient.KindSimulate, map[string]any{"artifact": art, "hyperperiods": 2}},
		{wsanclient.KindConverge, map[string]any{"artifact": art, "chunkHyperperiods": 2, "maxChunks": 1}},
		{wsanclient.KindManage, map[string]any{"artifact": art, "maxIterations": 1, "epochSlots": 3000}},
		{wsanclient.KindReschedule, map[string]any{"artifact": art, "op": "remove", "flow": 0}},
	} {
		v, code := submit(t, ts, "b", c.kind, c.params)
		if code != http.StatusAccepted {
			t.Fatalf("%s submit: status %d", c.kind, code)
		}
		done := poll(t, ts, v.ID, 30*time.Second)
		if done.State != wsanclient.StateFailed || !strings.Contains(done.Error, "different survey") {
			t.Errorf("%s on network b with network a's artifact: %v (%q), want failed with a different-survey error",
				c.kind, done.State, done.Error)
		}
	}
}
