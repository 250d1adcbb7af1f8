package server

import (
	"bytes"
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

// TestArtifactsShareSurvey runs two schedule jobs and a reschedule on one
// network and checks that the store holds the network's survey once: the
// three artifacts' survey.json parts are one slice equal to the network's
// survey, every part served over HTTP is the stored bytes, deleting one
// artifact leaves the others' parts unchanged, and deleting all three
// empties the blob table.
func TestArtifactsShareSurvey(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	createTestNetwork(t, ts, "plant")
	nw, _ := srv.nets.get("plant")
	arts := []string{mustSchedule(t, ts, "plant")}
	for _, params := range []map[string]any{
		{"flows": 5, "alg": "rc", "seed": 4, "maxPeriodExp": 1},
		{"artifact": arts[0], "op": "remove", "flow": 1},
	} {
		kind := wsanclient.KindSchedule
		if _, ok := params["op"]; ok {
			kind = wsanclient.KindReschedule
		}
		v, code := submit(t, ts, "plant", kind, params)
		if code != http.StatusAccepted {
			t.Fatalf("%s submit: status %d", kind, code)
		}
		done := poll(t, ts, v.ID, 30*time.Second)
		if done.State != wsanclient.StateDone {
			t.Fatalf("%s job finished %v (%s)", kind, done.State, done.Error)
		}
		arts = append(arts, done.Artifact)
	}

	served := make(map[string][]byte) // "<artifact>/<part>" → HTTP body
	var survey *byte
	for i, id := range arts {
		a, ok := srv.store.Get(id)
		if !ok {
			t.Fatalf("artifact %d missing", i)
		}
		p := a.Part("survey.json")
		if !bytes.Equal(p, nw.Survey) {
			t.Fatalf("artifact %d: survey.json differs from the network's survey", i)
		}
		if survey == nil {
			survey = &p[0]
		} else if &p[0] != survey {
			t.Fatalf("artifact %d holds its own copy of the survey", i)
		}
		for _, name := range a.PartNames() {
			body := fetchPart(t, ts, id, name)
			if !bytes.Equal(body, a.Part(name)) {
				t.Fatalf("artifact %d part %s: served bytes differ from the stored ones", i, name)
			}
			served[id+"/"+name] = body
		}
	}

	if !srv.store.Delete(arts[0]) {
		t.Fatal("delete of the base artifact failed")
	}
	for key, body := range served {
		id, name, _ := strings.Cut(key, "/")
		if id != arts[0] && !bytes.Equal(fetchPart(t, ts, id, name), body) {
			t.Fatalf("%s changed after a sibling artifact was deleted", key)
		}
	}
	for _, id := range arts[1:] {
		srv.store.Delete(id)
	}
	if n := srv.store.Blobs(); n != 0 {
		t.Fatalf("%d blobs left after every artifact was deleted", n)
	}
}
