package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"wsan"
	"wsan/wsanclient"
)

// testEnv hosts an 18-node testbed on 4 channels with one valid schedule
// bundle, referenced as "bundle".
func testEnv(t testing.TB) *Env {
	t.Helper()
	cfg := wsan.DefaultTestbedConfig()
	cfg.NumNodes = 18
	tb, err := wsan.GenerateTestbed(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	var survey bytes.Buffer
	if err := wsan.SaveTestbed(tb, &survey); err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(wsanclient.CreateNetworkRequest{Testbed: survey.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Network: nw}
	maxExp := 1
	bundle, err := Exec(context.Background(), env, &ScheduleParams{Flows: 5, MaxPeriodExp: &maxExp, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	env.Lookup = func(ref string) (Bundle, error) {
		if ref != "bundle" {
			return nil, fmt.Errorf("artifact %q not found", ref)
		}
		return bundle, nil
	}
	return env
}

// TestDefaultsAreCanonical pins that the defaults the CLI reads its flag
// defaults from are exactly the ones canonicalization applies.
func TestDefaultsAreCanonical(t *testing.T) {
	env := testEnv(t)
	for kind, p := range map[string]Params{
		wsanclient.KindSchedule:   Defaults(&ScheduleParams{}),
		wsanclient.KindSimulate:   Defaults(&SimulateParams{Artifact: "bundle"}),
		wsanclient.KindConverge:   Defaults(&ConvergeParams{Artifact: "bundle"}),
		wsanclient.KindManage:     Defaults(&ManageParams{Artifact: "bundle"}),
		wsanclient.KindReschedule: Defaults(&RescheduleParams{Artifact: "bundle", Op: "remove"}),
		wsanclient.KindSoak:       Defaults(&SoakParams{Channels: len(env.Channels)}),
	} {
		doc, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		raw := `{}`
		switch kind {
		case wsanclient.KindSchedule, wsanclient.KindSoak:
		case wsanclient.KindReschedule:
			raw = `{"artifact":"bundle","op":"remove"}`
		default:
			raw = `{"artifact":"bundle"}`
		}
		canon, err := Canonical(env, kind, json.RawMessage(raw))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !bytes.Equal(doc, canon) {
			t.Errorf("%s: defaults %s, canonical %s", kind, doc, canon)
		}
	}
}

// FuzzCanonicalParams feeds arbitrary parameter documents of every kind to
// canonicalization. It must never panic, and an accepted document must be
// a fixed point: canonicalizing its canonical bytes returns them unchanged,
// so equivalent requests share one cache key.
func FuzzCanonicalParams(f *testing.F) {
	for _, seed := range []struct{ kind, raw string }{
		{wsanclient.KindSchedule, `{}`},
		{wsanclient.KindSchedule, `{"flows":7,"minPeriodExp":1,"maxPeriodExp":3,"traffic":"centralized","alg":"ra","seed":9,"rhoT":3,"disableRetransmit":true,"targetPDR":0.95}`},
		{wsanclient.KindSimulate, `{"artifact":"bundle","hyperperiods":5,"fading":1.5,"drift":0,"faults":{"seed":1,"events":[{"at":0,"kind":"interference-start","channels":[0],"powerDBm":-70}]}}`},
		{wsanclient.KindConverge, `{"artifact":"bundle","chunkHyperperiods":2,"halfWidth":0.5}`},
		{wsanclient.KindManage, `{"artifact":"bundle","epochSlots":3000,"targetPDR":0.95,"paroleCleanIterations":2}`},
		{wsanclient.KindReschedule, `{"artifact":"bundle","op":"reroute","flow":3,"avoid":[5,3,5],"alg":"nr"}`},
		{wsanclient.KindReschedule, `{"artifact":"bundle","op":"add","flow":9,"src":1,"dst":2,"period":100}`},
		{wsanclient.KindSoak, `{"flows":12,"channels":3,"ops":80}`},
	} {
		f.Add(seed.kind, []byte(seed.raw))
	}
	env := testEnv(f)
	f.Fuzz(func(t *testing.T, kind string, raw []byte) {
		canon, err := Canonical(env, kind, raw)
		if err != nil {
			return
		}
		again, err := Canonical(env, kind, canon)
		if err != nil {
			t.Fatalf("%s %q: canonical form %s rejected: %v", kind, raw, canon, err)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("%s %q: canonical form is not a fixed point:\n %s\n %s", kind, raw, canon, again)
		}
	})
}
