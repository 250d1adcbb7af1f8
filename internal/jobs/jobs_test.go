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
		wsanclient.KindSoak:       Defaults(&SoakParams{Channels: len(env.Net.Channels())}),
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

// TestBudgetedRerouteBundleReloads reroutes flow 0 of a budgeted Indriya
// bundle around its first relay onto a longer detour. The output bundle
// must record the budget the engine placed, refitted to the detour's hop
// count, so it loads and a second delta can run on it.
func TestBudgetedRerouteBundleReloads(t *testing.T) {
	nw, err := NewNetwork(wsanclient.CreateNetworkRequest{Preset: "indriya"})
	if err != nil {
		t.Fatal(err)
	}
	bundles := map[string]Bundle{}
	env := &Env{Network: nw, Lookup: func(ref string) (Bundle, error) {
		if b, ok := bundles[ref]; ok {
			return b, nil
		}
		return nil, fmt.Errorf("artifact %q not found", ref)
	}}
	ctx := context.Background()
	if bundles["base"], err = Exec(ctx, env, &ScheduleParams{Flows: 20, TargetPDR: 0.99}); err != nil {
		t.Fatal(err)
	}
	flows, _, err := env.LoadBundle("base")
	if err != nil {
		t.Fatal(err)
	}
	f := flows[0]
	if len(f.Route) < 2 || len(f.TxBudget) != len(f.Route) {
		t.Fatalf("flow 0 has route %v and budget %v; want a budgeted multi-hop flow", f.Route, f.TxBudget)
	}
	relay := f.Route[0].To
	if bundles["rerouted"], err = Exec(ctx, env, &RescheduleParams{
		Artifact: "base", Op: "reroute", Flow: 0, Avoid: []int{relay}}); err != nil {
		t.Fatal(err)
	}
	flows, _, err = env.LoadBundle("rerouted")
	if err != nil {
		t.Fatalf("loading the rerouted bundle: %v", err)
	}
	if g := flows[0]; len(g.Route) == len(f.Route) || len(g.TxBudget) != len(g.Route) {
		t.Fatalf("rerouted flow 0: route %v, budget %v; want a detour of another length with a refitted budget",
			g.Route, g.TxBudget)
	}
	if _, err := Exec(ctx, env, &RescheduleParams{Artifact: "rerouted", Op: "reroute", Flow: 0}); err != nil {
		t.Fatalf("second delta on the rerouted bundle: %v", err)
	}
}
