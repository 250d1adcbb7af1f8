package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"wsan"
	"wsan/internal/scheduler"
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
	} {
		doc, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		raw := `{}`
		switch kind {
		case wsanclient.KindSchedule:
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
		{wsanclient.KindReschedule, `{"artifact":"bundle","op":"add","flow":9,"src":1,"dst":2,"period":100,"phase":150}`},
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

// TestUnbudgetedFlowsKeepRetryDepth manages a WUSTL bundle scheduled
// without retransmissions under reliability targets: the flows the loop
// budgets gain retries, while a flow without a budget holds one attempt
// per hop. Every hop must then hold instances × HopAttempts(hop, depth)
// transmissions, depth being the schedule's retry depth for unbudgeted
// flows, and rerouting an unbudgeted flow must keep its one attempt per
// hop. The first case targets every flow; the second only the even ones,
// so unbudgeted flows sit beside budgeted flows that hold retries.
func TestUnbudgetedFlowsKeepRetryDepth(t *testing.T) {
	nw, err := NewNetwork(wsanclient.CreateNetworkRequest{Preset: "wustl"})
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
	base, err := Exec(ctx, env, &ScheduleParams{Flows: 20, DisableRetransmit: true})
	if err != nil {
		t.Fatal(err)
	}
	bundles["all"] = base
	flows, _, err := env.LoadBundle("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if f.ID%2 == 0 {
			f.TargetPDR = 0.999
		}
	}
	var workload bytes.Buffer
	if err := wsan.SaveWorkload(flows, &workload); err != nil {
		t.Fatal(err)
	}
	bundles["even"] = Parts{"survey.json": base["survey.json"],
		"workload.json": workload.Bytes(), "schedule.json": base["schedule.json"]}

	// perHop counts the transmissions each (flow, hop) of a bundle holds.
	perHop := func(ref string) ([]*wsan.Flow, *wsan.ScheduleResult, map[[2]int]int) {
		flows, sched, err := env.LoadBundle(ref)
		if err != nil {
			t.Fatal(err)
		}
		held := make(map[[2]int]int)
		for _, tx := range sched.Schedule.Txs() {
			held[[2]int{tx.FlowID, tx.Hop}]++
		}
		return flows, sched, held
	}
	unbudgeted := 0
	for _, tc := range []struct {
		ref    string
		target float64
	}{{"all", 0.999}, {"even", 0}} {
		out, err := Exec(ctx, env, &ManageParams{
			Artifact: tc.ref, TargetPDR: tc.target, EpochSlots: 9000, MaxIterations: 3})
		if err != nil {
			t.Fatal(err)
		}
		managed := tc.ref + "-managed"
		bundles[managed] = Parts{"survey.json": base["survey.json"],
			"workload.json": out["workload.json"], "schedule.json": out["schedule.json"]}
		flows, sched, held := perHop(managed)
		depth := scheduler.RetryDepth(sched.Schedule, flows)
		retries := false
		for _, f := range flows {
			instances := sched.Schedule.NumSlots() / f.Period
			for h := range f.Route {
				if got, want := held[[2]int{f.ID, h}], instances*f.HopAttempts(h, depth); got != want {
					t.Errorf("%s: flow %d hop %d holds %d transmissions, want %d (budget %v, depth %d)",
						managed, f.ID, h, got, want, f.TxBudget, depth)
				}
				retries = retries || f.HopAttempts(h, depth) > 1
			}
		}
		if !retries {
			t.Fatalf("%s: no flow holds a retry; the loop re-budgeted nothing", managed)
		}
		for _, f := range flows {
			if len(f.TxBudget) > 0 {
				continue
			}
			unbudgeted++
			if depth != 1 {
				t.Errorf("%s: retry depth %d, want the bundle's 1", managed, depth)
			}
			rerouted := fmt.Sprintf("%s-reroute-%d", managed, f.ID)
			if bundles[rerouted], err = Exec(ctx, env, &RescheduleParams{
				Artifact: managed, Op: "reroute", Flow: f.ID}); err != nil {
				t.Fatal(err)
			}
			after, sched, held := perHop(rerouted)
			g := after[slices.IndexFunc(after, func(g *wsan.Flow) bool { return g.ID == f.ID })]
			instances := sched.Schedule.NumSlots() / g.Period
			for h := range g.Route {
				if got := held[[2]int{g.ID, h}]; got != instances {
					t.Errorf("%s: rerouted flow %d hop %d holds %d transmissions, want %d (one per instance)",
						rerouted, g.ID, h, got, instances)
				}
			}
		}
	}
	if unbudgeted == 0 {
		t.Fatal("no managed bundle kept an unbudgeted flow to reroute")
	}
}
