package jobs

import (
	"bytes"
	"context"
	"maps"
	"strings"
	"sync"
	"testing"

	"wsan"
	"wsan/wsanclient"
)

// TestLoadBundleMatchesSurvey pins LoadBundle's survey check: a bundle
// whose survey.json equals the network's canonical survey loads, and one
// that differs by a single byte fails the job.
func TestLoadBundleMatchesSurvey(t *testing.T) {
	env := testEnv(t)
	bundle, err := env.Lookup("bundle")
	if err != nil {
		t.Fatal(err)
	}
	flows, sched, err := env.LoadBundle("bundle")
	if err != nil {
		t.Fatalf("equal survey: %v", err)
	}
	if len(flows) != 5 || sched.Schedule.Len() == 0 {
		t.Fatalf("loaded %d flows and %d transmissions", len(flows), sched.Schedule.Len())
	}

	parts := maps.Clone(bundle.(Parts))
	survey := bytes.Clone(parts["survey.json"])
	survey[len(survey)/2] ^= 1
	parts["survey.json"] = survey
	other := *env
	other.Lookup = func(string) (Bundle, error) { return parts, nil }
	if _, _, err := other.LoadBundle("bundle"); err == nil || !strings.Contains(err.Error(), "different survey") {
		t.Fatalf("survey one byte off: err = %v, want a different-survey error", err)
	}
}

// TestPresetRunsOnItsSurvey checks that a preset network runs its jobs on
// the testbed its survey.json describes: a simulate job on the preset
// network and on a network uploaded from that survey return the same
// report. The generated Indriya testbed also holds gains of links the
// survey does not record, and RA's shared cells make them audible.
func TestPresetRunsOnItsSurvey(t *testing.T) {
	preset, err := NewNetwork(wsanclient.CreateNetworkRequest{Preset: "indriya"})
	if err != nil {
		t.Fatal(err)
	}
	uploaded, err := NewNetwork(wsanclient.CreateNetworkRequest{Testbed: preset.Survey})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preset.Survey, uploaded.Survey) {
		t.Fatal("the uploaded survey re-encodes differently")
	}
	maxExp := 1
	bundle, err := Exec(context.Background(), &Env{Network: preset},
		&ScheduleParams{Flows: 40, Alg: "ra", MaxPeriodExp: &maxExp})
	if err != nil {
		t.Fatal(err)
	}
	var reports [2][]byte
	for i, nw := range []*Network{preset, uploaded} {
		env := &Env{Network: nw, Lookup: func(string) (Bundle, error) { return bundle, nil }}
		parts, err := Exec(context.Background(), env, &SimulateParams{Artifact: "bundle", Hyperperiods: 30})
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = parts["report.json"]
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("simulate on the preset network differs from the uploaded survey's:\n%s\n%s", reports[0], reports[1])
	}
}

// TestConcurrentJobsShareTestbed runs simulate, converge, manage and
// reschedule jobs concurrently on one network, all on its one Testbed, and
// requires every job's parts to equal those of a serial run. Under -race it
// also proves the shared Testbed is only read. It is not skipped in -short
// mode, so `make ci` runs it under the race detector.
func TestConcurrentJobsShareTestbed(t *testing.T) {
	env := testEnv(t)
	docs := []struct{ kind, raw string }{
		{wsanclient.KindSimulate, `{"artifact":"bundle","hyperperiods":20}`},
		{wsanclient.KindSimulate, `{"artifact":"bundle","hyperperiods":10,"seed":2,"faults":{"seed":1,"events":[{"at":0,"kind":"interference-start","channels":[0],"powerDBm":-70}]}}`},
		{wsanclient.KindConverge, `{"artifact":"bundle","chunkHyperperiods":5,"maxChunks":3,"halfWidth":0.05}`},
		{wsanclient.KindManage, `{"artifact":"bundle","maxIterations":2,"epochSlots":3000,"seed":3}`},
		{wsanclient.KindManage, `{"artifact":"bundle","maxIterations":1,"epochSlots":3000,"targetPDR":0.99,"faults":{"seed":1,"events":[{"at":0,"kind":"interference-start","channels":[0,1],"powerDBm":-60}]}}`},
		{wsanclient.KindReschedule, `{"artifact":"bundle","op":"remove","flow":2}`},
		{wsanclient.KindReschedule, `{"artifact":"bundle","op":"add","flow":9,"src":1,"dst":2,"period":100}`},
	}
	run := func(i int) (Parts, error) {
		canon, err := Canonical(env, docs[i].kind, []byte(docs[i].raw))
		if err != nil {
			return nil, err
		}
		return Run(context.Background(), env, docs[i].kind, canon)
	}
	serial := make([]Parts, len(docs))
	for i := range docs {
		var err error
		if serial[i], err = run(i); err != nil {
			t.Fatalf("%s %s: %v", docs[i].kind, docs[i].raw, err)
		}
	}

	const rounds = 2
	got := make([]Parts, rounds*len(docs))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for j := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[j], errs[j] = run(j % len(docs))
		}()
	}
	wg.Wait()
	for j, parts := range got {
		d := docs[j%len(docs)]
		if errs[j] != nil {
			t.Errorf("concurrent %s %s: %v", d.kind, d.raw, errs[j])
			continue
		}
		if !maps.EqualFunc(parts, serial[j%len(docs)], bytes.Equal) {
			t.Errorf("concurrent %s %s: parts differ from the serial run", d.kind, d.raw)
		}
	}
	var survey bytes.Buffer
	if err := wsan.SaveTestbed(env.Net.Testbed(), &survey); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(survey.Bytes(), env.Survey) {
		t.Error("the jobs changed the network's testbed")
	}
}
