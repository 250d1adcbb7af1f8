package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wsan"
	"wsan/internal/jobs"
	"wsan/internal/scheduler"
	"wsan/internal/server"
	"wsan/wsanclient"
)

// rebudgetedDir runs gen-schedule with per-flow reliability targets and
// then a manage loop with a stricter target, which re-budgets
// retransmissions at runtime. It returns the directory and the workload as
// gen-schedule wrote it.
func rebudgetedDir(t *testing.T) (dir string, genWorkload []byte) {
	t.Helper()
	dir = t.TempDir()
	if err := run([]string{"gen-schedule", "-flows", "20", "-target-pdr", "0.99", "-out", dir}); err != nil {
		t.Fatalf("gen-schedule: %v", err)
	}
	genWorkload = readFile(t, filepath.Join(dir, "workload.json"))
	if err := run([]string{"manage", "-dir", dir, "-epoch", "9000", "-iterations", "3", "-target-pdr", "0.999"}); err != nil {
		t.Fatalf("manage: %v", err)
	}
	return dir, genWorkload
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// offBudget counts the (flow, instance, hop) groups of a schedule whose
// transmission count differs from HopAttempts of the workload's flow.
func offBudget(t *testing.T, workload, sched []byte) (bad, groups int) {
	t.Helper()
	flows, err := wsan.LoadWorkload(bytes.NewReader(workload))
	if err != nil {
		t.Fatal(err)
	}
	res, err := wsan.LoadSchedule(bytes.NewReader(sched))
	if err != nil {
		t.Fatal(err)
	}
	held := make(map[[3]int]int)
	for _, tx := range res.Schedule.Txs() {
		held[[3]int{tx.FlowID, tx.Instance, tx.Hop}]++
	}
	depth := scheduler.RetryDepth(res.Schedule, flows)
	for _, f := range flows {
		for inst := 0; inst < res.Schedule.NumSlots()/f.Period; inst++ {
			for h := range f.Route {
				groups++
				if held[[3]int{f.ID, inst, h}] != f.HopAttempts(h, depth) {
					bad++
				}
			}
		}
	}
	return bad, groups
}

// TestManagePersistsWorkload is the regression test for manage leaving
// workload.json stale after re-budgeting: every (flow, instance, hop) of
// the written schedule must hold exactly the attempts the written
// workload's TxBudget grants it.
func TestManagePersistsWorkload(t *testing.T) {
	dir, genWorkload := rebudgetedDir(t)
	sched := readFile(t, filepath.Join(dir, "schedule.json"))
	if bad, groups := offBudget(t, readFile(t, filepath.Join(dir, "workload.json")), sched); bad > 0 {
		t.Errorf("%d of %d (flow, instance, hop) groups disagree with workload.json's budgets", bad, groups)
	}
	if bad, _ := offBudget(t, genWorkload, sched); bad == 0 {
		t.Error("manage re-budgeted no flow; the test needs a run that does")
	}
}

// TestValidateRetransmissionBudgets checks validate's budget check: it
// passes on manage's output and fails once the workload is left stale.
func TestValidateRetransmissionBudgets(t *testing.T) {
	dir, genWorkload := rebudgetedDir(t)
	if err := run([]string{"validate", "-dir", dir}); err != nil {
		t.Fatalf("validate after manage: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "workload.json"), genWorkload, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", "-dir", dir}); err == nil {
		t.Fatal("validate passed a directory whose workload budgets are stale")
	}
	env, err := dirEnv(dir, jobs.DefaultChannels, nil)
	if err != nil {
		t.Fatal(err)
	}
	flows, res, err := env.LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if checkBudgets(flows, res.Schedule, scheduler.RetryDepth(res.Schedule, flows)) == nil {
		t.Error("the retransmission-budget check passed a stale workload")
	}
}

// TestCLIDaemonParity runs each bundle subcommand on a directory and the
// same job on an in-process daemon hosting the same preset: every part of
// the daemon's artifact must equal the CLI's file of the same name, byte
// for byte, and the CLI must write nothing else. Error cases must fail on
// both sides and leave the directory untouched.
func TestCLIDaemonParity(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1, MetricsInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	ctx := context.Background()
	c := wsanclient.New(ts.URL, wsanclient.Options{})
	if _, err := c.CreateNetwork(ctx, wsanclient.CreateNetworkRequest{Name: "plant", Preset: "wustl"}); err != nil {
		t.Fatal(err)
	}
	job := func(kind string, params map[string]any) (string, error) {
		j, err := c.SubmitJob(ctx, "plant", kind, params)
		if err != nil {
			return "", err
		}
		if j, err = c.WaitJob(ctx, j.ID, 5*time.Millisecond); err != nil {
			return "", err
		}
		if j.State != wsanclient.StateDone {
			return "", errors.New(j.Error)
		}
		return j.Artifact, nil
	}
	// same compares a CLI directory with a daemon artifact. inputs are the
	// files the directory held before the subcommand ran.
	same := func(t *testing.T, dir, id string, inputs ...string) {
		t.Helper()
		a, err := c.Artifact(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		allowed := map[string]bool{}
		for _, name := range inputs {
			allowed[name] = true
		}
		for name := range a.Parts {
			allowed[name] = true
			// The served bytes: the SDK's ArtifactPart re-decodes the
			// document, which drops its trailing newline.
			resp, err := http.Get(ts.URL + "/v1/artifacts/" + id + "/" + name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Errorf("%s: %v", name, err)
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s differs from the daemon's part", name)
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !allowed[e.Name()] {
				t.Errorf("the CLI wrote %s, which the daemon's artifact lacks", e.Name())
			}
		}
	}
	// bundleCopy copies a directory's schedule bundle into a fresh one.
	bundleCopy := func(t *testing.T, from string) string {
		t.Helper()
		dir := t.TempDir()
		for _, name := range jobs.BundleParts {
			if err := os.WriteFile(filepath.Join(dir, name), readFile(t, filepath.Join(from, name)), 0o666); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	gen := func(t *testing.T, args []string, params map[string]any) (dir, id string) {
		t.Helper()
		dir = t.TempDir()
		if err := run(append(append([]string{"gen-schedule"}, args...), "-out", dir)); err != nil {
			t.Fatalf("gen-schedule: %v", err)
		}
		if id, err = job(wsanclient.KindSchedule, params); err != nil {
			t.Fatalf("schedule job: %v", err)
		}
		same(t, dir, id)
		return dir, id
	}

	base, baseID := gen(t, nil, map[string]any{})
	budgeted, budgetedID := gen(t, []string{"-target-pdr", "0.99"}, map[string]any{"targetPDR": 0.99})

	for _, tc := range []struct {
		name   string
		from   string
		args   []string
		kind   string
		params map[string]any
	}{
		{"simulate", base, []string{"simulate", "-reps", "5"},
			wsanclient.KindSimulate, map[string]any{"artifact": baseID, "hyperperiods": 5}},
		{"reschedule add", base, []string{"reschedule", "-op", "add", "-src", "3", "-dst", "10", "-period", "200"},
			wsanclient.KindReschedule, map[string]any{"artifact": baseID, "op": "add", "flow": 30, "src": 3, "dst": 10, "period": 200}},
		{"reschedule remove", base, []string{"reschedule", "-op", "remove", "-flow", "5"},
			wsanclient.KindReschedule, map[string]any{"artifact": baseID, "op": "remove", "flow": 5}},
		{"reschedule reroute", base, []string{"reschedule", "-op", "reroute", "-flow", "4", "-avoid", "6,5"},
			wsanclient.KindReschedule, map[string]any{"artifact": baseID, "op": "reroute", "flow": 4, "avoid": []int{5, 6}}},
		{"reschedule budgeted reroute", budgeted, []string{"reschedule", "-op", "reroute", "-flow", "3"},
			wsanclient.KindReschedule, map[string]any{"artifact": budgetedID, "op": "reroute", "flow": 3}},
		{"manage", base, []string{"manage", "-epoch", "9000", "-iterations", "3"},
			wsanclient.KindManage, map[string]any{"artifact": baseID, "epochSlots": 9000, "maxIterations": 3}},
		{"manage rebudget", budgeted, []string{"manage", "-epoch", "9000", "-iterations", "3", "-target-pdr", "0.999"},
			wsanclient.KindManage, map[string]any{"artifact": budgetedID, "epochSlots": 9000, "maxIterations": 3, "targetPDR": 0.999}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := bundleCopy(t, tc.from)
			if err := run(append(tc.args, "-dir", dir)); err != nil {
				t.Fatalf("CLI: %v", err)
			}
			id, err := job(tc.kind, tc.params)
			if err != nil {
				t.Fatalf("daemon: %v", err)
			}
			same(t, dir, id, jobs.BundleParts...)
		})
	}

	for _, tc := range []struct {
		name   string
		args   []string
		params map[string]any
	}{
		{"missing -op", []string{"-flow", "1"}, map[string]any{"artifact": baseID, "flow": 1}},
		{"missing -flow", []string{"-op", "remove"}, map[string]any{"artifact": baseID, "op": "remove", "flow": -1}},
		{"missing -period", []string{"-op", "add", "-src", "3", "-dst", "10"},
			map[string]any{"artifact": baseID, "op": "add", "flow": 30, "src": 3, "dst": 10}},
	} {
		t.Run("reschedule "+tc.name, func(t *testing.T) {
			dir := bundleCopy(t, base)
			if err := run(append([]string{"reschedule", "-dir", dir}, tc.args...)); err == nil {
				t.Error("CLI accepted the request")
			}
			if _, err := job(wsanclient.KindReschedule, tc.params); err == nil {
				t.Error("daemon accepted the request")
			}
			for _, name := range jobs.BundleParts {
				if !bytes.Equal(readFile(t, filepath.Join(dir, name)), readFile(t, filepath.Join(base, name))) {
					t.Errorf("a failed reschedule changed %s", name)
				}
			}
		})
	}
}
