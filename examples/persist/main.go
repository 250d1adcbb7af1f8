// Persist: the durable-store half of the e2e suite. The example runs twice
// against the SAME store directory, with a daemon restart in between:
//
//	persist -mode prime  -state state.json   # daemon 1: compute a schedule
//	                                         # artifact, record its ID and
//	                                         # content hash
//	persist -mode verify -state state.json   # daemon 2 (restarted): the
//	                                         # resubmitted job must be a
//	                                         # cache hit served from disk —
//	                                         # same artifact, byte-identical
//	                                         # part, zero recomputation
//
// Verify asserts the store's acceptance criteria over the wire: the
// artifact survives the restart in the paginated listing, the resubmission
// reports Cached, the part bytes hash identically, and the fresh daemon's
// metrics show server.cache.hits >= 1 with server.cache.stored == 0 (the
// restarted process never ran the scheduling pipeline).
//
// Usage: persist -addr http://127.0.0.1:8080 -mode prime|verify -state FILE
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"wsan/wsanclient"
)

// state is what prime hands to verify across the daemon restart.
type state struct {
	Network  string `json:"network"`
	Artifact string `json:"artifact"`
	Part     string `json:"part"`
	SHA256   string `json:"sha256"`
}

// jobParams is the schedule request both phases submit. Everything is
// pinned so the content address — and therefore the cache probe — is
// identical across the restart.
var jobParams = map[string]any{"flows": 8, "alg": "rc", "seed": 11}

const partName = "schedule.json"

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	mode := flag.String("mode", "", "prime or verify")
	stateFile := flag.String("state", "", "state file handed from prime to verify")
	timeout := flag.Duration("timeout", time.Minute, "overall deadline")
	flag.Parse()
	if err := run(*addr, *mode, *stateFile, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "persist example:", err)
		os.Exit(1)
	}
}

func run(addr, mode, stateFile string, timeout time.Duration) error {
	if stateFile == "" {
		return fmt.Errorf("-state is required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	c := wsanclient.New(addr, wsanclient.Options{})

	// Wait for the daemon — both phases start right after its launch.
	startup := time.Now()
	for {
		if _, err := c.Healthz(ctx); err == nil {
			break
		} else if ctx.Err() != nil || time.Since(startup) > 15*time.Second {
			return fmt.Errorf("daemon not reachable at %s: %w", addr, err)
		}
		time.Sleep(200 * time.Millisecond)
	}

	switch mode {
	case "prime":
		return prime(ctx, c, stateFile)
	case "verify":
		return verify(ctx, c, stateFile)
	default:
		return fmt.Errorf("-mode must be prime or verify, got %q", mode)
	}
}

// ensureNetwork registers the example's network, tolerating a survivor
// from an earlier phase against a long-lived daemon.
func ensureNetwork(ctx context.Context, c *wsanclient.Client) (wsanclient.Network, error) {
	nw, err := c.CreateNetwork(ctx, wsanclient.CreateNetworkRequest{
		Name: "persist-demo", Preset: "wustl", Channels: 4,
	})
	if wsanclient.IsConflict(err) {
		nw, err = c.Network(ctx, "persist-demo")
	}
	return nw, err
}

// prime computes the schedule artifact and records its identity.
func prime(ctx context.Context, c *wsanclient.Client, stateFile string) error {
	nw, err := ensureNetwork(ctx, c)
	if err != nil {
		return err
	}
	job, err := c.SubmitJob(ctx, nw.Name, wsanclient.KindSchedule, jobParams)
	if err != nil {
		return err
	}
	job, err = c.WaitJob(ctx, job.ID, 0)
	if err != nil {
		return err
	}
	if job.State != wsanclient.StateDone {
		return fmt.Errorf("schedule job %s finished %s: %s", job.ID, job.State, job.Error)
	}
	part, err := c.ArtifactPart(ctx, job.Artifact, partName)
	if err != nil {
		return err
	}
	st := state{
		Network:  nw.Name,
		Artifact: job.Artifact,
		Part:     partName,
		SHA256:   fmt.Sprintf("%x", sha256.Sum256(part)),
	}
	raw, err := json.Marshal(st)
	if err != nil {
		return err
	}
	if err := os.WriteFile(stateFile, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("primed artifact %.12s… (%d part bytes, sha %.12s…)\n",
		st.Artifact, len(part), st.SHA256)
	return nil
}

// verify drives the restarted daemon and asserts the primed artifact is
// served from disk without recomputation.
func verify(ctx context.Context, c *wsanclient.Client, stateFile string) error {
	raw, err := os.ReadFile(stateFile)
	if err != nil {
		return err
	}
	var st state
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("state file: %w", err)
	}

	// The artifact must already be listed — before any job runs. Page size
	// 1 forces the client through the nextAfter cursor chain.
	arts, err := c.AllArtifacts(ctx, 1)
	if err != nil {
		return err
	}
	found := false
	for _, a := range arts {
		found = found || a.ID == st.Artifact
	}
	if !found {
		return fmt.Errorf("restarted daemon lists %d artifacts, %.12s… not among them", len(arts), st.Artifact)
	}

	// Resubmit the identical request: it must short-circuit on the cache.
	if _, err := ensureNetwork(ctx, c); err != nil {
		return err
	}
	job, err := c.SubmitJob(ctx, st.Network, wsanclient.KindSchedule, jobParams)
	if err != nil {
		return err
	}
	if !job.Cached || job.Artifact != st.Artifact {
		return fmt.Errorf("resubmission: cached=%v artifact=%.12s…, want cache hit on %.12s…",
			job.Cached, job.Artifact, st.Artifact)
	}
	part, err := c.ArtifactPart(ctx, job.Artifact, st.Part)
	if err != nil {
		return err
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(part)); got != st.SHA256 {
		return fmt.Errorf("%s differs across restart: sha %.12s…, primed %.12s…", st.Part, got, st.SHA256)
	}

	// The fresh process must have served it from disk, not recomputed.
	mets, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	if hits := mets.Counters["server.cache.hits"]; hits < 1 {
		return fmt.Errorf("server.cache.hits = %d after cached resubmission, want >= 1", hits)
	}
	if stored := mets.Counters["server.cache.stored"]; stored != 0 {
		return fmt.Errorf("server.cache.stored = %d — the restarted daemon recomputed, want 0", stored)
	}
	fmt.Printf("verified artifact %.12s… served from disk after restart: cache hit, byte-identical, no recompute\n",
		st.Artifact)
	return nil
}
