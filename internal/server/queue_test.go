package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"wsan/internal/obs"
	"wsan/wsanclient"
)

// newTestJob builds a bare job wired to a cancellable context.
func newTestJob(id string) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{ID: id, Kind: "test", Key: "key-" + id, ctx: ctx, cancel: cancel,
		state: wsanclient.StateQueued, created: time.Now()}
}

func TestPoolRunsJobs(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	ran := make(map[string]bool)
	p := NewPool(PoolConfig{Workers: 2, QueueCap: 4, Metrics: reg}, func(ctx context.Context, j *Job) (string, error) {
		mu.Lock()
		ran[j.ID] = true
		mu.Unlock()
		return "art-" + j.ID, nil
	})
	jobs := []*Job{newTestJob("a"), newTestJob("b"), newTestJob("c")}
	for _, j := range jobs {
		if err := p.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !ran[j.ID] {
			t.Errorf("job %s never ran", j.ID)
		}
		v := j.View()
		if v.State != wsanclient.StateDone || v.Artifact != "art-"+j.ID {
			t.Errorf("job %s: %+v", j.ID, v)
		}
	}
	if got := reg.CounterValue("server.jobs.completed"); got != 3 {
		t.Errorf("completed = %d, want 3", got)
	}
}

func TestPoolBackpressure(t *testing.T) {
	block := make(chan struct{})
	p := NewPool(PoolConfig{Workers: 1, QueueCap: 1}, func(ctx context.Context, j *Job) (string, error) {
		<-block
		return "", nil
	})
	defer close(block)
	// First job occupies the worker; the exact moment it is dequeued is
	// asynchronous, so allow the queue slot to free up before filling it.
	if err := p.Submit(newTestJob("running")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := p.Submit(newTestJob("queued")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never freed a slot for the second job")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Submit(newTestJob("rejected")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
}

func TestPoolRejectsAfterClose(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, QueueCap: 1}, func(ctx context.Context, j *Job) (string, error) { return "", nil })
	ctx, cancel := contextWithTimeout(time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(newTestJob("late")); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after close: %v, want ErrDraining", err)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	block := make(chan struct{})
	var mu sync.Mutex
	ran := make(map[string]bool)
	p := NewPool(PoolConfig{Workers: 1, QueueCap: 2}, func(ctx context.Context, j *Job) (string, error) {
		mu.Lock()
		ran[j.ID] = true
		mu.Unlock()
		<-block
		return "", nil
	})
	first := newTestJob("first")
	if err := p.Submit(first); err != nil {
		t.Fatal(err)
	}
	victim := newTestJob("victim")
	if err := p.Submit(victim); err != nil {
		t.Fatal(err)
	}
	if !victim.Cancel() {
		t.Fatal("cancel of a queued job should succeed")
	}
	if st := victim.State(); st != wsanclient.StateCancelled {
		t.Fatalf("victim state = %v, want cancelled", st)
	}
	close(block)
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran["victim"] {
		t.Fatal("cancelled queued job must be skipped by the worker")
	}
	if !ran["first"] {
		t.Fatal("first job should have run")
	}
}

func TestRunningJobCancelReportsCancelled(t *testing.T) {
	started := make(chan struct{})
	p := NewPool(PoolConfig{Workers: 1, QueueCap: 1}, func(ctx context.Context, j *Job) (string, error) {
		close(started)
		<-ctx.Done()
		return "", ctx.Err()
	})
	j := newTestJob("j")
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	<-started
	if !j.Cancel() {
		t.Fatal("cancel of a running job should succeed")
	}
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if st := j.State(); st != wsanclient.StateCancelled {
		t.Fatalf("state = %v, want cancelled", st)
	}
}

// TestPoolSurvivesPanickingJob: a job that panics must fail that one job —
// with the panic value surfaced as its error — while the single worker
// recovers and keeps serving subsequent jobs.
func TestPoolSurvivesPanickingJob(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(PoolConfig{Workers: 1, QueueCap: 4, Metrics: reg},
		func(ctx context.Context, j *Job) (string, error) {
			if j.ID == "bomb" {
				panic("simulated defect in the " + j.Kind + " pipeline")
			}
			return "art-" + j.ID, nil
		})
	bomb, after := newTestJob("bomb"), newTestJob("after")
	if err := p.Submit(bomb); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(after); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	v := bomb.View()
	if v.State != wsanclient.StateFailed {
		t.Fatalf("panicking job state = %v, want failed", v.State)
	}
	if v.Error == "" || !strings.Contains(v.Error, "job panicked") {
		t.Errorf("panicking job error = %q, want a 'job panicked' message", v.Error)
	}
	// The same worker that absorbed the panic must have run the next job.
	if v := after.View(); v.State != wsanclient.StateDone || v.Artifact != "art-after" {
		t.Errorf("job after the panic: %+v, want done", v)
	}
	if got := reg.CounterValue("server.jobs.panics"); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
}

// TestPoolDoesNotRetryPermanentFailures: a failing job fails on its one
// run; the pool never re-runs it.
func TestPoolDoesNotRetryPermanentFailures(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	p := NewPool(PoolConfig{Workers: 1, QueueCap: 1}, func(ctx context.Context, j *Job) (string, error) {
		mu.Lock()
		attempts++
		mu.Unlock()
		return "", errors.New("invalid parameters")
	})
	j := newTestJob("doomed")
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if v := j.View(); v.State != wsanclient.StateFailed {
		t.Fatalf("permanent failure: %+v, want failed", v)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1", attempts)
	}
}

// TestPoolWatchdogFailsStuckJob: a job outliving the per-job watchdog is
// killed and reported failed — not cancelled, since the caller never asked
// for cancellation — after exactly one run.
func TestPoolWatchdogFailsStuckJob(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	attempts := 0
	p := NewPool(PoolConfig{
		Workers: 1, QueueCap: 1, Metrics: reg,
		JobTimeout: 20 * time.Millisecond,
	}, func(ctx context.Context, j *Job) (string, error) {
		mu.Lock()
		attempts++
		mu.Unlock()
		<-ctx.Done() // simulates a hung job that at least honors its context
		return "", ctx.Err()
	})
	j := newTestJob("stuck")
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	v := j.View()
	if v.State != wsanclient.StateFailed {
		t.Fatalf("watchdog-killed job state = %v, want failed: %+v", v.State, v)
	}
	if !strings.Contains(v.Error, "watchdog") {
		t.Errorf("error = %q, want a watchdog timeout message", v.Error)
	}
	if got := reg.CounterValue("server.jobs.watchdog_timeouts"); got != 1 {
		t.Errorf("watchdog counter = %d, want 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1", attempts)
	}
}

// TestJobStateStrings pins the lifecycle event names: jobTransition
// publishes "job." + the wire state, which must be the client's event
// constant, and a state ends a job's stream exactly when it is terminal.
func TestJobStateStrings(t *testing.T) {
	want := map[wsanclient.JobState]string{
		wsanclient.StateQueued:    wsanclient.EventJobQueued,
		wsanclient.StateRunning:   wsanclient.EventJobRunning,
		wsanclient.StateDone:      wsanclient.EventJobDone,
		wsanclient.StateFailed:    wsanclient.EventJobFailed,
		wsanclient.StateCancelled: wsanclient.EventJobCancelled,
	}
	for st, event := range want {
		if got := "job." + string(st); got != event {
			t.Errorf("state %q publishes %q, want %q", st, got, event)
		}
		if st.Terminal() != wsanclient.TerminalEvent(event) {
			t.Errorf("state %q: Terminal() = %v but TerminalEvent(%q) = %v",
				st, st.Terminal(), event, wsanclient.TerminalEvent(event))
		}
	}
}

// TestRetryAfterEstimate pins the Retry-After backlog arithmetic, in
// particular that running jobs count toward the drain estimate: a saturated
// pool with an empty queue is not an idle pool.
func TestRetryAfterEstimate(t *testing.T) {
	cases := []struct {
		name                     string
		queued, running, workers int
		want                     int
	}{
		{"idle pool floors at 1s", 0, 0, 2, 1},
		{"queue only", 4, 0, 2, 2},
		{"running only, saturated", 0, 2, 2, 1},
		{"running and queued", 2, 2, 2, 2},
		{"busy workers shift the estimate", 5, 3, 2, 4},
		{"single worker counts itself", 3, 1, 1, 4},
		{"clamped at 60s", 500, 8, 2, 60},
	}
	for _, c := range cases {
		if got := retryAfterEstimate(c.queued, c.running, c.workers); got != c.want {
			t.Errorf("%s: retryAfterEstimate(%d, %d, %d) = %d, want %d",
				c.name, c.queued, c.running, c.workers, got, c.want)
		}
	}
}

// TestRetryAfterSeesRunningJobs saturates every worker with a blocking job,
// leaves the queue loaded, and checks RetryAfterSeconds reflects the running
// jobs — the pre-fix estimate ignored them and under-reported the backlog.
func TestRetryAfterSeesRunningJobs(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	p := NewPool(PoolConfig{Workers: 2, QueueCap: 4}, func(ctx context.Context, j *Job) (string, error) {
		started <- struct{}{}
		<-release
		return "", nil
	})
	defer func() { close(release); p.Close(context.Background()) }()
	for i := 0; i < 4; i++ {
		if err := p.Submit(newTestJob(string(rune('a' + i)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("workers did not pick up jobs")
		}
	}
	// Two jobs running, two queued, two workers: ceil(4/2) = 2 seconds.
	// Ignoring the running pair would report ceil(2/2) = 1.
	if got := p.RetryAfterSeconds(); got != 2 {
		t.Fatalf("RetryAfterSeconds = %d, want 2 (2 running + 2 queued on 2 workers)", got)
	}
}
