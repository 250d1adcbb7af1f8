package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wsan/internal/obs"
	"wsan/wsanclient"
)

// Job is one asynchronous operation on a hosted network.
type Job struct {
	// ID is the job handle ("j1", "j2", ...). Immutable.
	ID string
	// Network and Kind identify what runs. Immutable.
	Network string
	Kind    string
	// Key is the artifact content address this job produces. Immutable.
	Key string
	// Params is the canonical (defaults-applied) parameter document.
	Params json.RawMessage

	ctx    context.Context
	cancel context.CancelFunc

	// onTransition, when set, is invoked (outside the job lock) after every
	// lifecycle state change — the event bus's feed. Immutable after submit.
	onTransition func(*Job)

	mu         sync.Mutex
	state      wsanclient.JobState
	err        string
	artifactID string
	cached     bool
	created    time.Time
	started    time.Time
	finished   time.Time
}

// View snapshots the job under its lock: the job document the HTTP API
// serves and lifecycle events carry.
func (j *Job) View() wsanclient.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := wsanclient.Job{
		ID:       j.ID,
		Network:  j.Network,
		Kind:     j.Kind,
		State:    j.state,
		Cached:   j.cached,
		Artifact: j.artifactID,
		Error:    j.err,
		Created:  j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// notifyTransition fires the transition hook, if any. Callers must not hold
// j.mu: the hook snapshots the job via View.
func (j *Job) notifyTransition() {
	if j.onTransition != nil {
		j.onTransition(j)
	}
}

// State returns the current lifecycle state.
func (j *Job) State() wsanclient.JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// markRunning moves queued → running; it reports false when the job was
// cancelled while waiting (the worker then skips it).
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != wsanclient.StateQueued {
		return false
	}
	j.state = wsanclient.StateRunning
	j.started = time.Now()
	return true
}

// finish records the execution outcome. A run aborted by the job's own
// context reports cancelled, not failed.
func (j *Job) finish(artifactID string, err error) wsanclient.JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = wsanclient.StateDone
		j.artifactID = artifactID
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = wsanclient.StateCancelled
		j.err = err.Error()
	default:
		j.state = wsanclient.StateFailed
		j.err = err.Error()
	}
	return j.state
}

// Cancel requests cancellation. A queued job transitions immediately; a
// running job has its context cancelled and transitions when the worker
// returns. Cancel reports false if the job had already finished.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	switch j.state {
	case wsanclient.StateQueued:
		j.state = wsanclient.StateCancelled
		j.err = context.Canceled.Error()
		j.finished = time.Now()
		j.mu.Unlock()
		j.cancel()
		j.notifyTransition()
		return true
	case wsanclient.StateRunning:
		j.mu.Unlock()
		j.cancel()
		return true
	default:
		j.mu.Unlock()
		return false
	}
}

// Queue admission errors.
var (
	// ErrQueueFull: the bounded queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining: the pool is shutting down and rejects new jobs (HTTP 503).
	ErrDraining = errors.New("server: draining, not accepting jobs")
)

// Pool is the bounded FIFO job queue plus its worker goroutines.
type Pool struct {
	queue   chan *Job
	run     func(ctx context.Context, j *Job) (artifactID string, err error)
	mets    obs.Sink
	workers int
	wg      sync.WaitGroup

	jobTimeout time.Duration

	// running counts jobs currently executing on workers; Retry-After
	// estimates would otherwise see an empty queue as an idle pool even
	// with every worker pinned on a long job.
	running atomic.Int64

	mu     sync.RWMutex
	closed bool
}

// PoolConfig parameterizes a worker pool.
type PoolConfig struct {
	// Workers is the number of worker goroutines (min 1); QueueCap bounds
	// the FIFO queue (min 1).
	Workers  int
	QueueCap int
	// JobTimeout is the per-job watchdog: a job still running after this
	// long has its context cancelled and fails (it does NOT report
	// cancelled — the caller didn't ask for it). Zero disables the
	// watchdog. A failed job is never re-run: every job kind is a
	// deterministic function of its parameters, so a caller that wants
	// another try resubmits.
	JobTimeout time.Duration
	// Metrics receives the pool's counters; nil disables them.
	Metrics obs.Sink
}

// NewPool starts worker goroutines draining a FIFO queue. run executes one
// job and returns the stored artifact ID.
func NewPool(cfg PoolConfig, run func(context.Context, *Job) (string, error)) *Pool {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 1
	}
	p := &Pool{
		queue:      make(chan *Job, cfg.QueueCap),
		run:        run,
		mets:       cfg.Metrics,
		workers:    cfg.Workers,
		jobTimeout: cfg.JobTimeout,
	}
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p
}

// Submit enqueues a queued job, failing fast with ErrQueueFull when the
// queue is at capacity and ErrDraining after Close.
func (p *Pool) Submit(j *Job) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrDraining
	}
	select {
	case p.queue <- j:
		if p.mets != nil {
			p.mets.Count("server.jobs.submitted", 1)
			p.mets.Gauge("server.queue.depth", float64(len(p.queue)))
		}
		return nil
	default:
		if p.mets != nil {
			p.mets.Count("server.jobs.rejected", 1)
		}
		return ErrQueueFull
	}
}

// RetryAfterSeconds estimates how long a rejected client should wait before
// resubmitting: the time to drain the current backlog — queued jobs plus the
// ones already running on workers — assuming roughly one second per job per
// worker, clamped to [1, 60] so clients neither hammer a saturated daemon nor
// stall for minutes after a momentary spike. It backs the Retry-After header
// of 429 responses. Counting running jobs matters: a full complement of
// long-running jobs with an empty queue used to report the 1-second floor, so
// rejected clients resubmitted into a still-saturated pool.
func (p *Pool) RetryAfterSeconds() int {
	return retryAfterEstimate(len(p.queue), int(p.running.Load()), p.workers)
}

// retryAfterEstimate is RetryAfterSeconds' pure computation, split out for
// table testing.
func retryAfterEstimate(queued, running, workers int) int {
	secs := (queued + running + workers - 1) / workers
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// worker drains the queue until Close.
func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		if p.mets != nil {
			p.mets.Gauge("server.queue.depth", float64(len(p.queue)))
		}
		if !j.markRunning() {
			// Cancelled while queued.
			continue
		}
		j.notifyTransition()
		if p.mets != nil {
			p.mets.Observe("server.jobs.queue_seconds", time.Since(j.View().Created).Seconds())
		}
		start := time.Now()
		p.running.Add(1)
		art, err := p.attempt(j)
		p.running.Add(-1)
		state := j.finish(art, err)
		j.notifyTransition()
		if p.mets != nil {
			p.mets.Observe("server.jobs.run_seconds", time.Since(start).Seconds())
			switch state {
			case wsanclient.StateDone:
				p.mets.Count("server.jobs.completed", 1)
			case wsanclient.StateFailed:
				p.mets.Count("server.jobs.failed", 1)
			case wsanclient.StateCancelled:
				p.mets.Count("server.jobs.cancelled", 1)
			}
		}
	}
}

// safeRun executes a job with panic isolation: a panicking job fails
// that job — with the panic value as its error — and never takes the worker
// (or the daemon) down with it.
func (p *Pool) safeRun(ctx context.Context, j *Job) (art string, err error) {
	defer func() {
		if r := recover(); r != nil {
			if p.mets != nil {
				p.mets.Count("server.jobs.panics", 1)
			}
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	return p.run(ctx, j)
}

// attempt runs a job once under the watchdog. A run killed by the watchdog
// (not by the caller's cancel) reports a plain error, so the job lands in
// failed rather than masquerading as cancelled.
func (p *Pool) attempt(j *Job) (string, error) {
	ctx := j.ctx
	if p.jobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.jobTimeout)
		defer cancel()
	}
	art, err := p.safeRun(ctx, j)
	if err != nil && ctx.Err() != nil && j.ctx.Err() == nil {
		if p.mets != nil {
			p.mets.Count("server.jobs.watchdog_timeouts", 1)
		}
		err = fmt.Errorf("job exceeded the %v watchdog timeout", p.jobTimeout)
	}
	return art, err
}

// Close stops intake and waits for the workers to drain the queue — the
// graceful half of shutdown. It returns ctx.Err() if the drain outlives the
// context (the caller then cancels the jobs' contexts and re-waits).
func (p *Pool) Close(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Wait blocks until every worker has exited (used after a forced cancel).
func (p *Pool) Wait() { p.wg.Wait() }
