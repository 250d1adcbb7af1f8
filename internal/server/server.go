package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"wsan/internal/obs"
	"wsan/internal/server/storage"
	"wsan/wsanclient"
)

// Config parameterizes the daemon.
type Config struct {
	// Workers is the worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueCap bounds the FIFO job queue; a full queue rejects submissions
	// with 429 (default 64).
	QueueCap int
	// JobTimeout is the per-job watchdog (see PoolConfig.JobTimeout).
	// Default 0: no watchdog.
	JobTimeout time.Duration
	// MaxRetries and RetryBackoff configure the retry policy for jobs
	// failing with a Transient error (see PoolConfig). Defaults: 2 retries,
	// 250ms base backoff.
	MaxRetries   int
	RetryBackoff time.Duration
	// Metrics receives every server and pipeline signal and backs the
	// /metrics endpoint. Nil creates a fresh registry.
	Metrics *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the server
	// mux (the wsansim serve command turns this on).
	EnablePprof bool
	// EventBuffer is the per-subscriber event queue capacity; a subscriber
	// whose queue is full has events dropped (counted in
	// server.events.dropped) rather than ever blocking a worker
	// (default 64).
	EventBuffer int
	// EventReplay bounds the replay ring backing Last-Event-ID resume
	// (default 1024 events). Retention starts with the first subscriber.
	EventReplay int
	// MetricsInterval is the period of the metrics.delta firehose events
	// (default 10s; negative disables them). The same ticker drives the
	// periodic TTL sweep of the artifact store.
	MetricsInterval time.Duration
	// StoreDir, when set, makes the artifact store durable: artifacts are
	// written through to this directory (content-addressed, atomically
	// published) and kept resident while they fit StoreMemBytes, and a
	// restarted daemon warm-scans the directory so previously computed
	// artifacts are served from disk without recomputation. Empty keeps
	// the process-lifetime memory store.
	StoreDir string
	// StoreMaxBytes bounds the artifact store's total part payload; when
	// the budget is exceeded, least-recently-used artifacts are evicted
	// (from memory and disk). 0 = unbounded.
	StoreMaxBytes int64
	// StoreTTL, when positive, expires artifacts that old: they are never
	// served past the TTL and are reclaimed lazily on access plus
	// periodically (see MetricsInterval). 0 = no expiry.
	StoreTTL time.Duration
	// StoreMemBytes bounds the resident part payload of a durable store
	// (default 256 MiB); the least recently used artifacts beyond it are
	// served from disk. Ignored without StoreDir.
	StoreMemBytes int64
}

// Server is the network-manager daemon: hosted networks, the artifact
// store, the job queue, the event bus, and the HTTP surface over them.
type Server struct {
	nets  *registry
	store *storage.Store
	pool  *Pool
	mets  *obs.Registry
	bus   *Bus
	mux   *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc

	metricsStop chan struct{}
	metricsDone chan struct{}

	mu       sync.Mutex
	jobs     map[string]*Job
	jobOrder []string
	jobSeq   int
	draining bool
}

// New builds a ready-to-serve daemon. It errors only when a configured
// store directory cannot be opened. Call Shutdown to drain it.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.MetricsInterval == 0 {
		cfg.MetricsInterval = 10 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		nets:        newRegistry(),
		mets:        cfg.Metrics,
		bus:         NewBus(cfg.EventBuffer, cfg.EventReplay, cfg.Metrics),
		baseCtx:     ctx,
		baseCancel:  cancel,
		metricsStop: make(chan struct{}),
		metricsDone: make(chan struct{}),
		jobs:        make(map[string]*Job),
	}
	store, err := buildStore(cfg, s.cacheEviction)
	if err != nil {
		cancel()
		return nil, err
	}
	s.store = store
	s.pool = NewPool(PoolConfig{
		Workers:      cfg.Workers,
		QueueCap:     cfg.QueueCap,
		JobTimeout:   cfg.JobTimeout,
		MaxRetries:   cfg.MaxRetries,
		RetryBackoff: cfg.RetryBackoff,
		Metrics:      cfg.Metrics,
	}, s.runJob)
	s.mux = s.buildMux(cfg.EnablePprof)
	// Pre-declare the headline counters so a fresh /metrics snapshot
	// carries the full schema as explicit zeros.
	for _, name := range []string{
		"server.jobs.submitted", "server.jobs.completed", "server.jobs.failed",
		"server.jobs.cancelled", "server.jobs.rejected", "server.jobs.retries",
		"server.jobs.panics", "server.jobs.watchdog_timeouts",
		"server.cache.hits", "server.cache.misses", "server.cache.stored",
		"server.cache.dup_writes", "server.cache.evictions",
		"server.cache.quarantined",
		"server.events.published", "server.events.dropped",
	} {
		s.mets.Count(name, 0)
	}
	s.mets.Gauge("server.queue.depth", 0)
	s.mets.Gauge("server.events.subscribers", 0)
	if cfg.MetricsInterval > 0 {
		go s.metricsLoop(cfg.MetricsInterval)
	} else {
		close(s.metricsDone)
	}
	return s, nil
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the registry backing /metrics.
func (s *Server) Metrics() *obs.Registry { return s.mets }

// Events returns the daemon's event bus (tests and embedders subscribe
// directly; HTTP clients use the /v1/events SSE endpoints).
func (s *Server) Events() *Bus { return s.bus }

// Shutdown drains the daemon: new jobs are rejected immediately, running
// and queued jobs get until ctx expires to finish, then their contexts are
// cancelled and the workers are awaited unconditionally. The event bus
// closes last, so subscribers observe the final transitions of drained
// jobs before their streams end.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	err := s.pool.Close(ctx)
	if err != nil {
		// Out of patience: abort every in-flight job and wait for the
		// workers to observe the cancellation.
		s.baseCancel()
		s.pool.Wait()
	} else {
		s.baseCancel()
	}
	select {
	case <-s.metricsDone:
	default:
		close(s.metricsStop)
		<-s.metricsDone
	}
	s.bus.Close()
	// The workers are drained, so nothing writes the store anymore; it
	// releases its index here while a durable store's artifacts stay on
	// disk for the next daemon.
	if cerr := s.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// SubmitJob canonicalizes the request, probes the artifact cache, and
// either completes the job instantly (cache hit) or enqueues it. The
// returned error is ErrQueueFull, ErrDraining, or a validation error.
func (s *Server) SubmitJob(network, kind string, params json.RawMessage) (*Job, error) {
	nw, ok := s.nets.get(network)
	if !ok {
		return nil, fmt.Errorf("network %q not found", network)
	}
	canon, err := s.canonicalParams(nw, kind, params)
	if err != nil {
		return nil, fmt.Errorf("invalid %s parameters: %w", kind, err)
	}
	key := ArtifactKey(nw.Hash, kind, canon)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.jobSeq++
	id := fmt.Sprintf("j%d", s.jobSeq)
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		ID:           id,
		Network:      network,
		Kind:         kind,
		Key:          key,
		Params:       canon,
		ctx:          ctx,
		cancel:       cancel,
		state:        wsanclient.StateQueued,
		created:      time.Now(),
		onTransition: s.jobTransition,
	}
	if art, ok := s.store.Lookup(key); ok {
		// Cache hit: the artifact for this exact request already exists;
		// the job completes without touching the queue.
		j.mu.Lock()
		j.state = wsanclient.StateDone
		j.cached = true
		j.artifactID = art.ID
		j.started = j.created
		j.finished = time.Now()
		j.mu.Unlock()
		cancel()
		s.rememberJob(j)
		j.notifyTransition()
		return j, nil
	}
	if err := s.pool.Submit(j); err != nil {
		cancel()
		return nil, err
	}
	s.rememberJob(j)
	j.notifyTransition()
	return j, nil
}

// rememberJob indexes a job for the /jobs endpoints.
func (s *Server) rememberJob(j *Job) {
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.jobOrder = append(s.jobOrder, j.ID)
	s.mu.Unlock()
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// jobSeqNum extracts the numeric part of a job ID ("j42" → 42, ok). Job
// IDs are assigned from a strictly increasing sequence, so the number
// orders jobs by submission — the property cursor pagination binary
// searches on.
func jobSeqNum(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'j' {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// JobViews snapshots jobs in submission order (the jobs list's stable
// ordering). after, when non-empty, skips every job at or before that ID
// in submission order; limit > 0 caps the page size. The second return is
// the cursor of the next page ("" when this page exhausts the list).
func (s *Server) JobViews(after string, limit int) ([]wsanclient.Job, string) {
	s.mu.Lock()
	order := s.jobOrder
	start := 0
	if after != "" {
		if seq, ok := jobSeqNum(after); ok {
			// jobOrder is append-only with strictly increasing sequence
			// numbers, so the resume point binary-searches in O(log n).
			start = sort.Search(len(order), func(i int) bool {
				n, _ := jobSeqNum(order[i])
				return n > seq
			})
		}
	}
	end := len(order)
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	jobs := make([]*Job, 0, end-start)
	for _, id := range order[start:end] {
		jobs = append(jobs, s.jobs[id])
	}
	more := end < len(order)
	s.mu.Unlock()
	views := make([]wsanclient.Job, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	var next string
	if more && len(views) > 0 {
		next = views[len(views)-1].ID
	}
	return views, next
}

// ArtifactViews lists stored artifacts sorted by ID (the artifacts list's
// stable ordering — content addresses, so the order is arbitrary but
// stable). after resumes strictly past that ID — the cursor itself need
// not still exist, so a page boundary evicted between requests resumes
// correctly; limit > 0 caps the page. The second return is the next page's
// cursor ("" when exhausted).
func (s *Server) ArtifactViews(after string, limit int) ([]wsanclient.ArtifactInfo, string) {
	infos, next := s.store.List(after, limit)
	out := make([]wsanclient.ArtifactInfo, 0, len(infos))
	for _, info := range infos {
		out = append(out, wsanclient.ArtifactInfo{ID: info.ID, Kind: info.Kind, Created: info.Created, Parts: info.Parts})
	}
	return out, next
}

// cacheEviction is the store's OnEvict hook: every evicted artifact is
// counted by the store itself and announced on the event bus so `wsansim
// watch` surfaces cache pressure live.
func (s *Server) cacheEviction(ev storage.Eviction) {
	s.bus.Publish(wsanclient.EventCacheEvict, "", "", ev)
}

// buildMux assembles the HTTP surface: every route of the route table is
// mounted once, under /v1.
func (s *Server) buildMux(enablePprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	routes := []struct {
		method, path, name string
		h                  http.HandlerFunc
	}{
		{"GET", "/healthz", "healthz", s.handleHealthz},
		{"GET", "/metrics", "metrics", s.handleMetrics},
		{"POST", "/networks", "networks_create", s.handleCreateNetwork},
		{"GET", "/networks", "networks_list", s.handleListNetworks},
		{"GET", "/networks/{name}", "networks_get", s.handleGetNetwork},
		{"DELETE", "/networks/{name}", "networks_delete", s.handleDeleteNetwork},
		{"POST", "/networks/{name}/jobs", "jobs_submit", s.handleSubmitJob},
		{"GET", "/jobs", "jobs_list", s.handleListJobs},
		{"GET", "/jobs/{id}", "jobs_get", s.handleGetJob},
		{"DELETE", "/jobs/{id}", "jobs_cancel", s.handleCancelJob},
		{"GET", "/jobs/{id}/events", "jobs_events", s.handleJobEvents},
		{"GET", "/events", "events", s.handleEvents},
		{"GET", "/artifacts", "artifacts_list", s.handleListArtifacts},
		{"GET", "/artifacts/{id}", "artifacts_get", s.handleGetArtifact},
		{"GET", "/artifacts/{id}/{part}", "artifacts_part", s.handleGetArtifactPart},
	}
	for _, rt := range routes {
		s.handle(mux, rt.method+" /v1"+rt.path, rt.name, rt.h)
	}
	if enablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	// Catch-all: requests matching no route — unversioned paths included —
	// get the JSON error envelope instead of the mux's plain-text defaults,
	// so every non-2xx response on the API surface has one shape.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, codeNotFound, "no route for %s %s", r.Method, r.URL.Path)
	})
	return mux
}

// handle registers a route with per-endpoint request counting and latency
// histograms ("server.http.<name>.requests" / "server.http.<name>_seconds").
func (s *Server) handle(mux *http.ServeMux, pattern, name string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.mets.Count("server.http."+name+".requests", 1)
		defer obs.Timed(s.mets, "server.http."+name+"_seconds")()
		h(w, r)
	})
}

// writeJSON serves one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Error codes of the v1 error envelope. Every non-2xx API response is
//
//	{"error": {"code": "<one of these>", "message": "<human-readable>"}}
//
// so typed clients can branch on the code without parsing messages.
const (
	codeInvalidRequest = "invalid_request"
	codeNotFound       = "not_found"
	codeConflict       = "conflict"
	codeQueueFull      = "queue_full"
	codeDraining       = "draining"
	codeInternal       = "internal"
)

// errorBody is the wire form of the v1 error envelope.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// writeErr serves one JSON error envelope.
func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = fmt.Sprintf(format, args...)
	writeJSON(w, status, body)
}
