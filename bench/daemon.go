package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsan"
	"wsan/internal/schedule"
	"wsan/internal/server"
	"wsan/internal/soak"
	"wsan/internal/topology"
	"wsan/wsanclient"
)

// daemon-mix: the operator-facing service under an open loop. An
// in-process daemon (2 workers, memory store, firehose metrics off) serves a
// loopback listener; one goroutine submits 80 jobs/s through wsanclient on
// one connection and one SSE subscription on a second connection receives
// the job events. The mix is 60% cold 60-flow RC schedule jobs (compute and
// store write), 25% resubmissions of schedules primed at set-up (cache hits,
// the light class) and 15% removals of a flow from a primed schedule (bundle
// decode plus a delta, the heavy class). Each job is timed from when it was
// due to when its job.done event arrived, so a stall also delays the jobs
// queued behind it. Every job's schedule is also computed in-process, and
// the artifact the daemon stores must match it.
type daemonLoad struct {
	ref    *env // an in-process twin of the hosted network
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when the listener stops
	tr     *http.Transport
	client *wsanclient.Client

	rate   float64 // jobs per second
	flows  int     // per schedule job
	rng    *rand.Rand
	used   map[int64]bool // workload seeds drawn so far
	primed []primedJob
	jobs   []jobSpec
}

// primedJob is a schedule the cache holds before the phase starts.
type primedJob struct {
	params   scheduleJob
	artifact string
	sched    *schedule.Schedule
}

// jobSpec is one drawn job and the digest its artifact's schedule must have.
type jobSpec struct {
	kind   string
	params any
	c      class
	want   string
}

// The job parameter documents. The daemon fills every other field with its
// defaults (periods 2^0–2^2 s, peer-to-peer, RC, ρ_t = 2), which the
// in-process twin mirrors.
type scheduleJob struct {
	Flows int   `json:"flows"`
	Seed  int64 `json:"seed"`
}

type removeJob struct {
	Artifact string `json:"artifact"`
	Op       string `json:"op"`
	Flow     int    `json:"flow"`
}

const (
	benchNetwork   = "bench"
	daemonChannels = 4
)

func setupDaemon(cfg config, rec *recorder, root int) (instance, error) {
	ref, err := buildEnv(topology.IndriyaConfig(), daemonChannels, rec, root)
	if err != nil {
		return nil, err
	}
	id := rec.begin("setup.workload", root, -1)
	defer rec.end(id)
	srv, err := server.New(server.Config{Workers: 2, EventBuffer: 8192, MetricsInterval: -1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	// Two connections: the submitter's and the event stream's.
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	d := &daemonLoad{
		ref:    ref,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		tr:     tr,
		// No retries: a refused (429) submission is a failed job.
		client: wsanclient.New("http://"+ln.Addr().String(), wsanclient.Options{
			HTTPClient: &http.Client{Transport: tr}, MaxRetries: -1,
		}),
		rate:  80,
		flows: 60,
		rng:   rand.New(rand.NewSource(cfg.seed)),
		used:  make(map[int64]bool),
	}
	nPrimed := 32
	if cfg.tiny {
		nPrimed, d.flows = 4, 20
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	if err := d.prime(nPrimed); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// schedulable draws a fresh workload seed whose schedule job succeeds
// (about one 60-flow draw in a thousand is unschedulable) and returns the
// schedule the daemon will produce for it.
func (d *daemonLoad) schedulable() (int64, *schedule.Schedule, error) {
	for {
		seed := d.rng.Int63n(1<<40) + 1
		if d.used[seed] {
			continue
		}
		d.used[seed] = true
		fs, err := d.ref.net.GenerateWorkload(wsan.WorkloadConfig{
			NumFlows: d.flows, MinPeriodExp: 0, MaxPeriodExp: 2, Traffic: wsan.PeerToPeer, Seed: seed,
		})
		if err != nil {
			return 0, nil, err
		}
		res, err := d.ref.net.Schedule(fs, wsan.RC, wsan.ScheduleConfig{})
		if err != nil {
			return 0, nil, err
		}
		if res.Schedulable {
			return seed, res.Schedule, nil
		}
	}
}

// prime registers the network and fills the cache with the schedules the
// hits and removals reuse.
func (d *daemonLoad) prime(n int) error {
	ctx := context.Background()
	if _, err := d.client.CreateNetwork(ctx, wsanclient.CreateNetworkRequest{
		Name: benchNetwork, Preset: "indriya", TopoSeed: 1, Channels: daemonChannels,
	}); err != nil {
		return err
	}
	d.primed = make([]primedJob, n)
	ids := make([]string, n)
	for k := range d.primed {
		seed, s, err := d.schedulable()
		if err != nil {
			return err
		}
		d.primed[k] = primedJob{params: scheduleJob{Flows: d.flows, Seed: seed}, sched: s}
		j, err := d.client.SubmitJob(ctx, benchNetwork, wsanclient.KindSchedule, d.primed[k].params)
		if err != nil {
			return fmt.Errorf("priming: %w", err)
		}
		ids[k] = j.ID
	}
	for k, id := range ids {
		j, err := d.client.WaitJob(ctx, id, 2*time.Millisecond)
		if err != nil {
			return fmt.Errorf("priming: %w", err)
		}
		if j.State != wsanclient.StateDone {
			return fmt.Errorf("priming job %s ended %s: %s", id, j.State, j.Error)
		}
		d.primed[k].artifact = j.Artifact
	}
	return nil
}

// draw generates the phase's jobs: 60% cold schedules, 25% resubmitted
// primed schedules and 15% removals, each of a distinct (primed schedule,
// flow) pair so that none of them is a hit.
func (d *daemonLoad) draw(seconds time.Duration) error {
	var removals []removeJob
	for _, p := range d.primed {
		for f := 0; f < d.flows; f++ {
			removals = append(removals, removeJob{Artifact: p.artifact, Op: "remove", Flow: f})
		}
	}
	d.rng.Shuffle(len(removals), func(i, j int) { removals[i], removals[j] = removals[j], removals[i] })
	// The shares are exact, not drawn per job: with job classes this far
	// apart in cost, a share that varied from run to run would move the
	// latency percentiles across class boundaries.
	n := max(int(d.rate*seconds.Seconds()), 1)
	classes := make([]class, n)
	for i := range classes {
		switch {
		case i < n*60/100:
			classes[i] = mid
		case i < n*85/100:
			classes[i] = light
		default:
			classes[i] = heavy
		}
	}
	d.rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	d.jobs = make([]jobSpec, n)
	for i, c := range classes {
		switch {
		case c == light:
			p := d.primed[d.rng.Intn(len(d.primed))]
			d.jobs[i] = jobSpec{wsanclient.KindSchedule, p.params, light, soak.Digest(p.sched)}
		case c == heavy && len(removals) > 0:
			rm := removals[0]
			removals = removals[1:]
			d.jobs[i] = jobSpec{wsanclient.KindReschedule, rm, heavy, d.withoutFlow(rm)}
		default:
			seed, s, err := d.schedulable()
			if err != nil {
				return err
			}
			d.jobs[i] = jobSpec{wsanclient.KindSchedule, scheduleJob{Flows: d.flows, Seed: seed}, mid, soak.Digest(s)}
		}
	}
	return nil
}

// withoutFlow is the digest of a primed schedule with one flow's
// transmissions deleted, which is all a remove delta may do.
func (d *daemonLoad) withoutFlow(rm removeJob) string {
	for _, p := range d.primed {
		if p.artifact != rm.Artifact {
			continue
		}
		s := p.sched.Clone()
		for _, tx := range p.sched.Txs() {
			if tx.FlowID == rm.Flow {
				_ = s.Remove(tx) // tx was read from the same cells
			}
		}
		return soak.Digest(s)
	}
	return ""
}

// submitted is what the generator saw of one job.
type submitted struct {
	due, start, end time.Time
	id              string
	err             error
}

func (d *daemonLoad) measure(cfg config, r *run) error {
	if err := d.draw(cfg.seconds); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := d.client.Subscribe(ctx, wsanclient.StreamOptions{})
	if err != nil {
		return err
	}
	col := newCollector()
	go col.run(st.Events())

	subs := make([]submitted, len(d.jobs))
	r.startPhase()
	r.sampleRef() // the daemon is idle now, whatever happens later
	first := time.Now()
	period := time.Duration(float64(time.Second) / d.rate)
	var ids []string
	for i, js := range d.jobs {
		s := &subs[i]
		s.due = first.Add(time.Duration(i) * period)
		// Time the reference while the daemon is idle, never under its
		// own load, and only with room to spare before the job is due.
		if time.Since(r.lastRef) >= 20*time.Millisecond && time.Until(s.due) > 3*time.Millisecond &&
			col.completed.Load() == int64(len(ids)) {
			r.sampleRef()
		}
		sleepUntil(s.due)
		s.start = time.Now()
		j, err := d.client.SubmitJob(ctx, benchNetwork, js.kind, js.params)
		s.end = time.Now()
		r.attempted++
		if err != nil {
			s.err = err
			continue
		}
		s.id = j.ID
		ids = append(ids, j.ID)
		if j.Cached != (js.c == light) {
			r.errs = append(r.errs, fmt.Errorf("job %d (%s): cached=%v, want %v", i, js.kind, j.Cached, js.c == light))
		}
	}
	col.wait(ids, 30*time.Second)
	r.endPhase()
	st.Close()
	<-col.done
	got := col.got // the collector has exited

	want := make(map[string]string) // artifact → schedule digest
	var last time.Time
	for i, s := range subs {
		t, ok := got[s.id]
		switch {
		case s.err != nil:
			r.failed++
			r.errs = append(r.errs, fmt.Errorf("job %d: %w", i, s.err))
			continue
		case !ok:
			r.failed++
			r.errs = append(r.errs, fmt.Errorf("job %d (%s): no terminal event", i, s.id))
			continue
		case t.typ != wsanclient.EventJobDone:
			r.failed++
			r.errs = append(r.errs, fmt.Errorf("job %d (%s): %s: %s", i, s.id, t.typ, t.view.Error))
			continue
		}
		want[t.view.Artifact] = d.jobs[i].want
		if t.recv.After(last) {
			last = t.recv
		}
		traced := r.rec != nil && tracedOp(i)
		r.record(d.jobs[i].c, s.due, t.recv.Sub(s.due), traced)
		if traced {
			spans(r.rec, i, s, t)
		}
	}
	r.throughput = float64(len(r.samples)) / last.Sub(first).Seconds()
	if err := d.check(ctx, r, want); err != nil {
		return err
	}
	r.retained()
	return nil
}

// spans rebuilds one job's trace from the generator's clock readings and
// the daemon's own job timestamps.
func spans(rec *recorder, i int, s submitted, t terminal) {
	req := int64(i)
	root := rec.add("op", s.due, t.recv, -1, req)
	rec.add("loadgen.lag", s.due, s.start, root, req)
	rec.add("wsanclient.SubmitJob", s.start, s.end, root, req)
	if v := t.view; !v.Cached && v.Started != nil && v.Finished != nil {
		rec.add("server.queue_wait", v.Created, *v.Started, root, req)
		rec.add("server.run."+v.Kind, *v.Started, *v.Finished, root, req)
	}
	rec.add("sse.delivery", t.sent, t.recv, root, req)
}

// check runs the oracles after the phase: the daemon dropped no event, and
// every distinct artifact's schedule decodes, re-validates and equals the
// one computed in-process.
func (d *daemonLoad) check(ctx context.Context, r *run, want map[string]string) error {
	snap, err := d.client.Metrics(ctx)
	if err != nil {
		return err
	}
	dropped := snap.Counters["server.events.dropped"]
	r.counts["server.events_dropped"] = float64(dropped)
	if dropped > 0 {
		r.errs = append(r.errs, fmt.Errorf("daemon dropped %d events", dropped))
	}
	if hits, misses := snap.Counters["server.cache.hits"], snap.Counters["server.cache.misses"]; hits+misses > 0 {
		r.counts["server.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		part, err := timed(r.rec, "wsanclient.ArtifactPart", -1, -1, func() ([]byte, error) {
			return d.client.ArtifactPart(ctx, id, "schedule.json")
		})
		if err != nil {
			return err
		}
		res, err := wsan.LoadSchedule(bytes.NewReader(part))
		if err != nil {
			r.errs = append(r.errs, fmt.Errorf("artifact %s: %w", id, err))
			continue
		}
		if got := soak.Digest(res.Schedule); got != want[id] {
			r.errs = append(r.errs, fmt.Errorf("artifact %s: schedule digest %s, in-process %s", id, got, want[id]))
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(ids, ",")))
	r.digest = fmt.Sprintf("%x", sum[:8])
	return nil
}

func (d *daemonLoad) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	err = errors.Join(err, d.hs.Shutdown(ctx))
	<-d.served
	d.tr.CloseIdleConnections()
	if err != nil {
		fmt.Fprintf(os.Stderr, "daemon shutdown: %v\n", err)
	}
}

// terminal is a job's last event as the stream delivered it.
type terminal struct {
	typ  string
	view wsanclient.Job
	sent time.Time // the event's publication time
	recv time.Time
}

// collector drains the event stream, keeping every job's terminal event.
type collector struct {
	completed atomic.Int64 // terminal events received
	mu        sync.Mutex
	got       map[string]terminal
	notify    chan struct{} // capacity 1: "something arrived"
	done      chan struct{} // closed when the stream has ended
}

func newCollector() *collector {
	return &collector{got: make(map[string]terminal), notify: make(chan struct{}, 1), done: make(chan struct{})}
}

func (c *collector) run(events <-chan wsanclient.Event) {
	defer close(c.done)
	for ev := range events {
		if !wsanclient.TerminalEvent(ev.Type) {
			continue
		}
		recv := time.Now()
		v, err := ev.JobData()
		if err != nil {
			v = wsanclient.Job{Error: fmt.Sprintf("undecodable job view: %v", err)}
			ev.Type = wsanclient.EventJobFailed
		}
		c.mu.Lock()
		c.got[ev.Job] = terminal{typ: ev.Type, view: v, sent: ev.Time, recv: recv}
		c.mu.Unlock()
		c.completed.Add(1)
		select {
		case c.notify <- struct{}{}:
		default:
		}
	}
}

// wait blocks until every id has a terminal event or timeout passes.
func (c *collector) wait(ids []string, timeout time.Duration) {
	deadline := time.After(timeout)
	for {
		c.mu.Lock()
		missing := 0
		for _, id := range ids {
			if _, ok := c.got[id]; !ok {
				missing++
			}
		}
		c.mu.Unlock()
		if missing == 0 {
			return
		}
		select {
		case <-c.notify:
		case <-deadline:
			return
		}
	}
}
