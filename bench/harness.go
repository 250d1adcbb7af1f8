package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration // length of the measured phase
	trace   bool
	setups  int  // set-ups per run; setup_s is their median
	tiny    bool // test-sized inputs
}

// class sorts operations into a workload's contrasting request kinds.
type class int

const (
	light class = iota
	mid
	heavy
)

// instance is what one set-up of a workload builds.
type instance interface {
	// measure runs the measured phase into r.
	measure(cfg config, r *run) error
	// close releases what set-up started.
	close()
}

// workload names a set-up. root is the set-up's span, for the set-up's
// own layer calls to hang under.
type workload struct {
	name  string
	setup func(cfg config, rec *recorder, root int) (instance, error)
}

var workloads = []workload{
	{"plan-100f", setupPlan},
	{"churn-500f", setupChurn},
	{"observe-repair", setupObserve},
	{"daemon-mix", setupDaemon},
}

// run is what one run of one workload measured.
type run struct {
	workload  string
	seed      int64
	setups    []float64 // seconds per set-up
	samples   []sample  // successful operations
	attempted int
	failed    int
	// throughput is an open loop's completions per second from the first
	// due time to the last completion; a closed loop leaves it 0.
	throughput float64
	heapLive   uint64 // bytes live at the end of the phase
	allocs     uint64 // bytes allocated during the phase
	counts     map[string]float64
	digest     string
	errs       []error // correctness failures; any makes the run incorrect

	rec        *recorder // nil unless traced
	phase      time.Time // start of the measured phase
	heapSample []metrics.Sample

	ref     *reference
	refs    []sample // reference timings, by when they were taken
	lastRef time.Time
}

// sample is one successful operation.
type sample struct {
	at     time.Duration // when it started (an open loop: was due), from the phase start
	ms     float64
	c      class
	traced bool
}

func newRun(name string, cfg config) *run {
	r := &run{
		workload: name,
		seed:     cfg.seed,
		counts:   make(map[string]float64),
		ref:      newReference(),
		heapSample: []metrics.Sample{
			{Name: "/gc/heap/live:bytes"},
			{Name: "/gc/heap/allocs:bytes"},
		},
	}
	if cfg.trace {
		r.rec = newRecorder()
	}
	return r
}

// startPhase marks the start of the measured phase from a collected heap,
// so set-up garbage neither counts nor triggers a collection inside it.
func (r *run) startPhase() {
	runtime.GC()
	r.allocs = r.readHeap()
	r.phase = time.Now()
}

// endPhase records the phase's allocations.
func (r *run) endPhase() { r.allocs = r.readHeap() - r.allocs }

// retained records, after a full collection, the heap the workload holds
// once its phase and oracles are done.
func (r *run) retained() {
	runtime.GC()
	r.readHeap()
	r.heapLive = r.heapSample[0].Value.Uint64()
}

// readHeap returns the cumulative bytes allocated.
func (r *run) readHeap() uint64 {
	metrics.Read(r.heapSample)
	return r.heapSample[1].Value.Uint64()
}

// sampleRef times the reference computation once.
func (r *run) sampleRef() {
	t0 := time.Now()
	d := r.ref.sample()
	r.refs = append(r.refs, sample{at: t0.Sub(r.phase), ms: float64(d) / float64(time.Millisecond)})
	r.lastRef = time.Now()
}

// tracedOp picks which operations of a traced run record spans: a fixed
// pseudo-random half, uncorrelated with any workload's own op pattern, so
// the untraced half measures the tracing overhead under the same load.
func tracedOp(i int) bool {
	z := uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z^z>>31)&1 == 1
}

// record files one successful operation that started (or was due) at
// start and took d.
func (r *run) record(c class, start time.Time, d time.Duration, traced bool) {
	r.samples = append(r.samples, sample{
		at: start.Sub(r.phase), ms: float64(d) / float64(time.Millisecond), c: c, traced: traced,
	})
}

// closedLoop is a workload whose one client sends the next operation when
// the previous one returns.
type closedLoop interface {
	// op performs operation i; rec is nil when i is untraced and root is
	// the operation's span. An error fails the operation.
	op(i int, rec *recorder, root int) (class, error)
	// after runs once op i has succeeded, outside the timed region: the
	// correctness oracles and digest bookkeeping.
	after(i int) error
	// finish ends the phase: the digest, the counts, and final oracles,
	// whose failure it returns.
	finish(r *run) error
}

// runClosed drives a closed loop for cfg.seconds and at least minOps
// operations, so the digest prefix is always complete.
func runClosed(w closedLoop, cfg config, r *run, minOps int) error {
	r.startPhase()
	deadline := r.phase.Add(cfg.seconds)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		rec := r.rec
		traced := rec != nil && tracedOp(i)
		if !traced {
			rec = nil
		}
		t0 := time.Now()
		root := rec.begin("op", -1, int64(i))
		c, err := w.op(i, rec, root)
		rec.end(root)
		d := time.Since(t0)
		r.attempted++
		if err != nil {
			// A layer rejecting a generated input is a bug, and it may have
			// left the workload's state half-updated: stop here.
			r.failed++
			r.errs = append(r.errs, fmt.Errorf("op %d: %w", i, err))
			break
		}
		r.record(c, t0, d, traced)
		if err := w.after(i); err != nil {
			r.errs = append(r.errs, fmt.Errorf("op %d: %w", i, err))
			break
		}
		if time.Since(r.lastRef) >= 20*time.Millisecond {
			r.sampleRef()
		}
	}
	r.endPhase()
	if err := w.finish(r); err != nil {
		r.errs = append(r.errs, err)
	}
	r.retained()
	return nil
}

// runWorkload sets the workload up cfg.setups times, keeping the last
// instance, then measures it.
func runWorkload(w workload, cfg config) (*run, error) {
	r := newRun(w.name, cfg)
	var inst instance
	for k := 0; k < max(cfg.setups, 1); k++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		root := r.rec.begin("setup", -1, -1)
		var err error
		inst, err = w.setup(cfg, r.rec, root)
		r.rec.end(root)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	if err := inst.measure(cfg, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, nil
}

// timed runs fn inside a span named name.
func timed[T any](rec *recorder, name string, parent int, req int64, fn func() (T, error)) (T, error) {
	id := rec.begin(name, parent, req)
	v, err := fn()
	rec.end(id)
	return v, err
}

// correct reports whether every oracle passed.
func (r *run) correct() bool { return len(r.errs) == 0 }

// window is the span of a run over which one reference speed applies.
const window = time.Second

// normalized returns the samples keep selects, each latency rescaled to
// reference speed: multiplied by refMS over the median reference time of
// the sample's window (of the whole run if the window has none). On a
// shared machine the speed one process gets drifts by tens of percent from
// run to run; the reference computation, timed in the same windows while
// the system under test is idle, slows down with it, so the rescaled
// latencies keep only what the code under test changed.
func (r *run) normalized(keep func(sample) bool) []sample {
	byWindow := make(map[time.Duration][]float64)
	var every []float64
	for _, s := range r.refs {
		byWindow[s.at/window] = append(byWindow[s.at/window], s.ms)
		every = append(every, s.ms)
	}
	runRef := summarize(every).P50
	ref := make(map[time.Duration]float64, len(byWindow))
	for w, ms := range byWindow {
		ref[w] = summarize(ms).P50
	}
	var out []sample
	for _, s := range r.samples {
		if !keep(s) {
			continue
		}
		f, ok := ref[s.at/window]
		if !ok {
			f = runRef
		}
		s.ms *= refMS / f
		out = append(out, s)
	}
	return out
}

// millis lists samples' latencies.
func millis(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

// rateWindow is the slice of a closed loop's phase one throughput reading
// covers; see windowThroughput.
const rateWindow = 100 * time.Millisecond

// windowThroughput is a closed loop's throughput: its one client waits for
// each reply, so a slice of the phase sustains its operations over the
// time they took. The median over slices reports the typical rate, which a
// rare expensive operation (a full reschedule, a costly fault batch) would
// otherwise decide; p90_ms and heavy_p50_ms report those.
func windowThroughput(ss []sample) float64 {
	ops := make(map[time.Duration]float64)
	ms := make(map[time.Duration]float64)
	for _, s := range ss {
		ops[s.at/rateWindow]++
		ms[s.at/rateWindow] += s.ms
	}
	var per []float64
	for w, n := range ops {
		per = append(per, n*1000/ms[w])
	}
	return summarize(per).P50
}

func all(sample) bool                   { return true }
func classIs(c class) func(sample) bool { return func(s sample) bool { return s.c == c } }

// endToEndValues computes every end-to-end metric with its sample count.
func (r *run) endToEndValues() (map[string]float64, map[string]int) {
	ss := r.normalized(all)
	every := summarize(millis(ss))
	lt := summarize(millis(r.normalized(classIs(light))))
	hv := summarize(millis(r.normalized(classIs(heavy))))
	ops := r.throughput
	if ops == 0 {
		ops = windowThroughput(ss)
	}
	v := map[string]float64{
		"setup_s":      summarize(r.setups).P50,
		"p50_ms":       every.P50,
		"p90_ms":       every.P90,
		"light_p50_ms": lt.P50,
		"heavy_p50_ms": hv.P50,
		"ops_per_s":    ops,
		"heap_live_mb": float64(r.heapLive) / 1e6,
	}
	return v, map[string]int{
		"setup_s": len(r.setups), "p50_ms": every.N, "p90_ms": every.N,
		"light_p50_ms": lt.N, "heavy_p50_ms": hv.N, "ops_per_s": every.N, "heap_live_mb": 1,
	}
}

// perLayerValues computes every per-layer metric from the trace.
func (r *run) perLayerValues() map[string]float64 {
	v := make(map[string]float64)
	agg := map[string]*layerStat{}
	if r.rec != nil {
		agg = r.rec.aggregate()
	}
	for _, s := range setupSpans {
		if st := agg[s]; st != nil {
			v[s+".self_s"] = st.self.Seconds()
		}
	}
	for _, s := range opSpans {
		st := agg[s]
		if st == nil {
			continue
		}
		sum := summarize(st.durs)
		v[s+".calls"] = float64(sum.N)
		v[s+".p50_us"] = sum.P50
		v[s+".p99_us"] = sum.P99
		v[s+".self_s"] = st.self.Seconds()
	}
	for name, c := range r.counts {
		v[name] = c
	}
	if r.attempted > 0 {
		v["alloc_kb_per_op"] = float64(r.allocs) / 1024 / float64(r.attempted)
	}
	traced := summarize(millis(r.normalized(func(s sample) bool { return s.traced })))
	untraced := summarize(millis(r.normalized(func(s sample) bool { return !s.traced })))
	if t, u := traced, untraced; r.rec != nil && t.N > 0 && u.N > 0 {
		v["trace.overhead_pct"] = (t.P50/u.P50 - 1) * 100
	}
	if op := agg["op"]; op != nil {
		if total := summarize(op.durs).Sum; total > 0 {
			v["trace.coverage_pct"] = 100 * (1 - op.self.Seconds()*1e6/total)
		}
	}
	return v
}
