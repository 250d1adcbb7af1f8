// Package experiment regenerates every figure of the paper's evaluation
// (Sec. VII) as a text table: schedulable-ratio sweeps (Figs. 1–3),
// channel-reuse efficiency distributions (Figs. 4–5), scheduler execution
// time (Fig. 6), topology summaries (Fig. 7), packet-delivery-ratio box
// plots from the network simulator (Figs. 8–9), and the reliability-
// degradation detection study (Figs. 10–11).
//
// Figures lists every runner with the testbed it runs on. Each runner is
// deterministic for a fixed Options value; the number of random flow sets
// per data point is configurable so benchmarks can run scaled-down versions
// of the same code paths the CLI runs at full scale.
package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/obs"
	"wsan/internal/routing"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// RhoT is the minimum channel-reuse hop distance used throughout the
// evaluation (Sec. VII: "we set the minimum channel reuse distance ρ_t for
// RC to 2", and RA uses the same for fairness).
const RhoT = 2

// PRRThreshold is PRR_t, the link-selection and reliability threshold.
const PRRThreshold = 0.9

// Figure is one entry of the figure registry: a runner and the testbed it
// runs on ("indriya" or "wustl").
type Figure struct {
	Name    string
	Testbed string
	Run     func(*Env, Options) ([]*Table, error)
}

// Figures is the registry of every figure the CLI runs: the paper's figures
// (fig*) and the extension studies (ext-*), in CLI order.
var Figures = []Figure{
	{"fig1", "indriya", Fig1},
	{"fig2", "indriya", Fig2},
	{"fig3", "wustl", Fig3},
	{"fig4", "indriya", Fig4},
	{"fig5", "indriya", Fig5},
	{"fig6", "indriya", Fig6},
	{"fig7", "wustl", Fig7},
	{"fig8", "wustl", Fig8},
	{"fig9", "wustl", Fig9},
	{"fig10", "wustl", Fig10},
	{"fig11", "wustl", Fig11},
	{"ext-latency", "wustl", ExtLatency},
	{"ext-rho", "wustl", ExtRhoSweep},
	{"ext-priority", "wustl", ExtPriority},
	{"ext-fixedrho", "wustl", ExtFixedRho},
	{"ext-repair", "wustl", ExtRepair},
	{"ext-seeds", "indriya", ExtSeeds},
	{"ext-phases", "wustl", ExtPhases},
	{"ext-detector", "wustl", ExtDetector},
	{"ext-manage", "wustl", ExtManage},
	{"ext-diversity", "indriya", ExtDiversity},
	{"ext-bursty", "wustl", ExtBursty},
	{"ext-balance", "indriya", ExtBalance},
	{"ext-reliability", "wustl", ExtReliability},
}

// Options controls experiment scale and seeding.
type Options struct {
	// Trials is the number of random flow sets per data point (paper: 100).
	Trials int
	// Seed derives workload seeds.
	Seed int64
	// Workers bounds the number of trials evaluated concurrently; 0 means
	// GOMAXPROCS. Every trial derives its randomness from its own seed, so
	// results are identical at any parallelism. Timing experiments (Fig. 6)
	// always run serially.
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachTrial runs fn for every trial index, fanning out across
// opt.workers() goroutines. fn must synchronize its own result collection;
// the first error cancels nothing but is reported after all workers drain
// (trials are short). Aggregation must be order-independent for
// deterministic results.
func forEachTrial(opt Options, fn func(trial int) error) error {
	return forEachIndex(opt.workers(), opt.Trials, fn)
}

// forEachIndex fans fn out over [0, n) across at most workers goroutines via
// atomic work stealing. It collects nothing itself: callers that need
// ordered results write into index-addressed slots, which keeps output
// deterministic regardless of completion order. The first error is reported
// after all workers drain.
func forEachIndex(workers, n int, fn func(i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Env caches a testbed and its per-channel-count derived graphs. It is safe
// for concurrent use by parallel trials.
type Env struct {
	TB *topology.Testbed

	// Metrics, when non-nil, is attached to every scheduler, simulator, and
	// management run the experiments perform. Set it before running figures;
	// the sink must be safe for concurrent use (parallel trials flush into
	// it), which the obs.Registry is.
	Metrics obs.Sink

	mu   sync.Mutex
	byCh map[int]*ChanEnv

	// schedPool recycles scratch schedule grids across trials (see
	// countSchedulable): grid construction dominated the sweep loops'
	// allocation profile, and one warm scratch per worker eliminates it.
	schedPool sync.Pool
}

// ChanEnv bundles everything derived from a (testbed, channel count) pair.
type ChanEnv struct {
	Channels []int
	Gc       *graph.Graph
	Gr       *graph.Graph
	Hop      *graph.HopMatrix
	APs      []int
}

// NewEnv wraps a testbed.
func NewEnv(tb *topology.Testbed) *Env {
	return &Env{TB: tb, byCh: make(map[int]*ChanEnv)}
}

// NewIndriyaEnv and NewWUSTLEnv build the two evaluation testbeds.
func NewIndriyaEnv(seed int64) (*Env, error) {
	tb, err := topology.Indriya(seed)
	if err != nil {
		return nil, err
	}
	return NewEnv(tb), nil
}

// NewWUSTLEnv builds the WUSTL-like testbed environment.
func NewWUSTLEnv(seed int64) (*Env, error) {
	tb, err := topology.WUSTL(seed)
	if err != nil {
		return nil, err
	}
	return NewEnv(tb), nil
}

// ForChannels returns (building on first use) the graphs for the first n
// channels.
func (e *Env) ForChannels(n int) (*ChanEnv, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ce, ok := e.byCh[n]; ok {
		return ce, nil
	}
	chs := topology.Channels(n)
	gc, err := e.TB.CommGraph(chs, PRRThreshold)
	if err != nil {
		return nil, fmt.Errorf("comm graph: %w", err)
	}
	gr, err := e.TB.ReuseGraph(chs)
	if err != nil {
		return nil, fmt.Errorf("reuse graph: %w", err)
	}
	ce := &ChanEnv{
		Channels: chs,
		Gc:       gc,
		Gr:       gr,
		Hop:      gr.AllPairsHop(),
		APs:      topology.AccessPoints(gc, 2),
	}
	e.byCh[n] = ce
	return ce, nil
}

// TrialSpec pins down one random workload instance.
type TrialSpec struct {
	Traffic   routing.Traffic
	Channels  int
	Flows     int
	PeriodExp [2]int // P = [2^a, 2^b] seconds
	Seed      int64
	// BalanceAPs spreads centralized endpoints over equidistant access
	// points (routing.Config.BalanceAPs).
	BalanceAPs bool
	// StaggerPhases draws random release offsets (flow.GenConfig).
	StaggerPhases bool
	// RateMonotonic renumbers priorities by period after routing
	// (flow.AssignRM) instead of keeping deadline-monotonic order.
	RateMonotonic bool
}

// GenerateFlows draws the trial's flow set and assigns routes.
func (e *Env) GenerateFlows(spec TrialSpec) ([]*flow.Flow, *ChanEnv, error) {
	ce, err := e.ForChannels(spec.Channels)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	fs, err := flow.Generate(rng, ce.Gc, flow.GenConfig{
		NumFlows:      spec.Flows,
		MinPeriodExp:  spec.PeriodExp[0],
		MaxPeriodExp:  spec.PeriodExp[1],
		Exclude:       ce.APs,
		StaggerPhases: spec.StaggerPhases,
	})
	if err != nil {
		return nil, nil, err
	}
	rcfg := routing.Config{Traffic: spec.Traffic, APs: ce.APs, BalanceAPs: spec.BalanceAPs}
	if err := routing.Assign(fs, ce.Gc, rcfg); err != nil {
		return nil, nil, err
	}
	if spec.RateMonotonic {
		flow.AssignRM(fs)
	}
	return fs, ce, nil
}

// RunTrial schedules one workload under each requested algorithm, cloning
// the flow set so runs are independent.
func (e *Env) RunTrial(spec TrialSpec, algs []scheduler.Algorithm) (map[scheduler.Algorithm]*scheduler.Result, []*flow.Flow, error) {
	fs, ce, err := e.GenerateFlows(spec)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[scheduler.Algorithm]*scheduler.Result, len(algs))
	for _, alg := range algs {
		res, err := scheduler.Run(CloneFlows(fs), scheduler.Config{
			Algorithm:   alg,
			NumChannels: spec.Channels,
			RhoT:        RhoT,
			HopGR:       ce.Hop,
			Retransmit:  true,
			Metrics:     e.Metrics,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%v: %w", alg, err)
		}
		out[alg] = res
	}
	return out, fs, nil
}

// CloneFlows deep-copies a flow set (routes included) so that priority
// renumbering or scheduling cannot alias across runs.
func CloneFlows(fs []*flow.Flow) []*flow.Flow {
	out := make([]*flow.Flow, len(fs))
	for i, f := range fs {
		out[i] = f.Clone()
	}
	return out
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Note carries caveats (e.g. skipped flow sets).
	Note string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

func pct(x float64) string   { return fmt.Sprintf("%.0f%%", x*100) }
func f3(x float64) string    { return fmt.Sprintf("%.3f", x) }
func itoa(x int) string      { return fmt.Sprintf("%d", x) }
func ratio(ok, n int) string { return pct(float64(ok) / float64(n)) }
