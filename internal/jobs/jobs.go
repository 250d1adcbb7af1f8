// Package jobs is the network manager's job pipeline, shared by the daemon
// (internal/server) and the wsansim CLI. Each job kind maps to one
// expensive pipeline operation and is defined by its parameter document:
// the document's canonical encoding is the daemon's cache-key material,
// and its run method is the operation.
//
//   - schedule generates a workload and schedules it (NR/RA/RC) —
//     `wsansim gen-schedule`;
//   - simulate executes a schedule bundle on the TSCH simulator — `wsansim
//     simulate`;
//   - converge runs the sequential-stopping simulation until every flow's
//     PDR estimate reaches the target precision (daemon only);
//   - manage runs observe→classify→repair iterations over a schedule
//     bundle — `wsansim manage`;
//   - reschedule applies one incremental flow-delta (add, remove, or
//     reroute) through the delta scheduler — `wsansim reschedule`.
//
// A kind runs against an Env: the network, a bundle lookup, a metrics sink
// and optional progress hooks. The daemon builds it from a hosted network
// and its artifact store; the CLI builds it from an artifact directory. The
// CLI subcommands are adapters: flags → parameter document → run → write
// every returned part into the directory.
package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wsan"
	"wsan/internal/obs"
	"wsan/internal/scheduler"
	"wsan/wsanclient"
)

// Network is one operating network plus the exact survey JSON its
// artifacts embed. It is every job's only topology: jobs run on
// Net.Testbed(), which is decoded from Survey.
type Network struct {
	// Net is the derived operating network. wsan.Network and its Testbed are
	// immutable after construction and safe for concurrent use, so every job
	// on the network shares them.
	Net *wsan.Network
	// Survey is the canonical testbed JSON (the survey.json part).
	Survey []byte
}

// Network defaults, shared by the daemon's create request and the CLI's
// -channels and -toposeed flags.
const (
	DefaultChannels = 4
	DefaultTopoSeed = 1
)

// NewNetwork builds a network from a preset testbed (Preset and TopoSeed)
// or an uploaded survey document (Testbed), operating on Channels channels
// (default DefaultChannels). PRRThreshold and AccessPoints override the
// network options when set; Name is ignored.
func NewNetwork(req wsanclient.CreateNetworkRequest) (*Network, error) {
	if req.Channels == 0 {
		req.Channels = DefaultChannels
	}
	if req.Channels < 1 || req.Channels > wsan.NumChannels {
		return nil, fmt.Errorf("channels must be in [1, %d]", wsan.NumChannels)
	}
	var tb *wsan.Testbed
	var err error
	switch {
	case req.Preset != "" && len(req.Testbed) > 0:
		return nil, fmt.Errorf("preset and testbed are mutually exclusive")
	case req.Preset != "":
		generate, ok := wsan.TestbedPreset(req.Preset)
		if !ok {
			return nil, fmt.Errorf("unknown preset %q (want indriya or wustl)", req.Preset)
		}
		seed := req.TopoSeed
		if seed == 0 {
			seed = DefaultTopoSeed
		}
		tb, err = generate(seed)
	case len(req.Testbed) > 0:
		tb, err = wsan.LoadTestbed(bytes.NewReader(req.Testbed))
	default:
		return nil, fmt.Errorf("either preset or testbed is required")
	}
	if err != nil {
		return nil, err
	}
	// Canonical survey bytes: re-encode the testbed so uploaded and
	// generated topologies address artifacts identically. The network runs
	// on the testbed those bytes decode to, the one every artifact's
	// survey.json describes: a generated testbed also holds gains of links
	// the survey format does not record.
	var survey bytes.Buffer
	if err := wsan.SaveTestbed(tb, &survey); err != nil {
		return nil, err
	}
	if tb, err = wsan.LoadTestbed(bytes.NewReader(survey.Bytes())); err != nil {
		return nil, err
	}
	var opts []wsan.NetworkOption
	if req.PRRThreshold != 0 {
		opts = append(opts, wsan.WithPRRThreshold(req.PRRThreshold))
	}
	if req.AccessPoints != 0 {
		opts = append(opts, wsan.WithAccessPoints(req.AccessPoints))
	}
	net, err := wsan.NewNetwork(tb, req.Channels, opts...)
	if err != nil {
		return nil, err
	}
	return &Network{Net: net, Survey: survey.Bytes()}, nil
}

// Bundle is a stored job output: its parts by name. The daemon's stored
// artifacts and Parts both satisfy it.
type Bundle interface {
	Part(name string) []byte
}

// Parts is a job's output: named JSON documents, mirroring the files the
// wsansim CLI writes.
type Parts map[string][]byte

// Part returns the named part, or nil.
func (p Parts) Part(name string) []byte { return p[name] }

// BundleParts are the parts of a schedule bundle — the output of schedule
// and reschedule jobs and the input of every kind that takes an artifact.
var BundleParts = []string{"survey.json", "workload.json", "schedule.json"}

// Env is what a job kind runs against.
type Env struct {
	*Network
	// Lookup resolves a schedule-bundle reference — the daemon's artifact
	// ID, the CLI's artifact directory — to its parts.
	Lookup func(ref string) (Bundle, error)
	// Metrics receives the run's pipeline signals (nil: none).
	Metrics obs.Sink

	// Optional hooks; nil leaves each off. OnIteration receives every
	// manage iteration, Trace a simulate run's JSONL event trace.
	OnIteration func(wsan.ManageIteration)
	Trace       io.Writer
}

// Params is one job kind's parameter document.
type Params interface {
	// canonicalize validates a freshly decoded request and applies the
	// kind's defaults (see applyDefaults), so two equivalent requests
	// marshal to identical bytes — and therefore the same artifact key.
	// Errors map to HTTP 400.
	canonicalize(env *Env) error
	// run executes a canonical document and returns the output's parts.
	run(ctx context.Context, env *Env) (Parts, error)
}

// kinds is the job-kind table: adding a kind means adding one parameter
// type and one entry here.
var kinds = map[string]func() Params{
	wsanclient.KindSchedule:   func() Params { return new(ScheduleParams) },
	wsanclient.KindSimulate:   func() Params { return new(SimulateParams) },
	wsanclient.KindConverge:   func() Params { return new(ConvergeParams) },
	wsanclient.KindManage:     func() Params { return new(ManageParams) },
	wsanclient.KindReschedule: func() Params { return new(RescheduleParams) },
}

// Defaults returns p with its zero fields set to the kind's defaults: the
// CLI reads its flag defaults from it.
func Defaults[P Params](p P) P {
	applyDefaults(p)
	return p
}

// applyDefaults sets every zero field of a parameter document that carries
// a `default` tag to the tag's value. The tags are the only place a kind's
// defaults are written.
func applyDefaults(p Params) {
	v := reflect.ValueOf(p).Elem()
	for i := range v.NumField() {
		def, ok := v.Type().Field(i).Tag.Lookup("default")
		f := v.Field(i)
		if !ok || !f.IsZero() {
			continue
		}
		if f.Kind() == reflect.Pointer {
			f.Set(reflect.New(f.Type().Elem()))
			f = f.Elem()
		}
		var err error
		switch f.Kind() {
		case reflect.String:
			f.SetString(def)
		case reflect.Int, reflect.Int64:
			var n int64
			n, err = strconv.ParseInt(def, 10, 64)
			f.SetInt(n)
		case reflect.Float64:
			var x float64
			x, err = strconv.ParseFloat(def, 64)
			f.SetFloat(x)
		default:
			err = fmt.Errorf("unsupported field kind %s", f.Kind())
		}
		if err != nil {
			// The tags are constants: only a bug in this file gets here.
			panic(fmt.Sprintf("jobs: default tag of %s.%s: %v", v.Type().Name(), v.Type().Field(i).Name, err))
		}
	}
}

// Canonical validates and canonicalizes a raw parameter document for one
// job kind: decode (unknown fields rejected), apply the kind's defaults,
// and re-marshal with the document's fixed field order.
func Canonical(env *Env, kind string, raw json.RawMessage) ([]byte, error) {
	p, err := newParams(kind)
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		raw = json.RawMessage("{}")
	}
	d := json.NewDecoder(bytes.NewReader(raw))
	d.DisallowUnknownFields()
	if err := d.Decode(p); err != nil {
		return nil, err
	}
	if err := p.canonicalize(env); err != nil {
		return nil, err
	}
	return json.Marshal(p)
}

// newParams makes an empty parameter document of one kind to decode into.
func newParams(kind string) (Params, error) {
	newParams, ok := kinds[kind]
	if !ok {
		names := make([]string, 0, len(kinds))
		for name := range kinds {
			names = append(names, name)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown job kind %q (want %s, or %s)",
			kind, strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
	}
	return newParams(), nil
}

// Run executes a canonical parameter document of one kind.
func Run(ctx context.Context, env *Env, kind string, canonical []byte) (Parts, error) {
	p, err := newParams(kind)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(canonical, p); err != nil {
		return nil, err
	}
	return p.run(ctx, env)
}

// Exec canonicalizes a parameter document in place and runs it.
func Exec(ctx context.Context, env *Env, p Params) (Parts, error) {
	if err := p.canonicalize(env); err != nil {
		return nil, err
	}
	return p.run(ctx, env)
}

// DefaultSigmaDB is the fading / survey-drift σ (dB) of simulate and
// manage runs that name none.
const DefaultSigmaDB = 2.5

// bundle looks a referenced bundle up and verifies that it carries the
// parts a downstream job consumes.
func (e *Env) bundle(ref string) (Bundle, error) {
	if ref == "" {
		return nil, fmt.Errorf("artifact is required")
	}
	b, err := e.Lookup(ref)
	if err != nil {
		return nil, err
	}
	for _, part := range BundleParts {
		if b.Part(part) == nil {
			return nil, fmt.Errorf("artifact %q has no %s part", ref, part)
		}
	}
	return b, nil
}

// LoadBundle decodes the workload and schedule of a schedule bundle into
// fresh instances, so concurrent jobs over one bundle never share mutable
// state. The bundle's survey.json is matched, not decoded: it must equal
// the network's canonical survey byte for byte, since every job runs on the
// network's own testbed. An artifact built on another network's survey
// fails here.
func (e *Env) LoadBundle(ref string) ([]*wsan.Flow, *wsan.ScheduleResult, error) {
	b, err := e.bundle(ref)
	if err != nil {
		return nil, nil, err
	}
	if !bytes.Equal(b.Part("survey.json"), e.Survey) {
		return nil, nil, fmt.Errorf("artifact %q built on a different survey than this network's", ref)
	}
	flows, err := wsan.LoadWorkload(bytes.NewReader(b.Part("workload.json")))
	if err != nil {
		return nil, nil, fmt.Errorf("artifact %q: %w", ref, err)
	}
	sched, err := wsan.LoadSchedule(bytes.NewReader(b.Part("schedule.json")))
	if err != nil {
		return nil, nil, fmt.Errorf("artifact %q: %w", ref, err)
	}
	return flows, sched, nil
}

// simConfig loads a bundle into a simulator configuration on the network's
// testbed and channels, with fading and survey drift σ as given or
// DefaultSigmaDB.
func (e *Env) simConfig(ref string, seed int64, fading, drift *float64) (wsan.SimConfig, error) {
	flows, sched, err := e.LoadBundle(ref)
	if err != nil {
		return wsan.SimConfig{}, err
	}
	cfg := wsan.SimConfig{
		Testbed:            e.Net.Testbed(),
		Flows:              flows,
		Schedule:           sched.Schedule,
		Channels:           e.Net.Channels(),
		FadingSigmaDB:      DefaultSigmaDB,
		SurveyDriftSigmaDB: DefaultSigmaDB,
		Metrics:            e.Metrics,
		Seed:               seed,
	}
	if fading != nil {
		cfg.FadingSigmaDB = *fading
	}
	if drift != nil {
		cfg.SurveyDriftSigmaDB = *drift
	}
	return cfg, nil
}

// encodeParts builds a job's output parts: a []byte is taken as is, a
// func(io.Writer) error writes the part, and anything else is marshalled
// as JSON.
func encodeParts(docs map[string]any) (Parts, error) {
	parts := make(Parts, len(docs))
	for name, doc := range docs {
		var err error
		switch d := doc.(type) {
		case []byte:
			parts[name] = d
		case func(io.Writer) error:
			var b bytes.Buffer
			err = d(&b)
			parts[name] = b.Bytes()
		default:
			parts[name], err = json.Marshal(d)
		}
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// ScheduleParams is the canonical schedule parameter document.
type ScheduleParams struct {
	Flows        int `json:"flows" default:"30"`
	MinPeriodExp int `json:"minPeriodExp"`
	// MaxPeriodExp is a pointer so an explicit 0 (every period 2^0 s) is
	// distinguishable from the default.
	MaxPeriodExp      *int   `json:"maxPeriodExp" default:"2"`
	Traffic           string `json:"traffic" default:"p2p"`
	Alg               string `json:"alg" default:"rc"`
	Seed              int64  `json:"seed" default:"1"`
	RhoT              int    `json:"rhoT" default:"2"`
	DisableRetransmit bool   `json:"disableRetransmit,omitempty"`
	// TargetPDR, when positive, sets a per-flow delivery-probability target
	// and plans per-hop retransmission budgets from the survey PRRs before
	// scheduling.
	TargetPDR float64 `json:"targetPDR,omitempty"`
}

func (p *ScheduleParams) canonicalize(*Env) error {
	applyDefaults(p)
	if p.Flows < 1 {
		return fmt.Errorf("flows must be positive")
	}
	if *p.MaxPeriodExp < p.MinPeriodExp {
		return fmt.Errorf("maxPeriodExp %d < minPeriodExp %d", *p.MaxPeriodExp, p.MinPeriodExp)
	}
	if _, err := wsan.ParseTraffic(p.Traffic); err != nil {
		return err
	}
	if _, err := wsan.ParseAlgorithm(p.Alg); err != nil {
		return err
	}
	if p.TargetPDR < 0 || p.TargetPDR >= 1 {
		return fmt.Errorf("targetPDR must be in [0, 1)")
	}
	return nil
}

// run generates and schedules a workload, producing a schedule bundle plus
// summary.json.
func (p *ScheduleParams) run(ctx context.Context, env *Env) (Parts, error) {
	traffic, err := wsan.ParseTraffic(p.Traffic)
	if err != nil {
		return nil, err
	}
	alg, err := wsan.ParseAlgorithm(p.Alg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	flows, err := env.Net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows:     p.Flows,
		MinPeriodExp: p.MinPeriodExp,
		MaxPeriodExp: *p.MaxPeriodExp,
		Traffic:      traffic,
		Seed:         p.Seed,
	})
	if err != nil {
		return nil, err
	}
	var budgetSlots, budgetInfeasible int
	if p.TargetPDR > 0 {
		assigns, err := env.Net.ApplyReliabilityTargets(flows, p.TargetPDR, 0, env.Metrics)
		if err != nil {
			return nil, err
		}
		for _, a := range assigns {
			budgetSlots += a.Plan.TotalSlots
			if !a.Plan.Feasible {
				budgetInfeasible++
			}
		}
	}
	res, err := env.Net.Schedule(flows, alg, wsan.ScheduleConfig{
		RhoT:              p.RhoT,
		DisableRetransmit: p.DisableRetransmit,
		Metrics:           env.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if !res.Schedulable {
		return nil, fmt.Errorf("workload not schedulable under %v (flow %d missed its deadline)",
			alg, res.FailedFlow)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	summary := map[string]any{
		"algorithm":     p.Alg,
		"flows":         len(flows),
		"transmissions": res.Schedule.Len(),
		"slots":         res.Schedule.NumSlots(),
		"channels":      len(env.Net.Channels()),
		"lambdaR":       res.LambdaR,
	}
	if p.TargetPDR > 0 {
		summary["targetPDR"] = p.TargetPDR
		summary["budgetSlots"] = budgetSlots
		summary["budgetInfeasible"] = budgetInfeasible
	}
	return encodeParts(map[string]any{
		"survey.json":   env.Survey,
		"workload.json": func(w io.Writer) error { return wsan.SaveWorkload(flows, w) },
		"schedule.json": func(w io.Writer) error { return wsan.SaveSchedule(res, w) },
		"summary.json":  summary,
	})
}

// FlowReport is the per-flow entry of a simulation report.
type FlowReport struct {
	Flow      int     `json:"flow"`
	Released  int     `json:"released"`
	Delivered int     `json:"delivered"`
	PDR       float64 `json:"pdr"`
}

// SimReport summarizes one simulation run: report.json of the simulate and
// converge kinds.
type SimReport struct {
	Flows        int          `json:"flows"`
	Hyperperiods int          `json:"hyperperiods"`
	PDRSummary   wsan.FiveNum `json:"pdrSummary"`
	PerFlow      []FlowReport `json:"perFlow"`
	// FaultEvents counts the fault-scenario events applied during the run.
	FaultEvents int64   `json:"faultEvents,omitempty"`
	Converged   *bool   `json:"converged,omitempty"`
	Chunks      int     `json:"chunks,omitempty"`
	HalfWidth   float64 `json:"halfWidth,omitempty"`
}

// buildReport assembles the report from a simulation result.
func buildReport(res *wsan.SimResult, flows []*wsan.Flow, hyperperiods int) (*SimReport, error) {
	fn, err := wsan.Summary(res.PDRs())
	if err != nil {
		return nil, err
	}
	rep := &SimReport{
		Flows:        len(flows),
		Hyperperiods: hyperperiods,
		PDRSummary:   fn,
		FaultEvents:  res.FaultEvents.Total(),
	}
	for _, f := range flows {
		rep.PerFlow = append(rep.PerFlow, FlowReport{
			Flow:      f.ID,
			Released:  res.Released[f.ID],
			Delivered: res.Delivered[f.ID],
			PDR:       res.PDR(f.ID),
		})
	}
	return rep, nil
}

// SimulateParams is the canonical simulate parameter document. Artifact
// references the schedule bundle to execute.
type SimulateParams struct {
	Artifact     string              `json:"artifact"`
	Hyperperiods int                 `json:"hyperperiods" default:"100"`
	Seed         int64               `json:"seed" default:"1"`
	Fading       *float64            `json:"fading,omitempty"`
	Drift        *float64            `json:"drift,omitempty"`
	Faults       *wsan.FaultScenario `json:"faults,omitempty"`
}

func (p *SimulateParams) canonicalize(env *Env) error {
	if _, err := env.bundle(p.Artifact); err != nil {
		return err
	}
	applyDefaults(p)
	if p.Hyperperiods < 1 {
		return fmt.Errorf("hyperperiods must be positive")
	}
	if err := checkSigmas(p.Fading, p.Drift); err != nil {
		return err
	}
	return p.Faults.Validate(0)
}

// checkSigmas rejects a negative or non-finite fading or drift σ. The
// simulator turns either off unless it is above zero, so a negative σ would
// run something other than the request names.
func checkSigmas(fading, drift *float64) error {
	for _, s := range [...]struct {
		name string
		v    *float64
	}{{"fading", fading}, {"drift", drift}} {
		if s.v != nil && !(*s.v >= 0 && *s.v <= math.MaxFloat64) {
			return fmt.Errorf("%s %v must be a finite, non-negative σ (dB)", s.name, *s.v)
		}
	}
	return nil
}

// run executes a schedule bundle on the TSCH simulator.
func (p *SimulateParams) run(ctx context.Context, env *Env) (Parts, error) {
	cfg, err := env.simConfig(p.Artifact, p.Seed, p.Fading, p.Drift)
	if err != nil {
		return nil, err
	}
	cfg.Hyperperiods, cfg.Faults, cfg.Trace = p.Hyperperiods, p.Faults, env.Trace
	res, err := wsan.SimulateCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	rep, err := buildReport(res, cfg.Flows, p.Hyperperiods)
	if err != nil {
		return nil, err
	}
	return encodeParts(map[string]any{"report.json": rep})
}

// ConvergeParams is the canonical converge parameter document.
type ConvergeParams struct {
	Artifact          string   `json:"artifact"`
	Seed              int64    `json:"seed" default:"1"`
	Fading            *float64 `json:"fading,omitempty"`
	Drift             *float64 `json:"drift,omitempty"`
	ChunkHyperperiods int      `json:"chunkHyperperiods" default:"20"`
	MaxChunks         int      `json:"maxChunks" default:"50"`
	HalfWidth         float64  `json:"halfWidth" default:"0.01"`
}

func (p *ConvergeParams) canonicalize(env *Env) error {
	if _, err := env.bundle(p.Artifact); err != nil {
		return err
	}
	// The simulator would silently replace a negative value with its own
	// default, so the request would run something other than it names.
	if p.ChunkHyperperiods < 0 || p.MaxChunks < 0 || p.HalfWidth < 0 {
		return fmt.Errorf("chunkHyperperiods, maxChunks, and halfWidth must be non-negative")
	}
	applyDefaults(p)
	return checkSigmas(p.Fading, p.Drift)
}

// run runs the sequential-stopping simulation over a bundle.
func (p *ConvergeParams) run(ctx context.Context, env *Env) (Parts, error) {
	cfg, err := env.simConfig(p.Artifact, p.Seed, p.Fading, p.Drift)
	if err != nil {
		return nil, err
	}
	cres, err := wsan.SimulateConvergedCtx(ctx, cfg, wsan.ConvergeOpts{
		ChunkHyperperiods: p.ChunkHyperperiods,
		MaxChunks:         p.MaxChunks,
		HalfWidth:         p.HalfWidth,
	})
	if err != nil {
		return nil, err
	}
	rep, err := buildReport(cres.Result, cfg.Flows, cres.Chunks*p.ChunkHyperperiods)
	if err != nil {
		return nil, err
	}
	rep.Converged = &cres.Converged
	rep.Chunks = cres.Chunks
	rep.HalfWidth = cres.WorstHalfWidth
	return encodeParts(map[string]any{"report.json": rep})
}

// manageSampleWindows is how many detection sample windows a manage epoch
// is cut into.
const manageSampleWindows = 18

// ManageParams is the canonical manage parameter document.
type ManageParams struct {
	Artifact      string              `json:"artifact"`
	MaxIterations int                 `json:"maxIterations" default:"3"`
	EpochSlots    int                 `json:"epochSlots" default:"90000"`
	Seed          int64               `json:"seed" default:"1"`
	Faults        *wsan.FaultScenario `json:"faults,omitempty"`
	// TargetPDR, when positive, overrides every flow's delivery-probability
	// target so the loop re-budgets retransmissions at runtime. Zero keeps
	// whatever targets the workload already carries.
	TargetPDR float64 `json:"targetPDR,omitempty"`
	// ParoleCleanIterations, when positive, rehabilitates blacklisted
	// channels after that many consecutive clean iterations.
	ParoleCleanIterations int `json:"paroleCleanIterations,omitempty"`
}

func (p *ManageParams) canonicalize(env *Env) error {
	if _, err := env.bundle(p.Artifact); err != nil {
		return err
	}
	if p.MaxIterations < 0 {
		// The loop would silently run its own default instead.
		return fmt.Errorf("maxIterations must be non-negative")
	}
	applyDefaults(p)
	if p.EpochSlots < manageSampleWindows {
		return fmt.Errorf("epochSlots must be at least %d (one slot per sample window)", manageSampleWindows)
	}
	if p.TargetPDR < 0 || p.TargetPDR >= 1 {
		return fmt.Errorf("targetPDR must be in [0, 1)")
	}
	if p.ParoleCleanIterations < 0 {
		return fmt.Errorf("paroleCleanIterations must be non-negative")
	}
	return p.Faults.Validate(0)
}

// run runs management iterations over a bundle, producing the iteration
// log, the repaired schedule, and the workload (the loop may have
// re-budgeted retransmissions). Each completed iteration also goes to
// env.OnIteration.
func (p *ManageParams) run(ctx context.Context, env *Env) (Parts, error) {
	sim, err := env.simConfig(p.Artifact, p.Seed, nil, nil)
	if err != nil {
		return nil, err
	}
	sim.EpochSlots = p.EpochSlots
	sim.SampleWindowSlots = p.EpochSlots / manageSampleWindows
	sim.ProbeEverySlots = 250
	sim.Faults = p.Faults
	if p.TargetPDR > 0 {
		for _, f := range sim.Flows {
			f.TargetPDR = p.TargetPDR
		}
	}
	iters, err := wsan.ManageCtx(ctx, wsan.ManageConfig{
		Sim:           sim,
		MaxIterations: p.MaxIterations,
		OnIteration:   env.OnIteration,
		LinkPRR:       env.Net.LinkPRR,

		BlacklistParoleCleanIterations: p.ParoleCleanIterations,
	})
	if err != nil {
		return nil, err
	}
	// The loop may have re-budgeted retransmissions (TxBudget) on the flows;
	// persist the workload so the budgets survive alongside the schedule.
	return encodeParts(map[string]any{
		"iterations.json": iters,
		"schedule.json":   sim.Schedule.Encode,
		"workload.json":   func(w io.Writer) error { return wsan.SaveWorkload(sim.Flows, w) },
	})
}

// RescheduleParams is the canonical reschedule parameter document.
// Artifact references the schedule bundle the delta applies to; Op selects
// the operation ("add", "remove", or "reroute"). Flow is the target flow ID
// for every op — for "add" it is the NEW flow's ID and must not collide
// with an existing flow. Src/Dst/Period/Deadline/Phase describe the added
// flow (slots; Deadline defaults to Period); Avoid lists nodes a reroute
// detours around.
type RescheduleParams struct {
	Artifact string `json:"artifact"`
	Op       string `json:"op"`
	Flow     int    `json:"flow"`
	Src      int    `json:"src,omitempty"`
	Dst      int    `json:"dst,omitempty"`
	Period   int    `json:"period,omitempty"`
	Deadline int    `json:"deadline,omitempty"`
	Phase    int    `json:"phase,omitempty"`
	Avoid    []int  `json:"avoid,omitempty"`
	Alg      string `json:"alg,omitempty" default:"rc"`
	RhoT     int    `json:"rhoT,omitempty" default:"2"`
}

func (p *RescheduleParams) canonicalize(env *Env) error {
	if _, err := env.bundle(p.Artifact); err != nil {
		return err
	}
	if p.Flow < 0 {
		return fmt.Errorf("flow must be non-negative")
	}
	applyDefaults(p)
	if _, err := wsan.ParseAlgorithm(p.Alg); err != nil {
		return err
	}
	switch p.Op {
	case "add":
		if p.Deadline == 0 {
			p.Deadline = p.Period
		}
		if n := len(env.Net.Testbed().Nodes); p.Src < 0 || p.Dst < 0 || p.Src >= n || p.Dst >= n {
			return fmt.Errorf("add requires src and dst among the network's nodes 0..%d", n-1)
		}
		if err := p.addedFlow().Validate(); err != nil {
			return err
		}
		if len(p.Avoid) != 0 {
			return fmt.Errorf("avoid applies only to op reroute")
		}
	case "remove", "reroute":
		if p.Src != 0 || p.Dst != 0 || p.Period != 0 || p.Deadline != 0 || p.Phase != 0 {
			return fmt.Errorf("src/dst/period/deadline/phase apply only to op add")
		}
		if p.Op == "remove" && len(p.Avoid) != 0 {
			return fmt.Errorf("avoid applies only to op reroute")
		}
		// Canonicalize the avoid set so equivalent requests share one
		// artifact key.
		if len(p.Avoid) > 0 {
			sort.Ints(p.Avoid)
			p.Avoid = slices.Compact(p.Avoid)
		}
	default:
		return fmt.Errorf("unknown op %q (want add, remove, or reroute)", p.Op)
	}
	return nil
}

// addedFlow is the flow an add op admits, before it is routed.
func (p *RescheduleParams) addedFlow() *wsan.Flow {
	return &wsan.Flow{ID: p.Flow, Src: p.Src, Dst: p.Dst,
		Period: p.Period, Deadline: p.Deadline, Phase: p.Phase}
}

// run applies one incremental flow-delta to a schedule bundle through the
// delta scheduler and emits an updated bundle: the same
// survey/workload/schedule triple a schedule job produces (so every
// downstream job kind accepts the result), plus delta.json recording the
// net schedule changes and which repair rung produced them, and
// summary.json.
func (p *RescheduleParams) run(ctx context.Context, env *Env) (Parts, error) {
	alg, err := wsan.ParseAlgorithm(p.Alg)
	if err != nil {
		return nil, err
	}
	flows, sched, err := env.LoadBundle(p.Artifact)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := wsan.ScheduleConfig{RhoT: p.RhoT, Metrics: env.Metrics}
	// A placed flow keeps the retry depth the bundle gives unbudgeted flows.
	if p.Op != "remove" {
		cfg.DisableRetransmit = scheduler.RetryDepth(sched.Schedule, flows) == 1
	}
	op := wsan.DeltaOp{FlowID: p.Flow}
	switch p.Op {
	case "add":
		op.Kind, op.Flow = wsan.DeltaAdd, p.addedFlow()
		op.Flow.Route, err = env.Net.RouteAvoiding(p.Src, p.Dst, nil)
	case "remove":
		op.Kind = wsan.DeltaRemove
	case "reroute":
		i := slices.IndexFunc(flows, func(f *wsan.Flow) bool { return f.ID == p.Flow })
		if i < 0 {
			return nil, fmt.Errorf("flow %d not in artifact %q", p.Flow, p.Artifact)
		}
		op.Kind = wsan.DeltaReroute
		op.Route, err = env.Net.RouteAvoiding(flows[i].Src, flows[i].Dst, p.Avoid)
	default:
		return nil, fmt.Errorf("unknown op %q", p.Op)
	}
	if err != nil {
		return nil, err
	}
	res, err := env.Net.ApplyDelta(sched, flows, []wsan.DeltaOp{op}, alg, cfg)
	if err != nil {
		return nil, err
	}
	if !res.Schedulable {
		return nil, fmt.Errorf("delta %s of flow %d not schedulable under %v (flow %d missed its deadline)",
			p.Op, p.Flow, alg, res.FailedFlow)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return encodeParts(map[string]any{
		"survey.json":   env.Survey,
		"workload.json": func(w io.Writer) error { return wsan.SaveWorkload(res.Flows, w) },
		"schedule.json": func(w io.Writer) error { return wsan.SaveSchedule(sched, w) },
		"delta.json": map[string]any{
			"op":           p.Op,
			"flow":         p.Flow,
			"fallback":     res.Fallback.String(),
			"evicted":      res.Evicted,
			"placementOps": res.PlacementOps,
			"removalOps":   res.RemovalOps,
			"changes":      res.Changes,
		},
		"summary.json": map[string]any{
			"op":            p.Op,
			"algorithm":     p.Alg,
			"flows":         len(res.Flows),
			"transmissions": sched.Schedule.Len(),
			"slots":         sched.Schedule.NumSlots(),
			"channels":      len(env.Net.Channels()),
			"changes":       len(res.Changes),
		},
	})
}
