package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"wsan"
	"wsan/internal/obs"
	"wsan/wsanclient"
)

// Job kinds. Each kind maps to one expensive pipeline operation and is
// defined by its parameter document below: the document's canonical
// encoding is the kind's cache-key material, and its run method is the
// operation.
//
//   - schedule generates a workload and schedules it (NR/RA/RC) — the async
//     equivalent of `wsansim gen-schedule`;
//   - simulate executes a schedule artifact on the TSCH simulator — `wsansim
//     simulate`;
//   - converge runs the sequential-stopping simulation until every flow's
//     PDR estimate reaches the target precision;
//   - manage runs observe→classify→repair iterations over a schedule
//     artifact — `wsansim manage`;
//   - reschedule applies one incremental flow-delta (add, remove, or
//     reroute) through the delta scheduler — `wsansim reschedule`;
//   - soak drives the sustained-churn soak harness over the hosted
//     network's topology — `wsansim soak`.

// jobParams is one job kind's parameter document.
type jobParams interface {
	// canonicalize validates a freshly decoded request and applies the
	// kind's defaults, so two equivalent requests marshal to identical
	// bytes — and therefore the same artifact key. Errors map to HTTP 400.
	canonicalize(s *Server, nw *netEntry) error
	// run executes a canonical document and returns the artifact's parts.
	run(ctx context.Context, s *Server, nw *netEntry, j *Job) (map[string][]byte, error)
}

// jobKind makes an empty parameter document of one kind to decode into.
type jobKind func() jobParams

// jobKinds is the job-kind table: adding a kind means adding one parameter
// type and one entry here.
var jobKinds = map[string]jobKind{
	wsanclient.KindSchedule:   func() jobParams { return new(scheduleParams) },
	wsanclient.KindSimulate:   func() jobParams { return new(simulateParams) },
	wsanclient.KindConverge:   func() jobParams { return new(convergeParams) },
	wsanclient.KindManage:     func() jobParams { return new(manageParams) },
	wsanclient.KindReschedule: func() jobParams { return new(rescheduleParams) },
	wsanclient.KindSoak:       func() jobParams { return new(soakParams) },
}

// canonicalParams validates and canonicalizes a raw parameter document for
// one job kind: decode (unknown fields rejected), apply the kind's defaults,
// and re-marshal with the document's fixed field order.
func (s *Server) canonicalParams(nw *netEntry, kind string, raw json.RawMessage) ([]byte, error) {
	newParams, ok := jobKinds[kind]
	if !ok {
		names := make([]string, 0, len(jobKinds))
		for name := range jobKinds {
			names = append(names, name)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown job kind %q (want %s, or %s)",
			kind, strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
	}
	if len(raw) == 0 {
		raw = json.RawMessage("{}")
	}
	p := newParams()
	d := json.NewDecoder(bytes.NewReader(raw))
	d.DisallowUnknownFields()
	if err := d.Decode(p); err != nil {
		return nil, err
	}
	if err := p.canonicalize(s, nw); err != nil {
		return nil, err
	}
	return json.Marshal(p)
}

// runJob executes one dequeued job and stores its artifact under the job's
// content address. The worker pool calls it with the job's context; every
// long-running wsan operation underneath checks that context.
func (s *Server) runJob(ctx context.Context, j *Job) (string, error) {
	// Idempotency probe: a retried attempt can land after a prior attempt
	// already stored the artifact (a transient failure between the store
	// write and the worker's ack). The store is content-addressed, so an
	// existing entry for this key IS this job's output — return it rather
	// than recomputing and re-writing.
	if a, ok := s.store.Get(j.Key); ok {
		return a.ID, nil
	}
	nw, ok := s.nets.get(j.Network)
	if !ok {
		return "", fmt.Errorf("network %q was removed", j.Network)
	}
	newParams, ok := jobKinds[j.Kind]
	if !ok {
		return "", fmt.Errorf("unknown job kind %q", j.Kind)
	}
	p := newParams()
	if err := json.Unmarshal(j.Params, p); err != nil {
		return "", err
	}
	parts, err := p.run(ctx, s, nw, j)
	if err != nil {
		return "", err
	}
	if _, err := s.store.Put(j.Key, j.Kind, parts); err != nil {
		// The computation succeeded but the artifact cannot be persisted
		// (e.g. the store directory's filesystem failed): the job fails
		// rather than claiming an artifact that is not servable.
		return "", fmt.Errorf("storing artifact: %w", err)
	}
	return j.Key, nil
}

// defaultSigma is the CLI's fading / survey-drift default (dB).
const defaultSigma = 2.5

// sigma resolves an optional σ parameter against the CLI default.
func sigma(p *float64) float64 {
	if p == nil {
		return defaultSigma
	}
	return *p
}

// checkScheduleArtifact verifies that a referenced artifact exists and
// carries the parts a downstream job consumes.
func (s *Server) checkScheduleArtifact(id string) error {
	if id == "" {
		return fmt.Errorf("artifact is required")
	}
	a, ok := s.store.Get(id)
	if !ok {
		return fmt.Errorf("artifact %q not found", id)
	}
	for _, part := range []string{"survey.json", "workload.json", "schedule.json"} {
		if a.Part(part) == nil {
			return fmt.Errorf("artifact %q has no %s part", id, part)
		}
	}
	return nil
}

// loadBundle decodes the testbed, workload, and schedule of a schedule
// bundle artifact into fresh instances — each job works on its own copies,
// so concurrent jobs over one artifact never share mutable state.
func (s *Server) loadBundle(id string) (*wsan.Testbed, []*wsan.Flow, *wsan.ScheduleResult, error) {
	a, ok := s.store.Get(id)
	if !ok {
		return nil, nil, nil, fmt.Errorf("artifact %q not found", id)
	}
	tb, err := wsan.LoadTestbed(bytes.NewReader(a.Part("survey.json")))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("artifact %q: %w", id, err)
	}
	flows, err := wsan.LoadWorkload(bytes.NewReader(a.Part("workload.json")))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("artifact %q: %w", id, err)
	}
	sched, err := wsan.LoadSchedule(bytes.NewReader(a.Part("schedule.json")))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("artifact %q: %w", id, err)
	}
	return tb, flows, sched, nil
}

// jobSink builds the observability sink for one job run: the server's
// registry, plus — only while the event bus has ever had a subscriber — a
// tap forwarding faults.* counter flushes to the stream as events. The gate
// keeps the subscriber-free job path allocation-free; a consumer attaching
// mid-job picks up fault events from the next job, not this one.
func (s *Server) jobSink(j *Job) obs.Sink {
	if !s.bus.Enabled() {
		return s.mets
	}
	return obs.MultiSink(s.mets, &faultsTap{bus: s.bus, network: j.Network, job: j.ID})
}

// scheduleParams is the canonical schedule parameter document.
type scheduleParams struct {
	Flows             int    `json:"flows"`
	MinPeriodExp      int    `json:"minPeriodExp"`
	MaxPeriodExp      int    `json:"maxPeriodExp"`
	Traffic           string `json:"traffic"`
	Alg               string `json:"alg"`
	Seed              int64  `json:"seed"`
	RhoT              int    `json:"rhoT"`
	DisableRetransmit bool   `json:"disableRetransmit,omitempty"`
	// TargetPDR, when positive, sets a per-flow delivery-probability target
	// and plans per-hop retransmission budgets from the survey PRRs before
	// scheduling.
	TargetPDR float64 `json:"targetPDR,omitempty"`
}

func (p *scheduleParams) canonicalize(*Server, *netEntry) error {
	if p.Flows == 0 {
		p.Flows = 30
	}
	if p.Flows < 1 {
		return fmt.Errorf("flows must be positive")
	}
	if p.MaxPeriodExp == 0 && p.MinPeriodExp == 0 {
		p.MaxPeriodExp = 2
	}
	if p.MaxPeriodExp < p.MinPeriodExp {
		return fmt.Errorf("maxPeriodExp %d < minPeriodExp %d", p.MaxPeriodExp, p.MinPeriodExp)
	}
	if p.Traffic == "" {
		p.Traffic = "p2p"
	}
	if _, err := wsan.ParseTraffic(p.Traffic); err != nil {
		return err
	}
	if p.Alg == "" {
		p.Alg = "rc"
	}
	if _, err := wsan.ParseAlgorithm(p.Alg); err != nil {
		return err
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.RhoT == 0 {
		p.RhoT = 2
	}
	if p.TargetPDR < 0 || p.TargetPDR >= 1 {
		return fmt.Errorf("targetPDR must be in [0, 1)")
	}
	return nil
}

// run generates and schedules a workload, producing the same three JSON
// documents `wsansim gen-schedule` writes plus a summary.
func (p *scheduleParams) run(ctx context.Context, s *Server, nw *netEntry, _ *Job) (map[string][]byte, error) {
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
	flows, err := nw.Net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows:     p.Flows,
		MinPeriodExp: p.MinPeriodExp,
		MaxPeriodExp: p.MaxPeriodExp,
		Traffic:      traffic,
		Seed:         p.Seed,
	})
	if err != nil {
		return nil, err
	}
	var budgetSlots, budgetInfeasible int
	if p.TargetPDR > 0 {
		assigns, err := nw.Net.ApplyReliabilityTargets(flows, p.TargetPDR, 0, s.mets)
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
	res, err := nw.Net.Schedule(flows, alg, wsan.ScheduleConfig{
		RhoT:              p.RhoT,
		DisableRetransmit: p.DisableRetransmit,
		Metrics:           s.mets,
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
	var workload, sched bytes.Buffer
	if err := wsan.SaveWorkload(flows, &workload); err != nil {
		return nil, err
	}
	if err := wsan.SaveSchedule(res, &sched); err != nil {
		return nil, err
	}
	summaryDoc := map[string]any{
		"algorithm":     p.Alg,
		"flows":         len(flows),
		"transmissions": res.Schedule.Len(),
		"slots":         res.Schedule.NumSlots(),
		"channels":      len(nw.Channels),
		"lambdaR":       res.LambdaR,
	}
	if p.TargetPDR > 0 {
		summaryDoc["targetPDR"] = p.TargetPDR
		summaryDoc["budgetSlots"] = budgetSlots
		summaryDoc["budgetInfeasible"] = budgetInfeasible
	}
	summary, err := json.Marshal(summaryDoc)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		"survey.json":   nw.Survey,
		"workload.json": workload.Bytes(),
		"schedule.json": sched.Bytes(),
		"summary.json":  summary,
	}, nil
}

// flowReport is the per-flow entry of a simulation report.
type flowReport struct {
	Flow      int     `json:"flow"`
	Released  int     `json:"released"`
	Delivered int     `json:"delivered"`
	PDR       float64 `json:"pdr"`
}

// simReport summarizes one simulation run — the JSON form of the CLI
// simulate command's output.
type simReport struct {
	Flows        int          `json:"flows"`
	Hyperperiods int          `json:"hyperperiods"`
	PDRSummary   wsan.FiveNum `json:"pdrSummary"`
	PerFlow      []flowReport `json:"perFlow"`
	Converged    *bool        `json:"converged,omitempty"`
	Chunks       int          `json:"chunks,omitempty"`
	HalfWidth    float64      `json:"halfWidth,omitempty"`
}

// buildReport assembles the report from a simulation result.
func buildReport(res *wsan.SimResult, flows []*wsan.Flow, hyperperiods int) (*simReport, error) {
	fn, err := wsan.Summary(res.PDRs())
	if err != nil {
		return nil, err
	}
	rep := &simReport{Flows: len(flows), Hyperperiods: hyperperiods, PDRSummary: fn}
	for _, f := range flows {
		rep.PerFlow = append(rep.PerFlow, flowReport{
			Flow:      f.ID,
			Released:  res.Released[f.ID],
			Delivered: res.Delivered[f.ID],
			PDR:       res.PDR(f.ID),
		})
	}
	return rep, nil
}

// simulateParams is the canonical simulate parameter document. Artifact
// references the schedule bundle to execute.
type simulateParams struct {
	Artifact     string              `json:"artifact"`
	Hyperperiods int                 `json:"hyperperiods"`
	Seed         int64               `json:"seed"`
	Fading       *float64            `json:"fading,omitempty"`
	Drift        *float64            `json:"drift,omitempty"`
	Faults       *wsan.FaultScenario `json:"faults,omitempty"`
}

func (p *simulateParams) canonicalize(s *Server, _ *netEntry) error {
	if err := s.checkScheduleArtifact(p.Artifact); err != nil {
		return err
	}
	if p.Hyperperiods == 0 {
		p.Hyperperiods = 100
	}
	if p.Hyperperiods < 1 {
		return fmt.Errorf("hyperperiods must be positive")
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p.Faults.Validate(0)
}

// run executes a schedule bundle on the TSCH simulator.
func (p *simulateParams) run(ctx context.Context, s *Server, nw *netEntry, j *Job) (map[string][]byte, error) {
	tb, flows, sched, err := s.loadBundle(p.Artifact)
	if err != nil {
		return nil, err
	}
	res, err := wsan.SimulateCtx(ctx, wsan.SimConfig{
		Testbed:            tb,
		Flows:              flows,
		Schedule:           sched.Schedule,
		Channels:           nw.Channels,
		Hyperperiods:       p.Hyperperiods,
		FadingSigmaDB:      sigma(p.Fading),
		SurveyDriftSigmaDB: sigma(p.Drift),
		Retransmit:         true,
		Metrics:            s.jobSink(j),
		Seed:               p.Seed,
		Faults:             p.Faults,
	})
	if err != nil {
		return nil, err
	}
	rep, err := buildReport(res, flows, p.Hyperperiods)
	if err != nil {
		return nil, err
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{"report.json": out}, nil
}

// convergeParams is the canonical converge parameter document.
type convergeParams struct {
	Artifact          string   `json:"artifact"`
	Seed              int64    `json:"seed"`
	Fading            *float64 `json:"fading,omitempty"`
	Drift             *float64 `json:"drift,omitempty"`
	ChunkHyperperiods int      `json:"chunkHyperperiods"`
	MaxChunks         int      `json:"maxChunks"`
	HalfWidth         float64  `json:"halfWidth"`
}

func (p *convergeParams) canonicalize(s *Server, _ *netEntry) error {
	if err := s.checkScheduleArtifact(p.Artifact); err != nil {
		return err
	}
	// The simulator would silently replace a negative value with its own
	// default, so the request would run something other than it names.
	if p.ChunkHyperperiods < 0 || p.MaxChunks < 0 || p.HalfWidth < 0 {
		return fmt.Errorf("chunkHyperperiods, maxChunks, and halfWidth must be non-negative")
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.ChunkHyperperiods == 0 {
		p.ChunkHyperperiods = 20
	}
	if p.MaxChunks == 0 {
		p.MaxChunks = 50
	}
	if p.HalfWidth == 0 {
		p.HalfWidth = 0.01
	}
	return nil
}

// run runs the sequential-stopping simulation over a bundle.
func (p *convergeParams) run(ctx context.Context, s *Server, nw *netEntry, _ *Job) (map[string][]byte, error) {
	tb, flows, sched, err := s.loadBundle(p.Artifact)
	if err != nil {
		return nil, err
	}
	cres, err := wsan.SimulateConvergedCtx(ctx, wsan.SimConfig{
		Testbed:            tb,
		Flows:              flows,
		Schedule:           sched.Schedule,
		Channels:           nw.Channels,
		FadingSigmaDB:      sigma(p.Fading),
		SurveyDriftSigmaDB: sigma(p.Drift),
		Retransmit:         true,
		Metrics:            s.mets,
		Seed:               p.Seed,
	}, wsan.ConvergeOpts{
		ChunkHyperperiods: p.ChunkHyperperiods,
		MaxChunks:         p.MaxChunks,
		HalfWidth:         p.HalfWidth,
	})
	if err != nil {
		return nil, err
	}
	rep, err := buildReport(cres.Result, flows, cres.Chunks*p.ChunkHyperperiods)
	if err != nil {
		return nil, err
	}
	rep.Converged = &cres.Converged
	rep.Chunks = cres.Chunks
	rep.HalfWidth = cres.WorstHalfWidth
	out, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{"report.json": out}, nil
}

// manageSampleWindows is how many detection sample windows a manage epoch
// is cut into.
const manageSampleWindows = 18

// manageParams is the canonical manage parameter document.
type manageParams struct {
	Artifact      string              `json:"artifact"`
	MaxIterations int                 `json:"maxIterations"`
	EpochSlots    int                 `json:"epochSlots"`
	Seed          int64               `json:"seed"`
	Faults        *wsan.FaultScenario `json:"faults,omitempty"`
	// TargetPDR, when positive, overrides every flow's delivery-probability
	// target so the loop re-budgets retransmissions at runtime. Zero keeps
	// whatever targets the workload artifact already carries.
	TargetPDR float64 `json:"targetPDR,omitempty"`
	// ParoleCleanIterations, when positive, rehabilitates blacklisted
	// channels after that many consecutive clean iterations.
	ParoleCleanIterations int `json:"paroleCleanIterations,omitempty"`
}

func (p *manageParams) canonicalize(s *Server, _ *netEntry) error {
	if err := s.checkScheduleArtifact(p.Artifact); err != nil {
		return err
	}
	if p.MaxIterations < 0 {
		// The loop would silently run its own default instead.
		return fmt.Errorf("maxIterations must be non-negative")
	}
	if p.MaxIterations == 0 {
		p.MaxIterations = 3
	}
	if p.EpochSlots == 0 {
		p.EpochSlots = 90_000
	}
	if p.EpochSlots < manageSampleWindows {
		return fmt.Errorf("epochSlots must be at least %d (one slot per sample window)", manageSampleWindows)
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.TargetPDR < 0 || p.TargetPDR >= 1 {
		return fmt.Errorf("targetPDR must be in [0, 1)")
	}
	if p.ParoleCleanIterations < 0 {
		return fmt.Errorf("paroleCleanIterations must be non-negative")
	}
	return p.Faults.Validate(0)
}

// run runs management iterations over a bundle, producing the iteration log
// and the repaired schedule. While the event bus is enabled, each completed
// iteration is also published live as a manage.health event.
func (p *manageParams) run(ctx context.Context, s *Server, nw *netEntry, j *Job) (map[string][]byte, error) {
	tb, flows, sched, err := s.loadBundle(p.Artifact)
	if err != nil {
		return nil, err
	}
	if p.TargetPDR > 0 {
		for _, f := range flows {
			f.TargetPDR = p.TargetPDR
		}
	}
	cfg := wsan.ManageConfig{
		Testbed:            tb,
		Flows:              flows,
		Schedule:           sched.Schedule,
		Channels:           nw.Channels,
		EpochSlots:         p.EpochSlots,
		SampleWindowSlots:  p.EpochSlots / manageSampleWindows,
		ProbeEverySlots:    250,
		FadingSigmaDB:      defaultSigma,
		SurveyDriftSigmaDB: defaultSigma,
		MaxIterations:      p.MaxIterations,
		CompactAfterRepair: true,
		LinkPRR:            nw.Net.LinkPRR,
		Metrics:            s.jobSink(j),
		Seed:               p.Seed,
		Faults:             p.Faults,

		BlacklistParoleCleanIterations: p.ParoleCleanIterations,
	}
	if s.bus.Enabled() {
		network, jobID := j.Network, j.ID
		cfg.OnIteration = func(it wsan.ManageIteration) {
			s.bus.Publish(wsanclient.EventManageHealth, network, jobID, manageHealth(it))
		}
	}
	iters, err := wsan.ManageCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	iterJSON, err := json.Marshal(iters)
	if err != nil {
		return nil, err
	}
	var repaired, workload bytes.Buffer
	if err := wsan.SaveSchedule(sched, &repaired); err != nil {
		return nil, err
	}
	// The loop may have re-budgeted retransmissions (TxBudget) on the flows;
	// persist the workload so the budgets survive alongside the schedule.
	if err := wsan.SaveWorkload(flows, &workload); err != nil {
		return nil, err
	}
	return map[string][]byte{
		"iterations.json": iterJSON,
		"schedule.json":   repaired.Bytes(),
		"workload.json":   workload.Bytes(),
	}, nil
}

// manageHealth is the manage.health event payload of one loop iteration.
func manageHealth(it wsan.ManageIteration) wsanclient.ManageHealth {
	var shortfalls []wsanclient.FlowShortfall
	for _, sf := range it.Shortfalls {
		shortfalls = append(shortfalls, wsanclient.FlowShortfall{
			Flow: sf.FlowID, Target: sf.Target, Predicted: sf.Predicted,
		})
	}
	return wsanclient.ManageHealth{
		Iteration:       it.Index,
		Health:          it.Health.String(),
		MinPDR:          it.MinPDR,
		MeanPDR:         it.MeanPDR,
		DegradedLinks:   it.Degraded,
		DegradedFlows:   it.DegradedFlows,
		Moved:           it.Moved,
		Unmovable:       it.Unmovable,
		Rerouted:        it.Rerouted,
		SuspectNodes:    it.SuspectNodes,
		Blacklisted:     it.Blacklisted,
		Rehabilitated:   it.Rehabilitated,
		Channels:        it.Channels,
		DeltaChanges:    it.DeltaChanges,
		AffectedDevices: it.AffectedDevices,
		Rebudgeted:      it.Rebudgeted,
		RetriesShed:     it.RetriesShed,
		ShedFlows:       it.ShedFlows,
		Shortfalls:      shortfalls,
	}
}

// rescheduleParams is the canonical reschedule parameter document.
// Artifact references the schedule bundle the delta applies to; Op selects
// the operation ("add", "remove", or "reroute"). Flow is the target flow ID
// for every op — for "add" it is the NEW flow's ID and must not collide
// with an existing flow. Src/Dst/Period/Deadline/Phase describe the added
// flow (slots; Deadline defaults to Period); Avoid lists nodes a reroute
// detours around.
type rescheduleParams struct {
	Artifact string `json:"artifact"`
	Op       string `json:"op"`
	Flow     int    `json:"flow"`
	Src      int    `json:"src,omitempty"`
	Dst      int    `json:"dst,omitempty"`
	Period   int    `json:"period,omitempty"`
	Deadline int    `json:"deadline,omitempty"`
	Phase    int    `json:"phase,omitempty"`
	Avoid    []int  `json:"avoid,omitempty"`
	Alg      string `json:"alg,omitempty"`
	RhoT     int    `json:"rhoT,omitempty"`
}

func (p *rescheduleParams) canonicalize(s *Server, _ *netEntry) error {
	if err := s.checkScheduleArtifact(p.Artifact); err != nil {
		return err
	}
	if p.Flow < 0 {
		return fmt.Errorf("flow must be non-negative")
	}
	if p.Alg == "" {
		p.Alg = "rc"
	}
	if _, err := wsan.ParseAlgorithm(p.Alg); err != nil {
		return err
	}
	if p.RhoT == 0 {
		p.RhoT = 2
	}
	switch p.Op {
	case "add":
		if p.Period <= 0 {
			return fmt.Errorf("add requires a positive period")
		}
		if p.Deadline == 0 {
			p.Deadline = p.Period
		}
		if p.Src < 0 || p.Dst < 0 || p.Src == p.Dst {
			return fmt.Errorf("add requires distinct non-negative src and dst")
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

// run applies one incremental flow-delta to a schedule bundle through the
// delta scheduler and emits an updated bundle: the same
// survey/workload/schedule triple a schedule job produces (so every
// downstream job kind accepts the result), plus delta.json recording the
// net schedule changes and which repair rung produced them.
func (p *rescheduleParams) run(ctx context.Context, s *Server, nw *netEntry, _ *Job) (map[string][]byte, error) {
	alg, err := wsan.ParseAlgorithm(p.Alg)
	if err != nil {
		return nil, err
	}
	_, flows, sched, err := s.loadBundle(p.Artifact)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Keep the bundle's retry depth: infer whether it was scheduled with
	// retransmission slots from the placed transmissions.
	retransmit := false
	for _, tx := range sched.Schedule.Txs() {
		if tx.Attempt > 0 {
			retransmit = true
			break
		}
	}
	cfg := wsan.ScheduleConfig{RhoT: p.RhoT, DisableRetransmit: !retransmit, Metrics: s.mets}
	var res *wsan.DeltaResult
	switch p.Op {
	case "add":
		f := &wsan.Flow{
			ID: p.Flow, Src: p.Src, Dst: p.Dst,
			Period: p.Period, Deadline: p.Deadline, Phase: p.Phase,
		}
		f.Route, err = nw.Net.RouteAvoiding(p.Src, p.Dst, nil)
		if err != nil {
			return nil, err
		}
		res, err = nw.Net.AddFlowDelta(sched, flows, f, alg, cfg)
		if err == nil && res.Schedulable {
			flows = append(flows, f)
			sort.Slice(flows, func(i, j int) bool { return flows[i].ID < flows[j].ID })
		}
	case "remove":
		res, err = nw.Net.RemoveFlowDelta(sched, p.Flow, s.mets)
		if err == nil {
			kept := flows[:0]
			for _, f := range flows {
				if f.ID != p.Flow {
					kept = append(kept, f)
				}
			}
			flows = kept
		}
	case "reroute":
		var target *wsan.Flow
		for _, f := range flows {
			if f.ID == p.Flow {
				target = f
				break
			}
		}
		if target == nil {
			return nil, fmt.Errorf("flow %d not in artifact %q", p.Flow, p.Artifact)
		}
		var route []wsan.Link
		route, err = nw.Net.RouteAvoiding(target.Src, target.Dst, p.Avoid)
		if err != nil {
			return nil, err
		}
		res, err = nw.Net.RerouteFlowDelta(sched, flows, p.Flow, route, alg, cfg)
		if err == nil && res.Schedulable {
			target.Route = route
		}
	default:
		return nil, fmt.Errorf("unknown op %q", p.Op)
	}
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
	var workload, schedOut bytes.Buffer
	if err := wsan.SaveWorkload(flows, &workload); err != nil {
		return nil, err
	}
	if err := wsan.SaveSchedule(sched, &schedOut); err != nil {
		return nil, err
	}
	delta, err := json.Marshal(map[string]any{
		"op":           p.Op,
		"flow":         p.Flow,
		"fallback":     res.Fallback.String(),
		"evicted":      res.Evicted,
		"placementOps": res.PlacementOps,
		"removalOps":   res.RemovalOps,
		"changes":      res.Changes,
	})
	if err != nil {
		return nil, err
	}
	summary, err := json.Marshal(map[string]any{
		"op":            p.Op,
		"algorithm":     p.Alg,
		"flows":         len(flows),
		"transmissions": sched.Schedule.Len(),
		"slots":         sched.Schedule.NumSlots(),
		"channels":      len(nw.Channels),
		"changes":       len(res.Changes),
	})
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		"survey.json":   nw.Survey,
		"workload.json": workload.Bytes(),
		"schedule.json": schedOut.Bytes(),
		"delta.json":    delta,
		"summary.json":  summary,
	}, nil
}

// soakParams is the canonical soak parameter document. The soak churns the
// hosted network's surveyed topology; Channels defaults to the network's
// channel count. Defaults are scaled down from the CLI's evaluation
// operating point so a default job stays short.
type soakParams struct {
	Flows       int   `json:"flows"`
	Channels    int   `json:"channels"`
	Ops         int   `json:"ops"`
	Seed        int64 `json:"seed"`
	BatchEvery  int   `json:"batchEvery"`
	BatchSize   int   `json:"batchSize"`
	OracleEvery int   `json:"oracleEvery"`
}

func (p *soakParams) canonicalize(_ *Server, nw *netEntry) error {
	if p.Flows == 0 {
		p.Flows = 100
	}
	if p.Flows < 1 {
		return fmt.Errorf("flows must be positive")
	}
	if p.Channels == 0 {
		p.Channels = len(nw.Channels)
	}
	if p.Channels < 1 || p.Channels > len(nw.Channels) {
		return fmt.Errorf("channels must be in [1, %d]", len(nw.Channels))
	}
	if p.Ops == 0 {
		p.Ops = 1_000
	}
	if p.Ops < 1 {
		return fmt.Errorf("ops must be positive")
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.BatchEvery < 0 || p.BatchSize < 0 || p.OracleEvery < 0 {
		return fmt.Errorf("batchEvery, batchSize, and oracleEvery must be non-negative")
	}
	if p.BatchEvery == 0 {
		p.BatchEvery = 50
	}
	if p.BatchSize == 0 {
		p.BatchSize = 8
	}
	if p.OracleEvery == 0 {
		p.OracleEvery = 500
	}
	return nil
}

// run drives the sustained-churn soak harness over the hosted network's
// topology, producing result.json: churn throughput, apply-latency
// percentiles, repair-ladder fallback counts, replay-oracle checkpoints, and
// the canonical schedule digest (an oracle divergence fails the job). While
// the event bus is enabled, live throughput snapshots are also published as
// soak.progress events.
func (p *soakParams) run(ctx context.Context, s *Server, nw *netEntry, j *Job) (map[string][]byte, error) {
	cfg := wsan.SoakConfig{
		Flows:       p.Flows,
		Channels:    p.Channels,
		Ops:         p.Ops,
		Seed:        p.Seed,
		BatchEvery:  p.BatchEvery,
		BatchSize:   p.BatchSize,
		OracleEvery: p.OracleEvery,
		Testbed:     nw.Net.Testbed(),
		Metrics:     s.jobSink(j),
	}
	if s.bus.Enabled() {
		network, jobID := j.Network, j.ID
		// Ten snapshots per run, however long it is.
		cfg.ProgressEvery = max(p.Ops/10, 1)
		cfg.OnProgress = func(pr wsan.SoakProgress) {
			s.bus.Publish(wsanclient.EventSoakProgress, network, jobID, pr)
		}
	}
	res, err := wsan.Soak(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{"result.json": out}, nil
}
