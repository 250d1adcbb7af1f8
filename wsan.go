// Package wsan is a library for real-time industrial wireless
// sensor-actuator networks (WirelessHART / IEEE 802.15.4e TSCH) implementing
// the conservative channel-reuse scheduling system of Gunatilaka & Lu,
// "Conservative Channel Reuse in Real-Time Industrial Wireless
// Sensor-Actuator Networks" (ICDCS 2018).
//
// The library covers the full pipeline a WirelessHART network manager runs:
//
//   - testbed/topology modeling with per-channel PRR link statistics
//     (synthetic Indriya- and WUSTL-like generators plus custom builders),
//   - communication-graph and channel-reuse-graph construction,
//   - periodic real-time flow workloads with Deadline-Monotonic priorities,
//   - centralized (through-gateway) and peer-to-peer source routing,
//   - three fixed-priority TSCH schedulers: NR (no channel reuse — the
//     WirelessHART standard), RA (aggressive reuse), and RC (the paper's
//     Reuse Conservatively algorithm driven by flow laxity),
//   - a slot-accurate TSCH network simulator with SINR-based reception,
//     channel hopping, retransmissions, capture effect, and WiFi-style
//     external interference, and
//   - the Kolmogorov-Smirnov-based classifier that attributes link
//     reliability degradation to channel reuse versus external causes.
//
// The Network type wires the pipeline together; see examples/ for complete
// programs and internal/experiment for the reproduction of every figure in
// the paper's evaluation.
package wsan

import (
	"context"
	"fmt"
	"io"
	"strings"

	"wsan/internal/analysis"
	"wsan/internal/budget"
	"wsan/internal/detect"
	"wsan/internal/faults"
	"wsan/internal/flow"
	"wsan/internal/manage"
	"wsan/internal/netsim"
	"wsan/internal/obs"
	"wsan/internal/repair"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
	"wsan/internal/stats"
	"wsan/internal/topology"
)

// wrapErr guarantees the package's error contract: every error escaping the
// public API carries the "wsan:" prefix exactly once — except the name
// parsers' (ParseAlgorithm, ParseTraffic), which are usage messages about a
// flag or request field and are shown to that user verbatim. Errors already
// prefixed (e.g. produced by another public entry point on the same path)
// pass through unchanged, and the underlying error remains available to
// errors.Is/As via %w.
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	if strings.HasPrefix(err.Error(), "wsan: ") {
		return err
	}
	return fmt.Errorf("wsan: %w", err)
}

// Re-exported data types. These are aliases, so values flow freely between
// the public API and the subsystem packages.
type (
	// Testbed is a deployment: nodes plus per-channel link PRRs and gains.
	Testbed = topology.Testbed
	// Node is one field device.
	Node = topology.Node
	// TestbedConfig parameterizes synthetic testbed generation.
	TestbedConfig = topology.GenConfig
	// Flow is one periodic end-to-end real-time flow.
	Flow = flow.Flow
	// Link is a directed hop.
	Link = flow.Link
	// Algorithm selects a scheduling policy (NR, RA, RC).
	Algorithm = scheduler.Algorithm
	// ScheduleResult is the outcome of a scheduling run.
	ScheduleResult = scheduler.Result
	// Traffic selects the routing pattern (Centralized, PeerToPeer).
	Traffic = routing.Traffic
	// SimConfig parameterizes the TSCH network simulator.
	SimConfig = netsim.Config
	// SimResult holds per-flow delivery and per-link statistics.
	SimResult = netsim.Result
	// Interferer is an external interference source.
	Interferer = netsim.Interferer
	// FaultScenario is a deterministic, seeded fault timeline the simulator
	// applies while executing a schedule (set SimConfig.Faults /
	// ManageConfig.Sim.Faults).
	FaultScenario = faults.Scenario
	// FaultEvent is one entry of a fault timeline.
	FaultEvent = faults.Event
	// FaultKind names one fault-event type.
	FaultKind = faults.EventKind
	// FaultCounts tallies the fault events a simulation applied, by kind
	// (SimResult.FaultEvents).
	FaultCounts = faults.Counts
	// DetectionReport classifies one link-epoch.
	DetectionReport = detect.Report
	// DetectionConfig parameterizes the detection policy.
	DetectionConfig = detect.Config
	// Verdict is the detection outcome for a link-epoch.
	Verdict = detect.Verdict
	// FiveNum is a box-plot five-number summary.
	FiveNum = stats.FiveNum
	// KSResult is a two-sample Kolmogorov-Smirnov test outcome.
	KSResult = stats.KSResult
)

// Scheduling algorithms.
const (
	// NR is the standard WirelessHART policy: no channel reuse.
	NR = scheduler.NR
	// RA reuses channels aggressively whenever the hop constraint allows.
	RA = scheduler.RA
	// RC is the paper's conservative reuse algorithm.
	RC = scheduler.RC
)

// Traffic patterns.
const (
	// Centralized routes flows through access points and the wired gateway.
	Centralized = routing.Centralized
	// PeerToPeer routes flows directly between field devices.
	PeerToPeer = routing.PeerToPeer
)

// ParseAlgorithm maps a scheduler name ("nr", "ra" or "rc") to its
// Algorithm — the spelling of the wsansim -alg flag and the daemon's job
// parameters.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "nr":
		return NR, nil
	case "ra":
		return RA, nil
	case "rc":
		return RC, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want nr, ra, or rc)", name)
}

// ParseTraffic maps a traffic name ("p2p" or "centralized") to its routing
// pattern.
func ParseTraffic(name string) (Traffic, error) {
	switch name {
	case "p2p":
		return PeerToPeer, nil
	case "centralized":
		return Centralized, nil
	}
	return 0, fmt.Errorf("unknown traffic %q (want p2p or centralized)", name)
}

// TestbedPreset looks up a synthetic testbed generator by name: "indriya"
// (GenerateIndriya) or "wustl" (GenerateWUSTL). ok is false for any other
// name.
func TestbedPreset(name string) (generate func(seed int64) (*Testbed, error), ok bool) {
	switch name {
	case "indriya":
		return GenerateIndriya, true
	case "wustl":
		return GenerateWUSTL, true
	}
	return nil, false
}

// Fault-event kinds. The values are the wire strings of the scenario JSON
// format.
const (
	// FaultNodeCrash silences a node until a matching FaultNodeRecover.
	FaultNodeCrash = faults.NodeCrash
	// FaultNodeRecover brings a crashed node back.
	FaultNodeRecover = faults.NodeRecover
	// FaultLinkBlackout severs one link in both directions.
	FaultLinkBlackout = faults.LinkBlackout
	// FaultLinkRestore lifts a blackout.
	FaultLinkRestore = faults.LinkRestore
	// FaultInterferenceStart raises the noise floor on the listed channels.
	FaultInterferenceStart = faults.InterferenceStart
	// FaultInterferenceStop clears scenario interference from the channels.
	FaultInterferenceStop = faults.InterferenceStop
	// FaultDriftStep layers a deterministic Gaussian gain shift onto the
	// radio environment.
	FaultDriftStep = faults.DriftStep
)

// Detection verdicts.
const (
	// VerdictMeets: the link meets the reliability requirement.
	VerdictMeets = detect.Meets
	// VerdictReuseDegraded: channel reuse degrades the link.
	VerdictReuseDegraded = detect.ReuseDegraded
	// VerdictOtherCause: degradation stems from external causes.
	VerdictOtherCause = detect.OtherCause
	// VerdictInconclusive: not enough samples to decide.
	VerdictInconclusive = detect.Inconclusive
)

// NumChannels is the number of IEEE 802.15.4 channels (16, numbered 11–26
// and indexed 0–15 here).
const NumChannels = topology.NumChannels

// GenerateIndriya synthesizes the 80-node Indriya-like testbed.
func GenerateIndriya(seed int64) (*Testbed, error) {
	tb, err := topology.Indriya(seed)
	return tb, wrapErr(err)
}

// GenerateWUSTL synthesizes the 60-node WUSTL-like testbed.
func GenerateWUSTL(seed int64) (*Testbed, error) {
	tb, err := topology.WUSTL(seed)
	return tb, wrapErr(err)
}

// GenerateTestbed synthesizes a testbed from an arbitrary configuration.
func GenerateTestbed(cfg TestbedConfig, seed int64) (*Testbed, error) {
	tb, err := topology.Generate(cfg, seed)
	return tb, wrapErr(err)
}

// DefaultTestbedConfig returns a mid-size three-floor deployment
// configuration to customize.
func DefaultTestbedConfig() TestbedConfig { return topology.DefaultGenConfig() }

// CustomTestbed builds a testbed from explicit link gains.
func CustomTestbed(name string, nodes []Node, gain func(u, v, ch int) float64) (*Testbed, error) {
	tb, err := topology.Custom(name, nodes, gain, topology.DefaultGenConfig())
	return tb, wrapErr(err)
}

// SaveTestbed writes a testbed as JSON.
func SaveTestbed(tb *Testbed, w io.Writer) error { return wrapErr(tb.Encode(w)) }

// LoadTestbed reads a testbed written by SaveTestbed.
func LoadTestbed(r io.Reader) (*Testbed, error) {
	tb, err := topology.Decode(r)
	return tb, wrapErr(err)
}

// SaveWorkload writes a routed flow set as JSON — the workload.json format
// of the wsansim toolchain and the network-manager daemon's artifacts.
func SaveWorkload(flows []*Flow, w io.Writer) error {
	return wrapErr(flow.EncodeWorkload(w, flows))
}

// LoadWorkload reads a flow set written by SaveWorkload, validating every
// flow and the priority numbering.
func LoadWorkload(r io.Reader) ([]*Flow, error) {
	fs, err := flow.DecodeWorkload(r)
	return fs, wrapErr(err)
}

// SaveSchedule writes a schedule as JSON — the schedule.json format of the
// wsansim toolchain and the network-manager daemon's artifacts.
func SaveSchedule(res *ScheduleResult, w io.Writer) error {
	if res == nil || res.Schedule == nil {
		return fmt.Errorf("wsan: nil schedule")
	}
	return wrapErr(res.Schedule.Encode(w))
}

// LoadSchedule reads a schedule written by SaveSchedule, re-validating
// every placement. The returned result reports the loaded schedule as
// schedulable (an unschedulable run is never persisted).
func LoadSchedule(r io.Reader) (*ScheduleResult, error) {
	s, err := schedule.Decode(r)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &ScheduleResult{Schedule: s, Schedulable: true, FailedFlow: -1}, nil
}

// SaveFaultScenario writes a fault scenario as JSON — the scenario.json
// format of the wsansim -faults flag and the daemon's job parameters.
func SaveFaultScenario(sc *FaultScenario, w io.Writer) error {
	if sc == nil {
		return fmt.Errorf("wsan: nil fault scenario")
	}
	return wrapErr(sc.Encode(w))
}

// LoadFaultScenario reads a scenario written by SaveFaultScenario,
// validating every event (node ranges are checked against the testbed when
// the simulation starts).
func LoadFaultScenario(r io.Reader) (*FaultScenario, error) {
	sc, err := faults.Decode(r)
	return sc, wrapErr(err)
}

// Observability re-exports: the wsan pipeline reports counters, gauges, and
// histograms through a MetricsSink (see internal/obs). Attach one with
// SimConfig.WithMetricsSink (the manage loop reads it from ManageConfig.Sim)
// or the Metrics field of ScheduleConfig; a nil sink (the default) disables
// observability at near-zero cost.
type (
	// MetricsSink receives the observability stream. Implement it to feed
	// your own telemetry system, or use a MetricsRegistry.
	MetricsSink = obs.Sink
	// MetricsRegistry is the built-in aggregating sink with a JSON snapshot.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's state.
	MetricsSnapshot = obs.Snapshot
	// NopMetricsSink discards the stream (useful to pin the overhead of an
	// always-on call site).
	NopMetricsSink = obs.NopSink
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MultiMetricsSink fans the observability stream out to several sinks.
func MultiMetricsSink(sinks ...MetricsSink) MetricsSink { return obs.MultiSink(sinks...) }

// Simulate executes a schedule on the TSCH network simulator.
func Simulate(cfg SimConfig) (*SimResult, error) {
	return SimulateCtx(context.Background(), cfg)
}

// SimulateCtx is Simulate with cancellation: ctx is checked between
// slotframe executions, so a cancelled context stops a long simulation
// within one hyperperiod and the error satisfies errors.Is(err, ctx.Err()).
func SimulateCtx(ctx context.Context, cfg SimConfig) (*SimResult, error) {
	res, err := netsim.RunCtx(ctx, cfg)
	return res, wrapErr(err)
}

// ConvergeOpts controls SimulateConverged's sequential stopping rule.
type ConvergeOpts = netsim.ConvergeOpts

// ConvergeResult is the aggregated outcome with its achieved precision.
type ConvergeResult = netsim.ConvergeResult

// SimulateConverged runs independent simulation chunks until every flow's
// PDR estimate reaches the requested confidence half-width — a statistically
// principled alternative to a fixed execution count.
func SimulateConverged(cfg SimConfig, opts ConvergeOpts) (*ConvergeResult, error) {
	return SimulateConvergedCtx(context.Background(), cfg, opts)
}

// SimulateConvergedCtx is SimulateConverged with cancellation: ctx is
// checked before every chunk and between the slotframe executions inside
// each chunk, so a cancelled context stops the sequential procedure
// promptly with an error satisfying errors.Is(err, ctx.Err()).
func SimulateConvergedCtx(ctx context.Context, cfg SimConfig, opts ConvergeOpts) (*ConvergeResult, error) {
	res, err := netsim.ConvergeCtx(ctx, cfg, opts)
	return res, wrapErr(err)
}

// DetectDegradation classifies every reuse-associated link from simulator
// link statistics.
func DetectDegradation(res *SimResult, cfg DetectionConfig) []DetectionReport {
	return detect.Classify(res.LinkEpochs, cfg)
}

// DefaultDetectionConfig returns the paper's detection parameters
// (PRR_t = 0.9, α = 0.05).
func DefaultDetectionConfig() DetectionConfig { return detect.DefaultConfig() }

// KSTest runs a two-sample Kolmogorov-Smirnov test.
func KSTest(a, b []float64) (KSResult, error) {
	res, err := stats.KSTest(a, b)
	return res, wrapErr(err)
}

// Summary computes a box-plot five-number summary.
func Summary(xs []float64) (FiveNum, error) {
	fn, err := stats.Summary(xs)
	return fn, wrapErr(err)
}

// EnergyModel assigns per-slot radio costs for battery-life estimation.
type EnergyModel = netsim.EnergyModel

// DefaultEnergyModel returns CC2420-class per-slot costs.
func DefaultEnergyModel() EnergyModel { return netsim.DefaultEnergyModel() }

// LifetimeYears estimates battery life from per-slotframe energy.
func LifetimeYears(energyMJPerFrame float64, slotframeSlots int, batteryJ float64) float64 {
	return netsim.LifetimeYears(energyMJPerFrame, slotframeSlots, batteryJ)
}

// ManageConfig parameterizes the closed management loop: Sim is the
// SimConfig of one observation window (testbed, flows, schedule, channels,
// epoch and sample window, radio environment, faults, metrics, seed), and
// the loop owns its Hyperperiods, DriftSeed, and FaultOffsetSlots.
type ManageConfig = manage.Config

// ManageIteration reports one observe→classify→repair cycle.
type ManageIteration = manage.Iteration

// ManageHealth classifies the network at the end of a management iteration.
type ManageHealth = manage.Health

// ManageHealth values (the wire strings are "healthy", "degraded",
// "recovered").
const (
	HealthHealthy   = manage.Healthy
	HealthDegraded  = manage.Degraded
	HealthRecovered = manage.Recovered
)

// Manage runs the closed loop — execute, detect reuse degradation, repair,
// repeat — until the network is clean, repair stalls, or the iteration
// budget is spent. The schedule in cfg is mutated by the applied repairs.
func Manage(cfg ManageConfig) ([]ManageIteration, error) {
	return ManageCtx(context.Background(), cfg)
}

// ManageCtx is Manage with cancellation: ctx is checked before every
// observe→classify→repair cycle and inside the observation simulation, so a
// cancelled context stops the loop promptly with an error satisfying
// errors.Is(err, ctx.Err()). Iterations completed before the cancellation
// are returned alongside the error; the schedule keeps their repairs.
func ManageCtx(ctx context.Context, cfg ManageConfig) ([]ManageIteration, error) {
	iters, err := manage.LoopCtx(ctx, cfg)
	return iters, wrapErr(err)
}

// RepairResult reports what a schedule-repair pass did.
type RepairResult = repair.Result

// Repair reassigns the transmissions of reuse-degraded links (per the
// detection reports) to contention-free cells, mutating the schedule in
// place — the remediation Sec. VI of the paper motivates. An error leaves
// the schedule untouched.
func Repair(res *ScheduleResult, flows []*Flow, reports []DetectionReport) (*RepairResult, error) {
	out, err := repair.RescheduleFromReports(res.Schedule, flows, reports)
	return out, wrapErr(err)
}

// Compact shifts transmissions toward earlier slots after repairs or
// incremental admissions, recovering latency without violating any
// scheduling constraint. Moves target exclusive cells only, so compaction
// never introduces channel sharing a conservative schedule avoided. It
// returns how many transmissions moved; a fresh earliest-slot schedule is a
// fixed point. An error leaves the schedule untouched.
func (n *Network) Compact(res *ScheduleResult, flows []*Flow) (int, error) {
	moved, err := repair.Compact(res.Schedule, flows)
	return moved, wrapErr(err)
}

// ScheduleDelta is one dissemination delta entry (add or remove).
type ScheduleDelta = schedule.Change

// DiffSchedules computes the dissemination delta between two schedule
// states (e.g. before and after a repair): removals first, then additions.
func DiffSchedules(old, new *ScheduleResult) ([]ScheduleDelta, error) {
	delta, err := schedule.Diff(old.Schedule, new.Schedule)
	return delta, wrapErr(err)
}

// InvertDeltas returns the delta that undoes the given one (adds become
// removes and vice versa), letting a caller roll an applied DeltaResult
// back atomically.
func InvertDeltas(delta []ScheduleDelta) []ScheduleDelta {
	return schedule.Invert(delta)
}

// CloneSchedule snapshots a schedule state for later diffing.
func CloneSchedule(res *ScheduleResult) *ScheduleResult {
	cp := *res
	cp.Schedule = res.Schedule.Clone()
	return &cp
}

// Analysis re-exports.
type (
	// FlowLatency summarizes one flow's end-to-end schedule latency.
	FlowLatency = analysis.FlowLatency
	// DelayBound is a worst-case response-time bound for one flow.
	DelayBound = analysis.DelayBound
	// NetworkUtilization accounts a workload's demand.
	NetworkUtilization = analysis.Utilization
	// ReliabilityBound is the end-to-end delivery-probability verdict for
	// one flow — the reliability axis of the analysis, next to DelayBound.
	ReliabilityBound = analysis.ReliabilityBound
	// BudgetPlan is a per-hop retransmission-slot plan meeting (or
	// best-effort approaching) a delivery-probability target.
	BudgetPlan = budget.Plan
	// BudgetAssignment pairs a flow with the plan applied to it.
	BudgetAssignment = budget.Assignment
	// FlowShortfall reports a targeted flow the manage loop cannot carry
	// to its TargetPDR under the observed link PRRs.
	FlowShortfall = manage.FlowShortfall
)

// DefaultMaxAttemptsPerHop is the default cap on per-hop retransmission
// budgets (see BudgetPlan).
const DefaultMaxAttemptsPerHop = budget.DefaultMaxAttemptsPerHop

// PlanBudget computes the minimal per-hop retransmission budget whose
// end-to-end delivery-probability bound Π(1-(1-pᵢ)^kᵢ) meets target over
// hops with the given PRRs. maxPerHop caps each hop (0 selects
// DefaultMaxAttemptsPerHop); an unreachable target returns the capped
// best-effort plan with Feasible=false.
func PlanBudget(prrs []float64, target float64, maxPerHop int) (BudgetPlan, error) {
	p, err := budget.Compute(prrs, target, maxPerHop)
	return p, wrapErr(err)
}

// ReliabilityBounds computes every flow's end-to-end delivery-probability
// bound from per-link PRRs, honoring per-hop TxBudget multiplicities.
// attempts is the uniform per-hop slot count for flows without a budget; 0
// selects the WirelessHART source-routing default of 2.
func ReliabilityBounds(flows []*Flow, linkPRR func(Link) float64, attempts int) ([]ReliabilityBound, error) {
	if attempts == 0 {
		attempts = 2
	}
	bounds, err := analysis.ReliabilityAnalysis(flows, linkPRR, attempts)
	return bounds, wrapErr(err)
}

// AllMeetReliabilityTargets reports whether every targeted flow's bound
// clears its TargetPDR.
func AllMeetReliabilityTargets(bounds []ReliabilityBound) bool {
	return analysis.AllMeetTargets(bounds)
}

// ScheduleLatencies extracts per-flow end-to-end latencies from a schedule.
func ScheduleLatencies(flows []*Flow, res *ScheduleResult) ([]FlowLatency, error) {
	if res == nil {
		return nil, fmt.Errorf("wsan: nil schedule")
	}
	lats, err := analysis.Latencies(flows, res.Schedule)
	return lats, wrapErr(err)
}

// DelayBounds runs the fixed-priority worst-case delay bound (a sufficient
// schedulability test for NR) on a routed flow set. attempts is the number
// of dedicated slots per hop; 0 selects the WirelessHART source-routing
// default of 2 (one primary transmission plus one retry).
func DelayBounds(flows []*Flow, numChannels, attempts int) ([]DelayBound, error) {
	if attempts == 0 {
		attempts = 2
	}
	bounds, err := analysis.DelayAnalysis(flows, numChannels, attempts)
	return bounds, wrapErr(err)
}

// AnalyzeUtilization accounts channel and bottleneck-node demand. attempts
// is the number of dedicated slots per hop; 0 selects the WirelessHART
// source-routing default of 2 (one primary transmission plus one retry).
func AnalyzeUtilization(flows []*Flow, numChannels, attempts int) (NetworkUtilization, error) {
	if attempts == 0 {
		attempts = 2
	}
	u, err := analysis.ComputeUtilization(flows, numChannels, attempts)
	return u, wrapErr(err)
}
