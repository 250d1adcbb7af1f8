package wsan

import (
	"fmt"
	"math/rand"

	"wsan/internal/budget"
	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/netsim"
	"wsan/internal/routing"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// Network is the high-level entry point: a testbed operated on a fixed set
// of channels, with the communication and channel-reuse graphs the network
// manager derives from the link statistics.
//
// # Goroutine safety
//
// A Network is immutable after construction, so a single instance is safe
// for concurrent use by any number of goroutines: GenerateWorkload, Route,
// Schedule, AddFlow, Compact, and every accessor only read the derived
// graphs (each call owns its private RNG and schedule state). This is the
// access pattern of the network-manager daemon (internal/server), which
// runs scheduling and simulation jobs for one hosted network concurrently
// on a worker pool. Its Testbed is immutable too, so concurrent
// simulations and manage loops may all run on n.Testbed(): the daemon runs
// every job of a network on that one instance. The caveats are the other
// arguments: a *ScheduleResult, the flow slice it was built from, and the
// rest of a SimConfig are NOT safe to share between concurrent calls that mutate them (AddFlow,
// Compact, Repair, Manage, and the simulator's statistics collection) —
// give each goroutine its own copies (CloneSchedule, or decode fresh flow
// and schedule instances from JSON as the daemon does).
type Network struct {
	tb       *topology.Testbed
	channels []int
	gc       *graph.Graph
	gr       *graph.Graph
	hop      *graph.HopMatrix
	aps      []int
	prrT     float64
}

// NetworkOption customizes NewNetwork.
type NetworkOption func(*networkOptions)

type networkOptions struct {
	prrT   float64
	numAPs int
}

// WithPRRThreshold overrides the link-selection threshold PRR_t
// (default 0.9).
func WithPRRThreshold(t float64) NetworkOption {
	return func(o *networkOptions) { o.prrT = t }
}

// WithAccessPoints overrides how many access points are selected
// (default 2).
func WithAccessPoints(n int) NetworkOption {
	return func(o *networkOptions) { o.numAPs = n }
}

// NewNetwork derives the operating graphs for a testbed on the first
// numChannels channels (the paper's convention; use NewNetworkOnChannels for
// an explicit channel list).
func NewNetwork(tb *Testbed, numChannels int, opts ...NetworkOption) (*Network, error) {
	return NewNetworkOnChannels(tb, topology.Channels(numChannels), opts...)
}

// NewNetworkOnChannels derives the operating graphs for a testbed on an
// explicit list of channel indices (supporting blacklists: pass the
// non-blacklisted channels).
func NewNetworkOnChannels(tb *Testbed, channels []int, opts ...NetworkOption) (*Network, error) {
	if tb == nil {
		return nil, fmt.Errorf("wsan: nil testbed")
	}
	o := networkOptions{prrT: 0.9, numAPs: 2}
	for _, opt := range opts {
		opt(&o)
	}
	gc, err := tb.CommGraph(channels, o.prrT)
	if err != nil {
		return nil, wrapErr(err)
	}
	gr, err := tb.ReuseGraph(channels)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &Network{
		tb:       tb,
		channels: append([]int(nil), channels...),
		gc:       gc,
		gr:       gr,
		hop:      gr.AllPairsHop(),
		aps:      topology.AccessPoints(gc, o.numAPs),
		prrT:     o.prrT,
	}, nil
}

// Testbed returns the underlying testbed.
func (n *Network) Testbed() *Testbed { return n.tb }

// Channels returns the channel indices in use (copy).
func (n *Network) Channels() []int { return append([]int(nil), n.channels...) }

// AccessPoints returns the selected access-point node IDs (copy).
func (n *Network) AccessPoints() []int { return append([]int(nil), n.aps...) }

// ReuseDiameter returns λ_R, the diameter of the channel-reuse graph.
func (n *Network) ReuseDiameter() int { return n.hop.Diameter() }

// CommEdges returns the number of communication-graph links.
func (n *Network) CommEdges() int { return n.gc.NumEdges() }

// CutVertices returns the communication graph's articulation points — relay
// nodes whose failure would partition the network. Deployment reviews flag
// these for redundancy (a second radio, a wired AP, or a repeater).
func (n *Network) CutVertices() []int { return n.gc.ArticulationPoints() }

// WorkloadConfig parameterizes GenerateWorkload.
type WorkloadConfig struct {
	// NumFlows is the number of flows.
	NumFlows int
	// MinPeriodExp and MaxPeriodExp bound the harmonic period range
	// P = [2^min, 2^max] seconds.
	MinPeriodExp int
	MaxPeriodExp int
	// Traffic selects centralized or peer-to-peer routing.
	Traffic Traffic
	// Seed drives the random draw.
	Seed int64
}

// GenerateWorkload draws a random flow set (sources and destinations from
// the largest communication-graph component, excluding access points),
// assigns Deadline-Monotonic priorities, and routes every flow.
func (n *Network) GenerateWorkload(cfg WorkloadConfig) ([]*Flow, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	fs, err := flow.Generate(rng, n.gc, flow.GenConfig{
		NumFlows:     cfg.NumFlows,
		MinPeriodExp: cfg.MinPeriodExp,
		MaxPeriodExp: cfg.MaxPeriodExp,
		Exclude:      n.aps,
	})
	if err != nil {
		return nil, wrapErr(err)
	}
	if err := n.Route(fs, cfg.Traffic); err != nil {
		return nil, err
	}
	return fs, nil
}

// Route assigns source routes to user-constructed flows.
func (n *Network) Route(flows []*Flow, traffic Traffic) error {
	err := routing.Assign(flows, n.gc, routing.Config{Traffic: traffic, APs: n.aps})
	if err != nil {
		return wrapErr(err)
	}
	return nil
}

// ScheduleConfig tunes Schedule.
type ScheduleConfig struct {
	// RhoT is the minimum channel-reuse hop distance (default 2). Ignored
	// by NR.
	RhoT int
	// Retransmit reserves a retransmission slot per hop (default true, the
	// WirelessHART source-routing convention). Set DisableRetransmit to turn
	// it off.
	DisableRetransmit bool
	// Metrics, when non-nil, receives the scheduler's "scheduler.<alg>.*"
	// counters when a Schedule run completes, and the delta engine's
	// "sched.incremental.*" counters from AddFlow and the delta operations.
	// Both also report the index layer's "sched.index.*" work counters.
	// Nil disables collection.
	Metrics MetricsSink
}

// schedConfig assembles the scheduler configuration for alg on this network.
func (n *Network) schedConfig(alg Algorithm, cfg ScheduleConfig) scheduler.Config {
	if cfg.RhoT == 0 {
		cfg.RhoT = 2
	}
	return scheduler.Config{
		Algorithm:   alg,
		NumChannels: len(n.channels),
		RhoT:        cfg.RhoT,
		HopGR:       n.hop,
		Retransmit:  !cfg.DisableRetransmit,
		Metrics:     cfg.Metrics,
	}
}

// Schedule runs the selected algorithm over the flow set (which must be in
// priority order, as produced by GenerateWorkload or flow.AssignDM).
func (n *Network) Schedule(flows []*Flow, alg Algorithm, cfg ScheduleConfig) (*ScheduleResult, error) {
	res, err := scheduler.Run(flows, n.schedConfig(alg, cfg))
	if err != nil {
		return nil, wrapErr(err)
	}
	return res, nil
}

// AddFlow admits one new flow into an existing schedule without disturbing
// the scheduled transmissions (the incremental update a network manager
// performs when a control loop joins a running network). The new flow must
// be lowest-priority (highest ID) and its period must divide the slotframe.
// On a deadline miss the schedule is left unchanged and Schedulable is
// false.
//
// It is one ApplyDelta add with an empty workload: no scheduled flow may
// move, so the flow is placed against the pinned grid or not at all. With
// cfg.Metrics set it therefore emits the delta engine's
// "sched.incremental.*" counters, not "scheduler.<alg>.*".
func (n *Network) AddFlow(res *ScheduleResult, f *Flow, alg Algorithm, cfg ScheduleConfig) (*ScheduleResult, error) {
	for _, tx := range res.Schedule.Txs() {
		if tx.FlowID > f.ID {
			return nil, fmt.Errorf("wsan: flow %d must be lower priority than scheduled flow %d",
				f.ID, tx.FlowID)
		}
	}
	out, err := n.ApplyDelta(res, nil, []DeltaOp{{Kind: DeltaAdd, Flow: f}}, alg, cfg)
	if err != nil {
		return nil, err
	}
	lambdaR := 0
	if alg == RC {
		lambdaR = n.ReuseDiameter()
	}
	return &ScheduleResult{Schedule: res.Schedule, Schedulable: out.Schedulable,
		FailedFlow: out.FailedFlow, Elapsed: out.Elapsed, LambdaR: lambdaR}, nil
}

// DeltaOp is one incremental mutation of a live schedule: add a flow
// (Flow), or remove, reroute (Route) or re-budget (Budget) the flow FlowID.
type DeltaOp = scheduler.BatchOp

// DeltaKind selects what a DeltaOp does.
type DeltaKind = scheduler.BatchKind

// The delta kinds ApplyDelta takes. Repair and compaction run behind
// Repair and Network.Compact.
const (
	// DeltaAdd admits DeltaOp.Flow, which the workload must not list.
	DeltaAdd = scheduler.BatchAdd
	// DeltaRemove retires flow FlowID, deleting exactly its transmissions.
	DeltaRemove = scheduler.BatchRemove
	// DeltaReroute moves flow FlowID onto Route under its budget, refitted
	// to the new hop count.
	DeltaReroute = scheduler.BatchReroute
	// DeltaRebudget re-places flow FlowID on its route under the per-hop
	// Budget (nil clears it).
	DeltaRebudget = scheduler.BatchRebudget
)

// DeltaResult describes the outcome of one ApplyDelta call: the net
// schedule changes, the workload after the ops (Flows), which repair rung
// produced them, and the work the call performed.
type DeltaResult = scheduler.BatchResult

// DeltaFallback names the repair rung an incremental operation descended to.
type DeltaFallback = scheduler.Fallback

// Delta-scheduler repair outcomes, mildest first. Evict and Cascade label
// the same budgeted eviction rung: Evict when every evicted flow made room
// for the delta flow itself, Cascade when a re-placement evicted further.
const (
	// DeltaFallbackNone: the delta placed directly against the pinned grid.
	DeltaFallbackNone = scheduler.FallbackNone
	// DeltaFallbackEvict: lower-criticality colliding flows were evicted and
	// re-placed to make room, none of them transitively.
	DeltaFallbackEvict = scheduler.FallbackEvict
	// DeltaFallbackCascade: evictions cascaded within a bounded budget while
	// re-placing, before any full reschedule.
	DeltaFallbackCascade = scheduler.FallbackCascade
	// DeltaFallbackFull: the mutated workload was rescheduled from scratch.
	DeltaFallbackFull = scheduler.FallbackFull
)

// ApplyDelta applies ops to an existing schedule as one atomic operation,
// pinning every transmission the ops do not touch. An op that places a
// flow descends the repair ladder on a collision (evict lower-criticality
// flows, then reschedule the mutated workload from scratch); only the flows
// the workload lists may move. If any op is infeasible, Schedulable is
// false; if any op is invalid, ApplyDelta returns an error. Either way the
// schedule is left exactly as it was. flows is the workload the schedule
// was built from, in priority order; neither it nor its flows are mutated —
// the workload after the ops is DeltaResult.Flows. The result's Changes
// invert cleanly via InvertDeltas for rollback.
func (n *Network) ApplyDelta(res *ScheduleResult, flows []*Flow, ops []DeltaOp, alg Algorithm, cfg ScheduleConfig) (*DeltaResult, error) {
	out, err := scheduler.ApplyDeltaBatch(res.Schedule, flows, ops, n.schedConfig(alg, cfg))
	if err != nil {
		return nil, wrapErr(err)
	}
	return out, nil
}

// RouteAvoiding returns a minimum-hop route from src to dst over the
// communication graph with the avoid nodes deleted — the detour a reroute
// delta places a flow onto. It returns an error when no such path exists.
func (n *Network) RouteAvoiding(src, dst int, avoid []int) ([]Link, error) {
	if src < 0 || src >= n.gc.Len() || dst < 0 || dst >= n.gc.Len() {
		return nil, fmt.Errorf("wsan: route endpoints (%d,%d) out of range [0,%d)", src, dst, n.gc.Len())
	}
	path := n.gc.ShortestPathAvoiding(src, dst, avoid)
	if path == nil {
		return nil, fmt.Errorf("wsan: no route from %d to %d avoiding %v", src, dst, avoid)
	}
	return routing.PathLinks(path), nil
}

// LinkPRR returns the survey packet reception ratio of a directed link,
// averaged over the network's hopping list — the planning-time estimate
// reliability budgets and bounds are computed from. Links outside the
// testbed return 0.
func (n *Network) LinkPRR(l Link) float64 {
	if len(n.channels) == 0 {
		return 0
	}
	sum := 0.0
	for _, ch := range n.channels {
		sum += n.tb.PRR(l.From, l.To, ch)
	}
	return sum / float64(len(n.channels))
}

// ApplyReliabilityTargets enables reliability-target scheduling for a
// routed flow set: every flow gets TargetPDR = target (when target > 0;
// pass 0 to keep per-flow targets already set), and each targeted flow's
// per-hop retransmission budget (Flow.TxBudget) is planned from the
// network's survey link PRRs so the end-to-end delivery-probability bound
// meets the target with the fewest total slots. maxPerHop caps the per-hop
// attempts (0 selects the default cap of 4). Flows whose target is
// unreachable even at the cap keep the capped best-effort budget and are
// reported infeasible in their Assignment. Call before Schedule: the
// schedulers place TxBudget multiplicities through their ordinary
// machinery.
func (n *Network) ApplyReliabilityTargets(flows []*Flow, target float64, maxPerHop int, mets MetricsSink) ([]BudgetAssignment, error) {
	if target > 0 {
		for _, f := range flows {
			f.TargetPDR = target
		}
	}
	out, err := budget.Apply(flows, n.LinkPRR, maxPerHop, mets)
	if err != nil {
		return nil, wrapErr(err)
	}
	return out, nil
}

// ReliabilityBounds computes every flow's end-to-end delivery-probability
// bound from the network's survey link PRRs (see the package-level
// ReliabilityBounds for an explicit PRR source). attempts is the uniform
// per-hop slot count for flows without a TxBudget; 0 selects the
// WirelessHART default of 2.
func (n *Network) ReliabilityBounds(flows []*Flow, attempts int) ([]ReliabilityBound, error) {
	return ReliabilityBounds(flows, n.LinkPRR, attempts)
}

// NewSimConfig pre-fills a simulator configuration for a scheduled
// workload on this network; the caller can tweak fading, interferers, and
// statistics collection before calling Simulate.
func (n *Network) NewSimConfig(flows []*Flow, res *ScheduleResult, hyperperiods int, seed int64) SimConfig {
	return netsim.Config{
		Testbed:            n.tb,
		Flows:              flows,
		Schedule:           res.Schedule,
		Channels:           n.Channels(),
		Hyperperiods:       hyperperiods,
		FadingSigmaDB:      2.5,
		SurveyDriftSigmaDB: 2.5,
		Seed:               seed,
	}
}
