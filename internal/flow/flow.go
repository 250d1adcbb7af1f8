// Package flow defines the end-to-end flow model of Sec. IV-A and the random
// workload generator used throughout the paper's evaluation (Sec. VII).
//
// Each flow F_i = ⟨S_i, Y_i, D_i, P_i, φ_i⟩ releases a packet every P_i slots
// at its source S_i; the packet must traverse the route φ_i and reach the
// destination Y_i within D_i slots. Periods are harmonic powers of two
// (seconds), deadlines are drawn from [P/2, P], and priorities are assigned
// Deadline-Monotonically. Time is slotted at the TSCH slot length of 10 ms
// (100 slots per second).
package flow

import (
	"fmt"
	"math/rand"
	"sort"

	"wsan/internal/graph"
)

// SlotsPerSecond is the slot rate of a 10 ms TSCH slot frame.
const SlotsPerSecond = 100

// Link is one directed hop of a route.
type Link struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Flow is one periodic end-to-end flow. Route is assigned by the routing
// layer; the remaining fields come from the workload generator.
type Flow struct {
	// ID is the flow's index in its flow set; after priority assignment,
	// lower ID means higher priority.
	ID int `json:"id"`
	// Src and Dst are the source (sensor) and destination (actuator) nodes.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Period and Deadline are in slots, with Deadline ≤ Period.
	Period   int `json:"period"`
	Deadline int `json:"deadline"`
	// Phase staggers the flow's releases: instance k is released at slot
	// k·Period + Phase. A non-zero phase must satisfy Phase + Deadline ≤
	// Period so every absolute deadline stays inside the hyperperiod.
	// WirelessHART deployments stagger superframe offsets exactly this way
	// to spread load away from the slot-0 thundering herd.
	Phase int `json:"phase,omitempty"`
	// Route is the sequence of directed hops a packet takes. For
	// peer-to-peer traffic it is contiguous from Src to Dst; for centralized
	// traffic it is the uplink path to an access point followed by the
	// downlink path from a (possibly different) access point, with the wired
	// gateway segment in between taking no radio slots.
	Route []Link `json:"route"`
	// TargetPDR, when positive, is the flow's end-to-end
	// delivery-probability target (reliability-target scheduling). Zero
	// means no target: the flow is scheduled with the network's uniform
	// retransmission policy.
	TargetPDR float64 `json:"targetPDR,omitempty"`
	// TxBudget, when non-empty, holds the per-hop transmission-attempt
	// counts (parallel to Route, each ≥ 1) the budgeting pass allocated to
	// meet TargetPDR; see internal/budget. An empty budget falls back to
	// the scheduler's uniform attempt count.
	TxBudget []int `json:"txBudget,omitempty"`
}

// Clone returns a deep copy of the flow: its Route and TxBudget are copied,
// never aliased, so the copy can be rerouted, re-budgeted or renumbered
// without touching f. A nil route or budget stays nil.
func (f *Flow) Clone() *Flow {
	cp := *f
	cp.Route = append([]Link(nil), f.Route...)
	cp.TxBudget = append([]int(nil), f.TxBudget...)
	return &cp
}

// HopAttempts returns the number of transmission attempts budgeted for one
// hop: the TxBudget entry when a budget is installed, fallback otherwise.
func (f *Flow) HopAttempts(hop, fallback int) int {
	if len(f.TxBudget) > 0 {
		return f.TxBudget[hop]
	}
	return fallback
}

// TotalAttempts returns the number of transmissions one release of the flow
// occupies: the TxBudget sum when a budget is installed, hops × fallback
// otherwise.
func (f *Flow) TotalAttempts(fallback int) int {
	if len(f.TxBudget) == 0 {
		return len(f.Route) * fallback
	}
	total := 0
	for _, k := range f.TxBudget {
		total += k
	}
	return total
}

// AdaptBudget fits a per-hop transmission budget planned for one route onto
// a route with hops hops. A budget is planned per-link (internal/budget), so
// after a reroute its entries describe links the flow no longer traverses;
// until the next re-budgeting pass re-plans against the new links, the flow
// keeps its most conservative per-hop concession — every hop of the new
// route gets the minimum attempt count of the old budget. In particular a
// shed all-ones budget stays all ones through any detour, never silently
// re-inflating slot demand during fault recovery. An empty budget stays
// empty; a same-length budget is copied unchanged (the hop count, and so the
// planned slot demand, still matches). The result never aliases budget.
func AdaptBudget(budget []int, hops int) []int {
	if len(budget) == 0 {
		return nil
	}
	if len(budget) == hops {
		return append([]int(nil), budget...)
	}
	min := budget[0]
	for _, k := range budget[1:] {
		if k < min {
			min = k
		}
	}
	out := make([]int, hops)
	for i := range out {
		out[i] = min
	}
	return out
}

// PeriodSlots converts a period exponent (period = 2^exp seconds) to slots.
// Exponents may be negative (2^-1 s = 50 slots).
func PeriodSlots(exp int) int {
	if exp >= 0 {
		return SlotsPerSecond << uint(exp)
	}
	return SlotsPerSecond >> uint(-exp)
}

// Validate checks internal consistency of the flow definition.
func (f *Flow) Validate() error {
	if f.Period <= 0 {
		return fmt.Errorf("flow %d: period %d must be positive", f.ID, f.Period)
	}
	if f.Deadline <= 0 || f.Deadline > f.Period {
		return fmt.Errorf("flow %d: deadline %d must be in (0, period %d]", f.ID, f.Deadline, f.Period)
	}
	if f.Src == f.Dst {
		return fmt.Errorf("flow %d: source equals destination (%d)", f.ID, f.Src)
	}
	if f.Phase < 0 {
		return fmt.Errorf("flow %d: phase %d must be non-negative", f.ID, f.Phase)
	}
	if f.Phase > 0 && f.Phase+f.Deadline > f.Period {
		return fmt.Errorf("flow %d: phase %d + deadline %d exceeds period %d",
			f.ID, f.Phase, f.Deadline, f.Period)
	}
	if f.TargetPDR < 0 || f.TargetPDR >= 1 {
		return fmt.Errorf("flow %d: target PDR %v must be in [0, 1)", f.ID, f.TargetPDR)
	}
	return f.ValidateBudget()
}

// ValidateBudget checks an installed TxBudget against the route: one entry
// per hop, each at least 1. A flow without a budget passes. HopAttempts and
// TotalAttempts rely on it.
func (f *Flow) ValidateBudget() error {
	if len(f.TxBudget) == 0 {
		return nil
	}
	if len(f.TxBudget) != len(f.Route) {
		return fmt.Errorf("flow %d: tx budget covers %d hops but route has %d",
			f.ID, len(f.TxBudget), len(f.Route))
	}
	for hop, k := range f.TxBudget {
		if k < 1 {
			return fmt.Errorf("flow %d: tx budget for hop %d is %d, must be ≥ 1", f.ID, hop, k)
		}
	}
	return nil
}

// Release returns the release slot of the flow's k-th instance.
func (f *Flow) Release(instance int) int { return instance*f.Period + f.Phase }

// Hyperperiod returns the least common multiple of the flows' periods, the
// length of the schedule in slots. It returns an error on an empty set or a
// non-positive period.
func Hyperperiod(flows []*Flow) (int, error) {
	if len(flows) == 0 {
		return 0, fmt.Errorf("hyperperiod of empty flow set")
	}
	h := 1
	for _, f := range flows {
		if f.Period <= 0 {
			return 0, fmt.Errorf("flow %d: period %d must be positive", f.ID, f.Period)
		}
		h = lcm(h, f.Period)
	}
	return h, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// AssignDM sorts the flows Deadline-Monotonically (shortest deadline =
// highest priority, ties by original ID) and renumbers IDs so that lower ID
// means higher priority, the convention the fixed-priority scheduler uses.
func AssignDM(flows []*Flow) {
	sort.SliceStable(flows, func(i, j int) bool {
		if flows[i].Deadline != flows[j].Deadline {
			return flows[i].Deadline < flows[j].Deadline
		}
		return flows[i].ID < flows[j].ID
	})
	for i, f := range flows {
		f.ID = i
	}
}

// AssignRM sorts the flows Rate-Monotonically (shortest period = highest
// priority) and renumbers IDs. It is an alternative to the paper's DM policy.
func AssignRM(flows []*Flow) {
	sort.SliceStable(flows, func(i, j int) bool {
		if flows[i].Period != flows[j].Period {
			return flows[i].Period < flows[j].Period
		}
		return flows[i].ID < flows[j].ID
	})
	for i, f := range flows {
		f.ID = i
	}
}

// GenConfig parameterizes random workload generation.
type GenConfig struct {
	// NumFlows is the number of flows to generate.
	NumFlows int
	// MinPeriodExp and MaxPeriodExp bound the harmonic period range
	// P = [2^min, 2^max] seconds (paper notation P = [2^x, 2^y]).
	MinPeriodExp int
	MaxPeriodExp int
	// Exclude lists nodes that must not be chosen as sources or
	// destinations (the access points).
	Exclude []int
	// StaggerPhases assigns each flow a random release phase in
	// [0, period-deadline], spreading releases across the hyperperiod
	// instead of synchronizing them at slot 0.
	StaggerPhases bool
}

// Generate draws a random flow set over the eligible nodes of g: sources and
// destinations are distinct nodes sampled from the largest connected
// component, period exponents are uniform over [MinPeriodExp, MaxPeriodExp],
// and each deadline is uniform over [period/2, period]. Routes are left
// empty. Priorities are assigned Deadline-Monotonically before returning.
func Generate(rng *rand.Rand, g *graph.Graph, cfg GenConfig) ([]*Flow, error) {
	if cfg.NumFlows <= 0 {
		return nil, fmt.Errorf("generate workload: NumFlows %d must be positive", cfg.NumFlows)
	}
	if cfg.MinPeriodExp > cfg.MaxPeriodExp {
		return nil, fmt.Errorf("generate workload: period range [2^%d, 2^%d] is empty",
			cfg.MinPeriodExp, cfg.MaxPeriodExp)
	}
	excluded := make(map[int]bool, len(cfg.Exclude))
	for _, id := range cfg.Exclude {
		excluded[id] = true
	}
	var eligible []int
	for _, id := range g.LargestComponent() {
		if !excluded[id] {
			eligible = append(eligible, id)
		}
	}
	if len(eligible) < 2 {
		return nil, fmt.Errorf("generate workload: only %d eligible nodes", len(eligible))
	}
	flows := make([]*Flow, cfg.NumFlows)
	for i := range flows {
		src := eligible[rng.Intn(len(eligible))]
		dst := eligible[rng.Intn(len(eligible))]
		for dst == src {
			dst = eligible[rng.Intn(len(eligible))]
		}
		exp := cfg.MinPeriodExp + rng.Intn(cfg.MaxPeriodExp-cfg.MinPeriodExp+1)
		period := PeriodSlots(exp)
		// Deadline uniform over [period/2, period] (paper: D_i drawn from
		// [2^{j-1}, 2^j] for P_i = 2^j).
		deadline := period/2 + rng.Intn(period-period/2+1)
		phase := 0
		if cfg.StaggerPhases && period > deadline {
			phase = rng.Intn(period - deadline + 1)
		}
		flows[i] = &Flow{
			ID:       i,
			Src:      src,
			Dst:      dst,
			Period:   period,
			Deadline: deadline,
			Phase:    phase,
		}
	}
	AssignDM(flows)
	return flows, nil
}
