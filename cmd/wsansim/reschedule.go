package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"wsan"
	"wsan/internal/flow"
	"wsan/internal/obs"
	"wsan/internal/schedule"
	"wsan/internal/topology"
)

// runReschedule implements the reschedule subcommand: it applies one
// incremental flow-delta (add, remove, or reroute) to a gen-schedule
// artifact directory through the delta scheduler, pinning every unaffected
// flow's transmissions, and writes the updated workload and schedule back.
func runReschedule(args []string, mets obs.Sink) error {
	fs := flag.NewFlagSet("reschedule", flag.ContinueOnError)
	dir := fs.String("dir", ".", "directory holding the gen-schedule artifacts")
	op := fs.String("op", "", "delta operation: add, remove, or reroute (required)")
	flowID := fs.Int("flow", -1, "target flow ID (add: the new flow's ID; default next free)")
	src := fs.Int("src", -1, "add: source node")
	dst := fs.Int("dst", -1, "add: destination node")
	period := fs.Int("period", 0, "add: period in slots (must divide the slotframe)")
	deadline := fs.Int("deadline", 0, "add: relative deadline in slots (default: the period)")
	phase := fs.Int("phase", 0, "add: release phase in slots")
	avoid := fs.String("avoid", "", "reroute: comma-separated node IDs the new route must avoid")
	alg := fs.String("alg", "rc", "scheduler for the delta placements (nr|ra|rc)")
	rhoT := fs.Int("rho", 2, "minimum channel-reuse distance ρ_t (ra|rc)")
	channels := fs.Int("channels", 4, "number of channels the schedule uses")
	if err := fs.Parse(args); err != nil {
		return err
	}
	algorithm, err := wsan.ParseAlgorithm(*alg)
	if err != nil {
		return err
	}
	tb, err := readArtifact(*dir, "survey.json", topology.Decode)
	if err != nil {
		return err
	}
	flows, err := readArtifact(*dir, "workload.json", flow.DecodeWorkload)
	if err != nil {
		return err
	}
	sched, err := readArtifact(*dir, "schedule.json", schedule.Decode)
	if err != nil {
		return err
	}
	net, err := wsan.NewNetwork(tb, *channels)
	if err != nil {
		return err
	}
	// Keep the artifact's retry depth: infer whether it was scheduled with
	// retransmission slots from the placed transmissions.
	retransmit := false
	for _, tx := range sched.Txs() {
		if tx.Attempt > 0 {
			retransmit = true
			break
		}
	}
	res := &wsan.ScheduleResult{Schedule: sched, Schedulable: true, FailedFlow: -1}
	cfg := wsan.ScheduleConfig{RhoT: *rhoT, DisableRetransmit: !retransmit, Metrics: mets}

	var delta *wsan.DeltaResult
	switch *op {
	case "add":
		if *period <= 0 {
			return fmt.Errorf("reschedule add: -period is required (slots)")
		}
		if *src < 0 || *dst < 0 || *src == *dst {
			return fmt.Errorf("reschedule add: distinct -src and -dst are required")
		}
		id := *flowID
		if id < 0 {
			for _, f := range flows {
				if f.ID >= id {
					id = f.ID + 1
				}
			}
			if id < 0 {
				id = 0
			}
		}
		dl := *deadline
		if dl == 0 {
			dl = *period
		}
		f := &wsan.Flow{ID: id, Src: *src, Dst: *dst, Period: *period, Deadline: dl, Phase: *phase}
		f.Route, err = net.RouteAvoiding(*src, *dst, nil)
		if err != nil {
			return err
		}
		delta, err = net.AddFlowDelta(res, flows, f, algorithm, cfg)
		if err != nil {
			return err
		}
		if delta.Schedulable {
			flows = insertFlowByID(flows, f)
		}
	case "remove":
		if *flowID < 0 {
			return fmt.Errorf("reschedule remove: -flow is required")
		}
		delta, err = net.RemoveFlowDelta(res, *flowID, mets)
		if err != nil {
			return err
		}
		kept := flows[:0]
		for _, f := range flows {
			if f.ID != *flowID {
				kept = append(kept, f)
			}
		}
		flows = kept
	case "reroute":
		if *flowID < 0 {
			return fmt.Errorf("reschedule reroute: -flow is required")
		}
		var target *wsan.Flow
		for _, f := range flows {
			if f.ID == *flowID {
				target = f
				break
			}
		}
		if target == nil {
			return fmt.Errorf("reschedule reroute: flow %d not in %s/workload.json", *flowID, *dir)
		}
		avoidNodes, err := parseAvoid(*avoid)
		if err != nil {
			return err
		}
		route, err := net.RouteAvoiding(target.Src, target.Dst, avoidNodes)
		if err != nil {
			return err
		}
		delta, err = net.RerouteFlowDelta(res, flows, *flowID, route, algorithm, cfg)
		if err != nil {
			return err
		}
		if delta.Schedulable {
			target.Route = route
		}
	case "":
		return fmt.Errorf("reschedule: -op is required (add, remove, or reroute)")
	default:
		return fmt.Errorf("reschedule: unknown op %q (want add, remove, or reroute)", *op)
	}
	if !delta.Schedulable {
		return fmt.Errorf("delta %s not schedulable under %v (flow %d missed its deadline; schedule left unchanged)",
			*op, algorithm, delta.FailedFlow)
	}
	if err := writeArtifact(*dir, "workload.json", func(w io.Writer) error {
		return flow.EncodeWorkload(w, flows)
	}); err != nil {
		return err
	}
	if err := writeArtifact(*dir, "schedule.json", sched.Encode); err != nil {
		return err
	}
	fmt.Printf("%s applied via %s fallback: %d changes (%d placement ops, %d removal ops) in %v\n",
		*op, delta.Fallback, len(delta.Changes), delta.PlacementOps, delta.RemovalOps,
		delta.Elapsed.Round(10e3))
	if len(delta.Evicted) > 0 {
		fmt.Printf("evicted and re-placed flows: %v\n", delta.Evicted)
	}
	fmt.Printf("schedule now %d transmissions in %d slots; artifacts updated in %s\n",
		sched.Len(), sched.NumSlots(), *dir)
	return nil
}

// insertFlowByID inserts f keeping the slice sorted by ID (priority order).
func insertFlowByID(flows []*wsan.Flow, f *wsan.Flow) []*wsan.Flow {
	at := len(flows)
	for i, g := range flows {
		if g.ID > f.ID {
			at = i
			break
		}
	}
	flows = append(flows, nil)
	copy(flows[at+1:], flows[at:])
	flows[at] = f
	return flows
}

// parseAvoid parses a comma-separated node-ID list.
func parseAvoid(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("reschedule: bad -avoid entry %q: %w", p, err)
		}
		out = append(out, n)
	}
	return out, nil
}
