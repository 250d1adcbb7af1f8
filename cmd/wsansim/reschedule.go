package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"wsan/internal/jobs"
	"wsan/internal/obs"
)

// runReschedule implements the reschedule subcommand: the reschedule job.
// It applies one incremental flow-delta (add, remove, or reroute) to a
// gen-schedule artifact directory through the delta scheduler, pinning
// every unaffected flow's transmissions, and writes the updated bundle
// back together with delta.json and summary.json.
func runReschedule(args []string, mets obs.Sink) error {
	p := jobs.Defaults(&jobs.RescheduleParams{})
	fs := flag.NewFlagSet("reschedule", flag.ContinueOnError)
	fs.StringVar(&p.Artifact, "dir", ".", "directory holding the gen-schedule artifacts")
	fs.StringVar(&p.Op, "op", "", "delta operation: add, remove, or reroute (required)")
	fs.IntVar(&p.Flow, "flow", -1, "target flow ID (add: the new flow's ID; default next free)")
	src := fs.Int("src", -1, "add: source node")
	dst := fs.Int("dst", -1, "add: destination node")
	period := fs.Int("period", 0, "add: period in slots (must divide the slotframe)")
	deadline := fs.Int("deadline", 0, "add: relative deadline in slots (default: the period)")
	phase := fs.Int("phase", 0, "add: release phase in slots")
	avoid := fs.String("avoid", "", "reroute: comma-separated node IDs the new route must avoid")
	fs.StringVar(&p.Alg, "alg", p.Alg, "scheduler for the delta placements (nr|ra|rc)")
	fs.IntVar(&p.RhoT, "rho", p.RhoT, "minimum channel-reuse distance ρ_t (ra|rc)")
	channels := fs.Int("channels", jobs.DefaultChannels, "number of channels the schedule uses")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if p.Op == "" {
		return fmt.Errorf("reschedule: -op is required (add, remove, or reroute)")
	}
	if p.Flow < 0 && (p.Op == "remove" || p.Op == "reroute") {
		return fmt.Errorf("reschedule %s: -flow is required", p.Op)
	}
	env, err := dirEnv(p.Artifact, *channels, mets)
	if err != nil {
		return err
	}
	// Flags that do not apply to the op are ignored, not rejected.
	switch p.Op {
	case "add":
		p.Src, p.Dst, p.Period, p.Deadline, p.Phase = *src, *dst, *period, *deadline, *phase
		if p.Flow < 0 {
			_, flows, _, err := env.LoadBundle(p.Artifact)
			if err != nil {
				return err
			}
			p.Flow = 0
			for _, f := range flows {
				p.Flow = max(p.Flow, f.ID+1)
			}
		}
	case "reroute":
		if p.Avoid, err = parseAvoid(*avoid); err != nil {
			return err
		}
	}
	parts, err := jobs.Exec(context.Background(), env, p)
	if err != nil {
		return fmt.Errorf("reschedule: %w", err)
	}
	if _, err := writeParts(p.Artifact, parts); err != nil {
		return err
	}
	var delta struct {
		Fallback                 string
		Evicted                  []int
		PlacementOps, RemovalOps int
		Changes                  []json.RawMessage
	}
	if err := json.Unmarshal(parts["delta.json"], &delta); err != nil {
		return err
	}
	var sum struct{ Transmissions, Slots int }
	if err := json.Unmarshal(parts["summary.json"], &sum); err != nil {
		return err
	}
	fmt.Printf("%s applied via %s fallback: %d changes (%d placement ops, %d removal ops)\n",
		p.Op, delta.Fallback, len(delta.Changes), delta.PlacementOps, delta.RemovalOps)
	if len(delta.Evicted) > 0 {
		fmt.Printf("evicted and re-placed flows: %v\n", delta.Evicted)
	}
	fmt.Printf("schedule now %d transmissions in %d slots; artifacts updated in %s\n",
		sum.Transmissions, sum.Slots, p.Artifact)
	return nil
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
