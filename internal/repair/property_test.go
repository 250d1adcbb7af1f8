package repair

import (
	"math/rand"
	"sort"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
	"wsan/internal/topology"
)

// TestRepairPreservesInvariants drives the full pipeline on the real
// topology and checks that repairing random degraded-link sets never breaks
// the schedule: structural validity, release/deadline windows, and route
// ordering all survive, and the repaired links' transmissions end up in
// exclusive cells whenever the repairer claims success.
func TestRepairPreservesInvariants(t *testing.T) {
	tb, err := topology.WUSTL(1)
	if err != nil {
		t.Fatal(err)
	}
	chs := topology.Channels(4)
	gc, err := tb.CommGraph(chs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := tb.ReuseGraph(chs)
	if err != nil {
		t.Fatal(err)
	}
	hop := gr.AllPairsHop()
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flows, err := flow.Generate(rng, gc, flow.GenConfig{
			NumFlows: 40, MinPeriodExp: 0, MaxPeriodExp: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := routing.Assign(flows, gc, routing.Config{Traffic: routing.PeerToPeer}); err != nil {
			t.Fatal(err)
		}
		res, err := scheduler.Run(flows, scheduler.Config{
			Algorithm: scheduler.RA, NumChannels: 4, RhoT: 2, HopGR: hop, Retransmit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Schedulable {
			continue
		}
		sched := res.Schedule
		// Pick a random subset of the reused links as "degraded".
		var degraded []flow.Link
		for l := range sched.ReusedLinks() {
			if rng.Float64() < 0.4 {
				degraded = append(degraded, flow.Link{From: l[0], To: l[1]})
			}
		}
		if len(degraded) == 0 {
			continue
		}
		rep, err := Reschedule(sched, flows, degraded)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Structural validity at the original reuse threshold.
		if err := sched.Validate(hop, 2); err != nil {
			t.Fatalf("seed %d: repaired schedule invalid: %v", seed, err)
		}
		// Every flow instance still complete, ordered, and within deadline.
		checkFlows(t, flows, sched, seed)
		// Moved count + failures must cover all degraded-link shared-cell
		// transmissions.
		stillShared := 0
		for _, tx := range sched.Txs() {
			if !inLinks(degraded, tx.Link) {
				continue
			}
			if len(sched.Cell(tx.Slot, tx.Offset, nil)) > 1 {
				stillShared++
			}
		}
		// A restored victim can become exclusive after a later cell-mate
		// moves away, so "failed" over-approximates what remains shared.
		if stillShared > len(rep.Failed) {
			t.Fatalf("seed %d: %d degraded transmissions still shared but only %d reported failed",
				seed, stillShared, len(rep.Failed))
		}
	}
}

func inLinks(links []flow.Link, l flow.Link) bool {
	for _, x := range links {
		if x == l {
			return true
		}
	}
	return false
}

// checkFlows re-derives the timing invariants from the schedule: every
// instance of every flow has all its transmissions, strictly ordered by
// (hop, attempt) in time, inside its release/deadline window.
func checkFlows(t *testing.T, flows []*flow.Flow, sched *schedule.Schedule, seed int64) {
	t.Helper()
	type key struct{ id, inst int }
	grouped := make(map[key][]schedule.Tx)
	for _, tx := range sched.Txs() {
		grouped[key{tx.FlowID, tx.Instance}] = append(grouped[key{tx.FlowID, tx.Instance}], tx)
	}
	for _, f := range flows {
		instances := sched.NumSlots() / f.Period
		for inst := 0; inst < instances; inst++ {
			txs := grouped[key{f.ID, inst}]
			if len(txs) != len(f.Route)*2 {
				t.Fatalf("seed %d: flow %d inst %d has %d txs, want %d",
					seed, f.ID, inst, len(txs), len(f.Route)*2)
			}
			sort.Slice(txs, func(i, j int) bool {
				if txs[i].Hop != txs[j].Hop {
					return txs[i].Hop < txs[j].Hop
				}
				return txs[i].Attempt < txs[j].Attempt
			})
			release := f.Release(inst)
			deadline := release + f.Deadline - 1
			prev := release - 1
			for _, tx := range txs {
				if tx.Slot <= prev || tx.Slot > deadline {
					t.Fatalf("seed %d: flow %d inst %d slot %d outside (%d, %d]",
						seed, f.ID, inst, tx.Slot, prev, deadline)
				}
				prev = tx.Slot
			}
		}
	}
}
