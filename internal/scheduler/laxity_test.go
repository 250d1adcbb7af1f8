package scheduler

import (
	"math/rand"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/schedule"
)

// bruteConflicts recomputes Eq. 1's conflict term slot by slot, without
// bitsets: Σ_{t ∈ T_post} q^t_{s+1,d}, where T_post is every transmission
// of the instance after tx (the rest of tx's hop, then every attempt of
// each later hop) and q^t counts the slots of (s, d], clamped to the grid,
// in which an endpoint of t's link is busy. It returns the term and
// |T_post|.
func bruteConflicts(sched *schedule.Schedule, f *flow.Flow, tx schedule.Tx, s, deadline, base int) (conflicts, post int) {
	for hop := tx.Hop; hop < len(f.Route); hop++ {
		first := 0
		if hop == tx.Hop {
			first = tx.Attempt + 1
		}
		link := f.Route[hop]
		for attempt := first; attempt < f.HopAttempts(hop, base); attempt++ {
			post++
			for slot := s + 1; slot <= deadline && slot < sched.NumSlots(); slot++ {
				if sched.NodeBusy(link.From, slot) || sched.NodeBusy(link.To, slot) {
					conflicts++
				}
			}
		}
	}
	return conflicts, post
}

// TestLaxityMatchesBruteForce checks the engine's bitset-based Eq. 1
// against the direct recount on randomized schedules, flows, per-hop
// budgets and candidate slots: conflicts must equal the slot-by-slot
// conflict term exactly, and laxity must agree with it in sign. Grids run
// up to 300 slots, so windows cross word boundaries; some candidates sit
// on the deadline itself (an empty window) and some deadlines lie past the
// grid's last slot, where the window is clamped.
func TestLaxityMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 600; iter++ {
		numSlots := 40 + rng.Intn(261)
		sched, err := schedule.New(numSlots, 2, 12)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < numSlots/2; i++ {
			a, b := rng.Intn(12), rng.Intn(12)
			if a == b {
				continue
			}
			// Conflicting placements simply fail; that is fine here.
			_ = sched.Place(schedule.Tx{
				FlowID: 100 + i,
				Link:   flow.Link{From: a, To: b},
				Slot:   rng.Intn(numSlots),
				Offset: rng.Intn(2),
			})
		}
		perm := rng.Perm(12)
		hops := 2 + rng.Intn(4)
		f := &flow.Flow{ID: 0, Src: perm[0], Dst: perm[hops],
			Period: numSlots, Deadline: numSlots/2 + rng.Intn(numSlots/2)}
		for h := 0; h < hops; h++ {
			f.Route = append(f.Route, flow.Link{From: perm[h], To: perm[h+1]})
		}
		if rng.Intn(2) == 0 {
			for range f.Route {
				f.TxBudget = append(f.TxBudget, 1+rng.Intn(3))
			}
		}
		retransmit := rng.Intn(2) == 0
		eng := newEngine(Config{Algorithm: RC, NumChannels: 2, RhoT: 2,
			Retransmit: retransmit}, sched, 0)
		eng.setFlow(f)
		base := eng.cfg.attempts()
		hop := rng.Intn(hops)
		tx := schedule.Tx{
			FlowID:  0,
			Hop:     hop,
			Attempt: rng.Intn(f.HopAttempts(hop, base)),
			Link:    f.Route[hop],
		}
		deadline := f.Deadline - 1
		if iter%5 == 0 {
			deadline = numSlots - 1 + rng.Intn(40) // clamped to the last slot
		}
		s := rng.Intn(min(deadline, numSlots-1) + 1)
		if iter%7 == 0 {
			s = min(deadline, numSlots-1)
		}
		wantC, remaining := bruteConflicts(sched, f, tx, s, deadline, base)
		if got := eng.conflicts(f, &tx, s, deadline); got != wantC {
			t.Fatalf("iter %d: conflicts = %d, brute force = %d (slots=%d s=%d d=%d hop=%d attempt=%d budget=%v)",
				iter, got, wantC, numSlots, s, deadline, hop, tx.Attempt, f.TxBudget)
		}
		got := eng.laxity(f, &tx, s, deadline, remaining)
		want := deadline - s - remaining - wantC
		// The index path short-circuits in both directions — a negative
		// slot/count budget returns early (the conflict sum only lowers it),
		// and the busy-count certificate proves a pass without the exact sum
		// — so its magnitude is a bound; the sign is the contract every
		// placement decision consumes.
		if (got >= 0) != (want >= 0) {
			t.Fatalf("iter %d: laxity sign = %d, brute force = %d (s=%d d=%d hop=%d attempt=%d)",
				iter, got, want, s, deadline, hop, tx.Attempt)
		}
	}
}
