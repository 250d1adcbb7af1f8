package scheduler

import (
	"math/rand"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/schedule"
)

// bruteLaxity recomputes Eq. 1 slot by slot, without bitsets: laxity =
// (d − s) − Σ_{t ∈ T_post} q^t_{s+1,d} − |T_post|.
func bruteLaxity(sched *schedule.Schedule, f *flow.Flow, tx schedule.Tx, s, deadline, attempts int) int {
	seq := tx.Hop*attempts + tx.Attempt
	post := 0
	conflicts := 0
	for next := seq + 1; next < len(f.Route)*attempts; next++ {
		post++
		link := f.Route[next/attempts]
		for slot := s + 1; slot <= deadline && slot < sched.NumSlots(); slot++ {
			if sched.NodeBusy(link.From, slot) || sched.NodeBusy(link.To, slot) {
				conflicts++
			}
		}
	}
	return deadline - s - post - conflicts
}

// TestLaxityMatchesBruteForce checks the engine's bitset-based laxity
// against the direct recount on randomized schedules, flows, and candidate
// slots.
func TestLaxityMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		numSlots := 40 + rng.Intn(120)
		sched, err := schedule.New(numSlots, 2, 12)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
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
		attempts := 1 + rng.Intn(2)
		eng := newEngine(Config{Algorithm: RC, NumChannels: 2, RhoT: 2,
			Retransmit: attempts == 2}, sched, 0)
		eng.setFlow(f)
		hop := rng.Intn(hops)
		tx := schedule.Tx{
			FlowID:  0,
			Hop:     hop,
			Attempt: rng.Intn(attempts),
			Link:    f.Route[hop],
		}
		deadline := f.Deadline - 1
		s := rng.Intn(deadline + 1)
		seq := tx.Hop*attempts + tx.Attempt
		remaining := len(f.Route)*attempts - seq - 1
		got := eng.laxity(f, &tx, s, deadline, remaining)
		want := bruteLaxity(sched, f, tx, s, deadline, attempts)
		// The index path short-circuits in both directions — a negative
		// slot/count budget returns early (the conflict sum only lowers it),
		// and the busy-count certificate proves a pass without the exact sum
		// — so its magnitude is a bound; the sign is the contract every
		// placement decision consumes.
		if (got >= 0) != (want >= 0) {
			t.Fatalf("iter %d: laxity sign = %d, brute force = %d (s=%d d=%d hop=%d attempts=%d)",
				iter, got, want, s, deadline, hop, attempts)
		}
	}
}
