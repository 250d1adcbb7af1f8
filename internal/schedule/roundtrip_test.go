package schedule

import (
	"bytes"
	"math/rand"
	"testing"

	"wsan/internal/flow"
)

// randomSchedule builds a conflict-free schedule by repeatedly attempting
// random placements — the structural shapes Diff/Apply/Clone must survive.
func randomSchedule(t testing.TB, seed int64, slots, offsets, nodes, placements int) *Schedule {
	t.Helper()
	s, err := New(slots, offsets, nodes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for placed := 0; placed < placements; {
		from := rng.Intn(nodes)
		to := rng.Intn(nodes)
		if from == to {
			continue
		}
		tx := Tx{
			Link:    flow.Link{From: from, To: to},
			Slot:    rng.Intn(slots),
			Offset:  rng.Intn(offsets),
			FlowID:  rng.Intn(6),
			Hop:     rng.Intn(4),
			Attempt: rng.Intn(2),
		}
		if err := s.Place(tx); err != nil {
			continue // conflict: try another placement
		}
		placed++
	}
	return s
}

// txSet projects a schedule onto a comparable set.
func txSet(s *Schedule) map[Tx]bool {
	set := make(map[Tx]bool, s.Len())
	for _, tx := range s.Txs() {
		set[tx] = true
	}
	return set
}

func sameTxSet(a, b *Schedule) bool {
	as, bs := txSet(a), txSet(b)
	if len(as) != len(bs) {
		return false
	}
	for tx := range as {
		if !bs[tx] {
			return false
		}
	}
	return true
}

// TestDiffApplyRoundTrip pins the manager's dissemination invariant over
// randomized schedules: for any old and new state with the same dimensions,
// Apply(old, Diff(old, new)) == new.
func TestDiffApplyRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		oldS := randomSchedule(t, seed, 40, 4, 12, 25)
		newS := randomSchedule(t, seed+100, 40, 4, 12, 25)
		delta, err := Diff(oldS, newS)
		if err != nil {
			t.Fatal(err)
		}
		replay := oldS.Clone()
		if err := Apply(replay, delta); err != nil {
			t.Fatalf("seed %d: apply: %v", seed, err)
		}
		if !sameTxSet(replay, newS) {
			t.Fatalf("seed %d: applying the delta did not reproduce the new schedule", seed)
		}
		// The replayed state diffs empty against the target.
		empty, err := Diff(replay, newS)
		if err != nil {
			t.Fatal(err)
		}
		if len(empty) != 0 {
			t.Fatalf("seed %d: residual delta of %d entries", seed, len(empty))
		}
	}
}

// TestCloneDiffApplyIsolation verifies the clone-edit-diff cycle the
// management loop runs every iteration: mutating the original never leaks
// into the clone, and the delta converts one into the other exactly.
func TestCloneDiffApplyIsolation(t *testing.T) {
	s := randomSchedule(t, 42, 30, 3, 10, 18)
	before := s.Clone()
	if !sameTxSet(s, before) {
		t.Fatal("clone must equal its source")
	}
	// Mutate the original: drop a third of the transmissions and add fresh
	// ones where they fit.
	txs := append([]Tx(nil), s.Txs()...)
	for i, tx := range txs {
		if i%3 == 0 {
			if err := s.Remove(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for placed := 0; placed < 5; {
		tx := Tx{
			Link:   flow.Link{From: rng.Intn(10), To: (rng.Intn(9) + 1)},
			Slot:   rng.Intn(30),
			Offset: rng.Intn(3),
			FlowID: rng.Intn(6),
		}
		if tx.Link.From == tx.Link.To {
			continue
		}
		if err := s.Place(tx); err != nil {
			continue
		}
		placed++
	}
	if sameTxSet(s, before) {
		t.Fatal("mutating the original leaked into the clone")
	}
	delta, err := Diff(before, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(before, delta); err != nil {
		t.Fatal(err)
	}
	if !sameTxSet(s, before) {
		t.Fatal("delta replay did not converge the clone onto the mutated original")
	}
}

// TestJSONDiffRoundTrip ties serialization to the diff invariant: a
// schedule decoded from its own encoding diffs empty against the original,
// and a delta computed across an encode/decode boundary still applies.
func TestJSONDiffRoundTrip(t *testing.T) {
	s := randomSchedule(t, 9, 40, 4, 12, 25)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := Diff(s, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != 0 {
		t.Fatalf("decode changed the schedule by %d delta entries", len(delta))
	}
	// Re-encoding the decoded schedule is byte-stable.
	var again bytes.Buffer
	if err := decoded.Encode(&again); err != nil {
		t.Fatal(err)
	}
	var third bytes.Buffer
	if err := s.Encode(&third); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), third.Bytes()) {
		t.Fatal("re-encoding is not byte-stable")
	}
}
