package schedule

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"wsan/internal/flow"
)

func TestDiffAndApply(t *testing.T) {
	old := mustNew(t, 20, 2, 8)
	for _, p := range []Tx{
		tx(0, 0, 1, 0, 0),
		tx(1, 2, 3, 1, 0),
		tx(2, 4, 5, 2, 1),
	} {
		if err := old.Place(p); err != nil {
			t.Fatal(err)
		}
	}
	// New state: flow 1's transmission moved from slot 1 to slot 5.
	new := old.Clone()
	moved := tx(1, 2, 3, 1, 0)
	if err := new.Remove(moved); err != nil {
		t.Fatal(err)
	}
	moved.Slot = 5
	if err := new.Place(moved); err != nil {
		t.Fatal(err)
	}
	changes, err := Diff(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 2 {
		t.Fatalf("delta = %v, want 2 entries", changes)
	}
	if changes[0].Kind != Removed || changes[0].Tx.Slot != 1 {
		t.Errorf("first change = %+v, want removal at slot 1", changes[0])
	}
	if changes[1].Kind != Added || changes[1].Tx.Slot != 5 {
		t.Errorf("second change = %+v, want addition at slot 5", changes[1])
	}
	// Affected devices: only the moved link's endpoints.
	devs := AffectedDevices(changes)
	if len(devs) != 2 || devs[0] != 2 || devs[1] != 3 {
		t.Errorf("affected devices = %v, want [2 3]", devs)
	}
	// Replaying the delta onto the old schedule reproduces the new one.
	replay := old.Clone()
	if err := Apply(replay, changes); err != nil {
		t.Fatal(err)
	}
	again, err := Diff(replay, new)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Errorf("replayed schedule still differs: %v", again)
	}
}

func TestDiffIdentical(t *testing.T) {
	s := mustNew(t, 10, 1, 4)
	if err := s.Place(tx(0, 0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	changes, err := Diff(s, s.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Errorf("identical schedules differ: %v", changes)
	}
}

func TestDiffErrors(t *testing.T) {
	s := mustNew(t, 10, 1, 4)
	if _, err := Diff(nil, s); err == nil {
		t.Error("nil old should fail")
	}
	other := mustNew(t, 20, 1, 4)
	if _, err := Diff(s, other); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestApplyErrors(t *testing.T) {
	s := mustNew(t, 10, 1, 4)
	bad := []Change{{Kind: Removed, Tx: tx(0, 0, 1, 3, 0)}}
	if err := Apply(s, bad); err == nil {
		t.Error("removing an absent transmission should fail")
	}
	if err := s.Place(tx(0, 0, 1, 3, 0)); err != nil {
		t.Fatal(err)
	}
	conflict := []Change{{Kind: Added, Tx: tx(1, 1, 2, 3, 0)}}
	if err := Apply(s, conflict); err == nil {
		t.Error("conflicting addition should fail")
	}
}

func TestChangeKindString(t *testing.T) {
	if Added.String() != "add" || Removed.String() != "remove" {
		t.Error("ChangeKind.String wrong")
	}
	if !strings.Contains(ChangeKind(9).String(), "9") {
		t.Error("unknown kind should include number")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := mustNew(t, 10, 1, 4)
	if err := s.Place(tx(0, 0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	cp := s.Clone()
	if err := cp.Place(tx(1, 2, 3, 5, 0)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || cp.Len() != 2 {
		t.Errorf("clone not independent: %d vs %d", s.Len(), cp.Len())
	}
}

// sortChangesReference is SortChanges as it was written with sort.Slice,
// kept verbatim as the reference for the typed sort.
func sortChangesReference(changes []Change) {
	sort.Slice(changes, func(i, j int) bool {
		a, b := changes[i], changes[j]
		if a.Kind != b.Kind {
			return a.Kind == Removed
		}
		if a.Tx.Slot != b.Tx.Slot {
			return a.Tx.Slot < b.Tx.Slot
		}
		if a.Tx.FlowID != b.Tx.FlowID {
			return a.Tx.FlowID < b.Tx.FlowID
		}
		if a.Tx.Hop != b.Tx.Hop {
			return a.Tx.Hop < b.Tx.Hop
		}
		return a.Tx.Attempt < b.Tx.Attempt
	})
}

// TestSortChangesMatchesReference sorts random valid change sets, both
// kinds mixed, with SortChanges and the sort.Slice reference: within a
// kind no two changes share a slot, flow, hop and attempt, while a removal
// and an addition may (a transmission moved to another offset). Both
// orders must agree, and Invert must round-trip.
func TestSortChangesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		var changes []Change
		for _, kind := range []ChangeKind{Removed, Added} {
			type key struct{ slot, flow, hop, attempt int }
			used := map[key]bool{}
			for i := rng.Intn(40); i > 0; i-- {
				k := key{rng.Intn(8), rng.Intn(6), rng.Intn(4), rng.Intn(2)}
				if used[k] {
					continue
				}
				used[k] = true
				changes = append(changes, Change{Kind: kind, Tx: Tx{
					FlowID: k.flow, Instance: rng.Intn(3), Hop: k.hop, Attempt: k.attempt,
					Link: flow.Link{From: rng.Intn(10), To: rng.Intn(10)},
					Slot: k.slot, Offset: rng.Intn(4),
				}})
			}
		}
		rng.Shuffle(len(changes), func(i, j int) { changes[i], changes[j] = changes[j], changes[i] })
		got := slices.Clone(changes)
		SortChanges(got)
		sortChangesReference(changes)
		if !slices.Equal(got, changes) {
			t.Fatalf("trial %d: SortChanges = %v, reference %v", trial, got, changes)
		}
		if back := Invert(Invert(got)); !slices.Equal(back, got) {
			t.Fatalf("trial %d: Invert(Invert(c)) = %v, want %v", trial, back, got)
		}
	}
}

// refDiff is Diff as it was before it netted a journal: two transmission
// sets, then SortChanges. It is kept verbatim as the reference checkDiff
// holds Diff to.
func refDiff(old, new *Schedule) ([]Change, error) {
	if old == nil || new == nil {
		return nil, fmt.Errorf("diff: nil schedule")
	}
	if old.NumSlots() != new.NumSlots() || old.NumOffsets() != new.NumOffsets() {
		return nil, fmt.Errorf("diff: dimensions differ (%d×%d vs %d×%d)",
			old.NumSlots(), old.NumOffsets(), new.NumSlots(), new.NumOffsets())
	}
	oldSet := make(map[Tx]bool, old.Len())
	for _, tx := range old.Txs() {
		oldSet[tx] = true
	}
	newSet := make(map[Tx]bool, new.Len())
	for _, tx := range new.Txs() {
		newSet[tx] = true
	}
	var changes []Change
	for tx := range oldSet {
		if !newSet[tx] {
			changes = append(changes, Change{Kind: Removed, Tx: tx})
		}
	}
	for tx := range newSet {
		if !oldSet[tx] {
			changes = append(changes, Change{Kind: Added, Tx: tx})
		}
	}
	SortChanges(changes)
	return changes, nil
}

// compareChanges is Diff's whole order: removals first, then by slot, flow,
// hop, attempt, instance, offset and link. It refines SortChanges' key,
// which leaves two changes of one kind tied when they share a slot, flow,
// hop and attempt (transmissions a grid can hold when, as in
// FuzzScheduleOps, one flow's hop runs over two links).
func compareChanges(a, b Change) int {
	return cmp.Or(cmp.Compare(b.Kind, a.Kind), cmp.Compare(a.Tx.Slot, b.Tx.Slot),
		cmp.Compare(a.Tx.FlowID, b.Tx.FlowID), cmp.Compare(a.Tx.Hop, b.Tx.Hop), cmp.Compare(a.Tx.Attempt, b.Tx.Attempt),
		cmp.Compare(a.Tx.Instance, b.Tx.Instance), cmp.Compare(a.Tx.Offset, b.Tx.Offset),
		cmp.Compare(a.Tx.Link.From, b.Tx.Link.From), cmp.Compare(a.Tx.Link.To, b.Tx.Link.To))
}

// checkDiff fails t unless Diff(old, new) gives refDiff's error, or
// refDiff's changes (nil when there are none) with SortChanges' ties put in
// compareChanges' order.
func checkDiff(t *testing.T, old, new *Schedule) {
	t.Helper()
	got, err := Diff(old, new)
	want, wantErr := refDiff(old, new)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Diff error %v, reference %v", err, wantErr)
	}
	slices.SortStableFunc(want, compareChanges)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Diff gave\n%v\nreference\n%v", got, want)
	}
}

// TestDiffMatchesReference holds Diff to refDiff on churned grids, one with
// slots past 2^16, whose clustered slots hold many transmissions each:
// random placements and removals from a common start, compared both ways,
// and equal grids, whose delta is nil.
func TestDiffMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, slots := range []int{40, 1 << 17} {
		old := mustNew(t, slots, 2, 24)
		for i := 0; i < 600; i++ {
			u := r.Intn(24)
			_ = old.Place(Tx{FlowID: r.Intn(5), Instance: r.Intn(3), Hop: r.Intn(3), Attempt: r.Intn(2),
				Link: flow.Link{From: u, To: (u + 1 + r.Intn(23)) % 24}, Slot: slotNear(r, slots), Offset: r.Intn(2)})
		}
		checkDiff(t, old, old.Clone())
		new := old.Clone()
		for i := 0; i < 300; i++ {
			if r.Intn(2) == 0 && new.Len() > 0 {
				_ = new.Remove(new.Txs()[r.Intn(new.Len())])
				continue
			}
			u := r.Intn(24)
			_ = new.Place(Tx{FlowID: r.Intn(5), Instance: r.Intn(3), Hop: r.Intn(3), Attempt: r.Intn(2),
				Link: flow.Link{From: u, To: (u + 1 + r.Intn(23)) % 24}, Slot: slotNear(r, slots), Offset: r.Intn(2)})
		}
		checkDiff(t, old, new)
		checkDiff(t, new, old)
	}
}

// slotNear draws a slot of a slots-slot grid from a few clusters near its
// start, middle and end, so slots repeat often.
func slotNear(r *rand.Rand, slots int) int {
	base := []int{0, slots / 2, slots - 8}[r.Intn(3)]
	return max(0, min(slots-1, base+r.Intn(8)))
}

// TestNetJournalEdges: an empty journal nets to an empty, non-nil delta, a
// journal that cancels whole does too, and a slot outside [0, 2^31−1)
// panics instead of sorting out of place.
func TestNetJournalEdges(t *testing.T) {
	a := tx(3, 0, 1, 5, 0)
	for _, journal := range [][]Change{nil, {{Kind: Removed, Tx: a}, {Kind: Added, Tx: a}}} {
		if got, _ := NetJournal(journal, nil); got == nil || len(got) != 0 {
			t.Fatalf("NetJournal(%v) = %#v, want empty and non-nil", journal, got)
		}
	}
	for _, slot := range []int{-1, 1 << 31, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("slot %d: no panic", slot)
				}
			}()
			b := a
			b.Slot = slot
			NetJournal([]Change{{Kind: Added, Tx: b}}, nil)
		}()
	}
}
