package schedule

import (
	"bytes"
	"slices"
	"testing"

	"wsan/internal/flow"
)

// FuzzDecode hardens the schedule JSON decoder: arbitrary input must give
// exactly the reference outcome (encoding/json plus the Place loop; see
// checkDecodeAgrees), whether or not the canonical scanner takes it, and a
// decoded schedule must be conflict-free with indexes (see checkIndexes)
// that match its transmission list. The seeds are Encode outputs (the
// empty schedule's included), their single-byte mutations, and
// hand-written non-canonical documents.
func FuzzDecode(f *testing.F) {
	s, err := New(20, 2, 6)
	if err != nil {
		f.Fatal(err)
	}
	for i, tx := range []Tx{
		{FlowID: 0, Link: flow.Link{From: 0, To: 1}, Slot: 0, Offset: 0},
		{FlowID: 1, Link: flow.Link{From: 2, To: 3}, Slot: 0, Offset: 1},
		{FlowID: 2, Link: flow.Link{From: 4, To: 5}, Slot: 7, Offset: 0},
	} {
		if err := s.Place(tx); err != nil {
			f.Fatalf("seed tx %d: %v", i, err)
		}
	}
	for _, seed := range []*Schedule{s, mustNew(f, 3, 1, 2), randomSchedule(f, 4, 30, 3, 8, 5)} {
		var buf bytes.Buffer
		if err := seed.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		// The document and its single-byte mutations: each byte replaced
		// with a digit, a minus or a space, or deleted.
		doc := buf.Bytes()
		f.Add(doc)
		for i := range doc {
			for _, b := range []byte{'0', '-', ' '} {
				m := slices.Clone(doc)
				m[i] = b
				f.Add(m)
			}
			f.Add(slices.Delete(slices.Clone(doc), i, i+1))
		}
	}
	f.Add([]byte(`{"numSlots":10,"numOffsets":1,"numNodes":2,"transmissions":[]}`))
	f.Add([]byte(`{"numSlots":-1}`))
	f.Add([]byte(`{"numSlots":4611686018427387904,"numOffsets":2,"numNodes":4,"transmissions":[]}` + "\n"))
	f.Add([]byte(`{"numSlots":10,"numOffsets":1,"numNodes":4,
	  "transmissions":[{"flow":0,"link":{"from":0,"to":1},"slot":3,"offset":0},
	                   {"flow":1,"link":{"from":1,"to":2},"slot":3,"offset":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAgrees(t, data)
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkIndexes(t, got)
		// No transmission conflicts can survive decoding.
		for slot := 0; slot < got.NumSlots(); slot++ {
			seen := make(map[int]bool)
			for off := 0; off < got.NumOffsets(); off++ {
				for _, tx := range got.Cell(slot, off) {
					if seen[tx.Link.From] || seen[tx.Link.To] {
						t.Fatalf("conflict in decoded schedule at slot %d", slot)
					}
					seen[tx.Link.From] = true
					seen[tx.Link.To] = true
				}
			}
		}
	})
}

// FuzzScheduleOps drives a schedule through arbitrary Place, Remove, Reset
// and Clone sequences and checks after every operation that its indexes —
// the packed link column, the busy, occupancy and slot-full bitsets, the
// busy counts, the cells and the per-flow positions — agree with the
// transmission list, that a slot is full exactly when its occupied offsets
// are 0..M−1 (checkFullSlots), and that Validate gives the reference's
// verdict (checkValidateVerdict). Each op reads four bytes: the op kind and
// three operands. Placements share three flow IDs, so removals move
// transmissions within and across flows' position lists.
func FuzzScheduleOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 3, 4, 0, 0, 5, 6, 1, 1, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 65, 0, 3, 4, 65, 1, 1, 0, 0, 3, 0, 0, 0, 2, 70, 2, 9})
	f.Add([]byte{0, 0, 1, 3, 0, 2, 3, 3, 0, 4, 5, 3, 1, 2, 0, 0, 1, 0, 0, 0})
	// Flows 0, 1, 2, 0, 1, then removing position 0 moves flow 1's last
	// transmission ahead of its first.
	f.Add([]byte{0, 0, 1, 0, 0, 2, 3, 1, 0, 4, 5, 2, 0, 6, 7, 3, 0, 0, 1, 4, 1, 0, 0, 0})
	// Fill slot 0's three offsets, Reset to the same shape and refill one,
	// then Reset to one offset, where a single placement fills its slot.
	f.Add([]byte{0, 0, 1, 0, 0, 10, 3, 0, 0, 20, 5, 0, 2, 79, 2, 6, 0, 0, 1, 0, 2, 79, 0, 6, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(80, 3, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+4 <= len(data); i += 4 {
			op, a, b, c := data[i]%4, int(data[i+1]), int(data[i+2]), int(data[i+3])
			switch op {
			case 0: // place; rejections (conflicts, bad links) are fine
				n := s.NumNodes()
				_ = s.Place(Tx{FlowID: i / 4 % 3, Link: flow.Link{From: a % n, To: b % n},
					Slot: c % s.NumSlots(), Offset: (a / n) % s.NumOffsets()})
			case 1: // remove one placed transmission
				if s.Len() > 0 {
					if err := s.Remove(s.Txs()[a%s.Len()]); err != nil {
						t.Fatalf("op %d: remove placed tx: %v", i/4, err)
					}
				}
			case 2: // reset to new dimensions
				if err := s.Reset(1+a%130, 1+b%4, 2+c%10); err != nil {
					t.Fatalf("op %d: reset: %v", i/4, err)
				}
			case 3:
				s = s.Clone()
			}
			checkIndexes(t, s)
			checkFullSlots(t, s)
			checkFlowTxs(t, s)
			checkValidateVerdict(t, s)
		}
	})
}

// checkFullSlots fails t unless, for every slot, SlotFull, an occupied
// count of NumOffsets, and occupied offsets of exactly 0..M−1 all agree.
// RC's reuse fill relies on it: it reads a full slot's cells by offset
// without listing them.
func checkFullSlots(t testing.TB, s *Schedule) {
	t.Helper()
	var offs []int
	for slot := 0; slot < s.NumSlots(); slot++ {
		offs = s.OccupiedOffsets(slot, offs[:0])
		all := len(offs) == s.NumOffsets()
		for i, off := range offs {
			all = all && off == i
		}
		full, counted := s.SlotFull(slot), s.OccupiedCount(slot) == s.NumOffsets()
		if full != counted || full != all {
			t.Fatalf("slot %d: SlotFull = %v, OccupiedCount = %d of %d, OccupiedOffsets = %v",
				slot, full, s.OccupiedCount(slot), s.NumOffsets(), offs)
		}
	}
}

// checkFlowTxs fails t unless FlowTxs agrees with a filtered pass over Txs,
// order included, for every flow ID present and for one absent ID, and
// appends to the buffer it is given.
func checkFlowTxs(t *testing.T, s *Schedule) {
	t.Helper()
	ids := []int{-1}
	for _, tx := range s.Txs() {
		if !slices.Contains(ids, tx.FlowID) {
			ids = append(ids, tx.FlowID)
		}
	}
	for _, id := range ids {
		want := scanFlowTxs(s, id)
		if got := s.FlowTxs(id, nil); !slices.Equal(got, want) {
			t.Fatalf("FlowTxs(%d) = %v, filtered Txs %v", id, got, want)
		}
		prefix := []Tx{{FlowID: -2}}
		if got := s.FlowTxs(id, prefix); !slices.Equal(got, append(prefix, want...)) {
			t.Fatalf("FlowTxs(%d, prefix) = %v, want the prefix then %v", id, got, want)
		}
	}
}

// scanFlowTxs is the reference FlowTxs: the flow's transmissions, read off
// Txs in order.
func scanFlowTxs(s *Schedule, flowID int) []Tx {
	var txs []Tx
	for _, tx := range s.Txs() {
		if tx.FlowID == flowID {
			txs = append(txs, tx)
		}
	}
	return txs
}

// checkIndexes fails t unless every index of s agrees with its transmission
// list: busy bits and busy counts, each cell's contents, the occupancy row
// and slot-full bit of every slot, and the packed link of every occupied
// cell.
func checkIndexes(t *testing.T, s *Schedule) {
	t.Helper()
	busy := make(map[[2]int]bool)
	cells := make(map[[2]int][]Tx)
	for _, tx := range s.Txs() {
		busy[[2]int{tx.Link.From, tx.Slot}] = true
		busy[[2]int{tx.Link.To, tx.Slot}] = true
		cells[[2]int{tx.Slot, tx.Offset}] = append(cells[[2]int{tx.Slot, tx.Offset}], tx)
	}
	for node := 0; node < s.NumNodes(); node++ {
		n := 0
		for slot := 0; slot < s.NumSlots(); slot++ {
			if s.NodeBusy(node, slot) != busy[[2]int{node, slot}] {
				t.Fatalf("busy bit mismatch at node %d slot %d", node, slot)
			}
			if busy[[2]int{node, slot}] {
				n++
			}
		}
		if s.NodeBusyCount(node) != n {
			t.Fatalf("node %d busy count %d, want %d", node, s.NodeBusyCount(node), n)
		}
	}
	packed := s.numNodes <= maxPackedNodes
	for slot := 0; slot < s.NumSlots(); slot++ {
		links := s.CellLinks(slot)
		if packed != (links != nil) {
			t.Fatalf("slot %d: CellLinks nil=%v with %d nodes", slot, links == nil, s.NumNodes())
		}
		var occ []int
		for off := 0; off < s.NumOffsets(); off++ {
			want, got := cells[[2]int{slot, off}], s.Cell(slot, off)
			slices.SortFunc(want, cmpTx)
			got = slices.Clone(got)
			slices.SortFunc(got, cmpTx)
			if !slices.Equal(got, want) {
				t.Fatalf("cell (%d,%d) = %v, want %v", slot, off, got, want)
			}
			if len(want) == 0 {
				continue
			}
			occ = append(occ, off)
			if links == nil {
				continue
			}
			link := SharedCell
			if len(want) == 1 {
				link = uint32(want[0].Link.From)<<16 | uint32(want[0].Link.To)
			}
			if links[off] != link {
				t.Fatalf("cell (%d,%d): packed link %#x, want %#x", slot, off, links[off], link)
			}
		}
		if got := s.OccupiedOffsets(slot, nil); !slices.Equal(got, occ) {
			t.Fatalf("slot %d: occupied offsets %v, want %v", slot, got, occ)
		}
		if full := len(occ) == s.NumOffsets(); s.SlotFull(slot) != full {
			t.Fatalf("slot %d: SlotFull = %v, want %v", slot, s.SlotFull(slot), full)
		}
	}
}

// cmpTx orders transmissions by flow, instance, hop and attempt, then slot.
func cmpTx(a, b Tx) int {
	for _, d := range []int{a.FlowID - b.FlowID, a.Instance - b.Instance, a.Hop - b.Hop,
		a.Attempt - b.Attempt, a.Slot - b.Slot, a.Link.From - b.Link.From} {
		if d != 0 {
			return d
		}
	}
	return 0
}
