package schedule

import (
	"bytes"
	"slices"
	"testing"

	"wsan/internal/flow"
)

// FuzzDecode hardens the schedule JSON decoder: arbitrary input must either
// error or produce a conflict-free schedule whose indexes (see
// checkIndexes) match its transmission list.
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
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"numSlots":10,"numOffsets":1,"numNodes":2,"transmissions":[]}`))
	f.Add([]byte(`{"numSlots":-1}`))
	f.Add([]byte(`{"numSlots":10,"numOffsets":1,"numNodes":4,
	  "transmissions":[{"flow":0,"link":{"from":0,"to":1},"slot":3,"offset":0},
	                   {"flow":1,"link":{"from":1,"to":2},"slot":3,"offset":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
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
// busy counts and the cells — agree with the transmission list. Each op
// reads four bytes: the op kind and three operands.
func FuzzScheduleOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 3, 4, 0, 0, 5, 6, 1, 1, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 65, 0, 3, 4, 65, 1, 1, 0, 0, 3, 0, 0, 0, 2, 70, 2, 9})
	f.Add([]byte{0, 0, 1, 3, 0, 2, 3, 3, 0, 4, 5, 3, 1, 2, 0, 0, 1, 0, 0, 0})
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
				_ = s.Place(Tx{FlowID: i, Link: flow.Link{From: a % n, To: b % n},
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
		}
	})
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
