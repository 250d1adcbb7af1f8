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
				for _, p := range got.Cell(slot, off, nil) {
					tx := got.Txs()[p]
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

// FuzzScheduleOps drives a schedule through arbitrary Place, Remove,
// RemoveFlow, Reset and Clone sequences and checks after every operation
// that its indexes —
// the packed link column, the busy, occupancy and slot-full bitsets, the
// busy counts, the cell lists and the per-flow positions — agree with the
// transmission list, that every cell lists its occupants in placement order
// (checkCellOrder, against an ordered per-cell model), that a slot is full
// exactly when its occupied offsets are 0..M−1 (checkFullSlots), and that
// Validate gives the reference's verdict (checkValidateVerdict). Each op
// reads four bytes: the op kind and three operands. Placements share three
// flow IDs, so removals move transmissions within and across flows'
// position lists. A whole-flow removal must leave exactly what a loop of
// Remove leaves on an exact copy (checkRemoveFlow). Only the first
// maxScheduleOps ops of an input run (see there).
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
	// Flows 0, 1, 2, 0, 1, 2, then flow 0 removed whole: flow 2's last
	// transmission fills its first hole and flow 1's its second; then flow
	// 2 and the absent flow 3.
	f.Add([]byte{0, 0, 1, 0, 0, 2, 3, 1, 0, 4, 5, 2, 0, 6, 7, 3, 0, 0, 1, 4, 0, 2, 3, 5, 4, 0, 0, 0, 4, 2, 0, 0, 4, 3, 0, 0})
	// Flows 0, 1, 0, 0 (clones keep the op index off flows 1 and 2), then
	// flow 0 removed whole: its own last transmission fills its first hole.
	f.Add([]byte{0, 0, 1, 0, 0, 2, 3, 0, 3, 0, 0, 0, 0, 4, 5, 1, 3, 0, 0, 0, 3, 0, 0, 0, 0, 0, 1, 2, 4, 0, 0, 0})
	// Flows 0, 1, 1, then flow 1, which holds the tail, removed whole.
	f.Add([]byte{0, 0, 1, 0, 0, 2, 3, 0, 3, 0, 0, 0, 3, 0, 0, 0, 0, 4, 5, 1, 4, 1, 0, 0})
	// A and B share cell (5,0); removing A moves B, the tail of Txs, into
	// A's position within their cell. C and D join the cell behind B, then
	// flow 1 (B and D) is removed whole: D fills B's hole, C fills D's.
	f.Add([]byte{0, 0, 1, 5, 0, 2, 3, 5, 1, 0, 0, 0, 0, 4, 5, 5, 0, 6, 7, 5, 4, 1, 0, 0})
	// Cell (5,0) lists A, B, C at positions 0, 3, 1 once Z1 (slot 6) is
	// removed; removing Z2 (slot 7) then moves B, the tail of Txs and the
	// middle of the cell, and flow 0 (A and B) is removed whole.
	f.Add([]byte{0, 0, 1, 5, 0, 0, 1, 6, 0, 0, 1, 7, 0, 2, 3, 5, 0, 4, 5, 5, 1, 1, 0, 0, 1, 2, 0, 0, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(80, 3, 8)
		if err != nil {
			t.Fatal(err)
		}
		// base is the grid as of the last Clone, or the empty start: the
		// old side of the Diff checked after the sequence.
		base, err := New(80, 3, 8)
		if err != nil {
			t.Fatal(err)
		}
		// model lists each cell's occupants in the order Cell must give.
		model := make(map[[2]int][]Tx)
		for i := 0; i+4 <= len(data) && i < 4*maxScheduleOps; i += 4 {
			op, a, b, c := data[i]%5, int(data[i+1]), int(data[i+2]), int(data[i+3])
			switch op {
			case 0: // place; rejections (conflicts, bad links) are fine
				n := s.NumNodes()
				tx := Tx{FlowID: i / 4 % 3, Link: flow.Link{From: a % n, To: b % n},
					Slot: c % s.NumSlots(), Offset: (a / n) % s.NumOffsets()}
				if s.Place(tx) == nil {
					model[[2]int{tx.Slot, tx.Offset}] = append(model[[2]int{tx.Slot, tx.Offset}], tx)
				}
			case 1: // remove one placed transmission
				if s.Len() > 0 {
					tx := s.Txs()[a%s.Len()]
					if err := s.Remove(tx); err != nil {
						t.Fatalf("op %d: remove placed tx: %v", i/4, err)
					}
					key := [2]int{tx.Slot, tx.Offset}
					model[key] = slices.DeleteFunc(model[key], func(m Tx) bool { return m == tx })
				}
			case 2: // reset to new dimensions
				if err := s.Reset(1+a%130, 1+b%4, 2+c%10); err != nil {
					t.Fatalf("op %d: reset: %v", i/4, err)
				}
				clear(model)
			case 3: // a clone places Txs in order
				base, s = s, s.Clone()
				clear(model)
				for _, tx := range s.Txs() {
					model[[2]int{tx.Slot, tx.Offset}] = append(model[[2]int{tx.Slot, tx.Offset}], tx)
				}
			case 4: // remove one flow whole, or the absent flow 3
				checkRemoveFlow(t, s, a%4)
				for key, cell := range model {
					model[key] = slices.DeleteFunc(cell, func(m Tx) bool { return m.FlowID == a%4 })
				}
			}
			checkIndexes(t, s)
			checkCellOrder(t, s, model)
			checkFullSlots(t, s)
			checkFlowTxs(t, s)
			checkValidateVerdict(t, s)
		}
		checkDiff(t, base, s)
		checkDiff(t, s, base)
	})
}

// maxScheduleOps bounds the ops FuzzScheduleOps runs per input. Every op
// runs the full set of checks, about 30 µs, and the fuzzing engine
// minimizes each new interesting input by re-running it on candidates
// with bytes removed, one pass of which tries every removable range: a
// number of runs quadratic in the input's length. Unbounded, or at 64 ops,
// minimizing one long input kept both workers busy for most of a 10 s
// budget while no exec was counted; at 16 ops it takes a fraction of a
// second. The longest seed is 9 ops.
const maxScheduleOps = 16

// checkRemoveFlow removes flowID from s with RemoveFlow and fails t unless
// it returned the flow's transmissions in FlowTxs order, after the prefix
// it was given, and left s exactly as a loop of Remove in that order leaves
// an exact copy: the Txs order, each cell's occupants in order, the packed
// link column, the busy, occupancy and slot-full bitsets, the busy counts,
// the cell lists' head and next links, the per-flow positions and Version.
func checkRemoveFlow(t *testing.T, s *Schedule, flowID int) {
	t.Helper()
	ref := exactCopy(s)
	want := ref.FlowTxs(flowID, nil)
	for _, tx := range want {
		if err := ref.Remove(tx); err != nil {
			t.Fatalf("reference remove of flow %d: %v", flowID, err)
		}
	}
	prefix := []Tx{{FlowID: -2}}
	got := s.RemoveFlow(flowID, prefix)
	if !slices.Equal(got, append(prefix, want...)) {
		t.Fatalf("RemoveFlow(%d) returned %v, want the prefix then %v", flowID, got, want)
	}
	switch {
	case !slices.Equal(s.txs, ref.txs):
		t.Fatalf("RemoveFlow(%d): Txs %v, Remove loop %v", flowID, s.txs, ref.txs)
	case s.Version() != ref.Version():
		t.Fatalf("RemoveFlow(%d): Version %d, Remove loop %d", flowID, s.Version(), ref.Version())
	case !slices.Equal(s.nodeBusy, ref.nodeBusy) || !slices.Equal(s.occ, ref.occ) ||
		!slices.Equal(s.slotFull, ref.slotFull) || !slices.Equal(s.busyCnt, ref.busyCnt):
		t.Fatalf("RemoveFlow(%d): bitsets or busy counts differ from the Remove loop's", flowID)
	case !slices.Equal(s.cellLink, ref.cellLink):
		t.Fatalf("RemoveFlow(%d): packed link column differs from the Remove loop's", flowID)
	case !slices.Equal(s.head, ref.head) || !slices.Equal(s.next, ref.next):
		t.Fatalf("RemoveFlow(%d): cell lists head %v next %v, Remove loop head %v next %v",
			flowID, s.head, s.next, ref.head, ref.next)
	case len(s.flowPos) != len(ref.flowPos):
		t.Fatalf("RemoveFlow(%d): %d indexed flows, Remove loop %d", flowID, len(s.flowPos), len(ref.flowPos))
	}
	for id, pos := range ref.flowPos {
		if !slices.Equal(s.flowPos[id], pos) {
			t.Fatalf("RemoveFlow(%d): flow %d positions %v, Remove loop %v", flowID, id, s.flowPos[id], pos)
		}
	}
}

// exactCopy deep-copies s field by field, keeping what Clone rebuilds
// instead: each cell's occupant order and Version.
func exactCopy(s *Schedule) *Schedule {
	cp := *s
	cp.nodeBusy, cp.occ, cp.slotFull = slices.Clone(s.nodeBusy), slices.Clone(s.occ), slices.Clone(s.slotFull)
	cp.cellLink, cp.txs = slices.Clone(s.cellLink), slices.Clone(s.txs)
	cp.head, cp.next = slices.Clone(s.head), slices.Clone(s.next)
	cp.busyCnt, cp.freePos = slices.Clone(s.busyCnt), nil
	if s.flowPos != nil {
		cp.flowPos = make(map[int][]int32, len(s.flowPos))
		for id, pos := range s.flowPos {
			cp.flowPos[id] = slices.Clone(pos)
		}
	}
	return &cp
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
// appends to the buffer it is given; EachFlowSlotLink must visit the same
// slots and links in the same order.
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
		var seen []Tx
		s.EachFlowSlotLink(id, func(slot int, l flow.Link) { seen = append(seen, Tx{Slot: slot, Link: l}) })
		if len(seen) != len(want) {
			t.Fatalf("EachFlowSlotLink(%d) visited %d transmissions, want %d", id, len(seen), len(want))
		}
		for i, tx := range want {
			if seen[i].Slot != tx.Slot || seen[i].Link != tx.Link {
				t.Fatalf("EachFlowSlotLink(%d) visit %d = slot %d link %v, want slot %d link %v",
					id, i, seen[i].Slot, seen[i].Link, tx.Slot, tx.Link)
			}
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
// list: busy bits and busy counts, each cell's list (checkCellLists), the
// occupancy row and slot-full bit of every slot, and the packed link of
// every occupied cell.
func checkIndexes(t *testing.T, s *Schedule) {
	t.Helper()
	checkCellLists(t, s)
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
			want := cells[[2]int{slot, off}]
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

// checkCellLists fails t unless the cell lists partition Txs: the head
// table covers the grid, next runs parallel to Txs at its capacity, every
// list ends without revisiting a position, and each position sits in
// exactly one list, its own cell's.
func checkCellLists(t *testing.T, s *Schedule) {
	t.Helper()
	if len(s.head) != s.numSlots*s.numOffsets {
		t.Fatalf("head has %d entries for %d×%d cells", len(s.head), s.numSlots, s.numOffsets)
	}
	if len(s.next) != len(s.txs) || cap(s.next) != cap(s.txs) {
		t.Fatalf("next has len %d cap %d, Txs len %d cap %d", len(s.next), cap(s.next), len(s.txs), cap(s.txs))
	}
	listed := make([]bool, len(s.txs))
	for idx, h := range s.head {
		for p := h; p != 0; p = s.next[p-1] {
			switch {
			case p < 0 || int(p) > len(s.txs):
				t.Fatalf("cell %d links to position %d of %d", idx, p-1, len(s.txs))
			case listed[p-1]:
				t.Fatalf("cell %d reaches position %d a second time", idx, p-1)
			case s.txs[p-1].Slot*s.numOffsets+s.txs[p-1].Offset != idx:
				t.Fatalf("cell %d lists %+v of another cell", idx, s.txs[p-1])
			}
			listed[p-1] = true
		}
	}
	if p := slices.Index(listed, false); p >= 0 {
		t.Fatalf("position %d (%+v) is in no cell list", p, s.txs[p])
	}
}

// checkCellOrder fails t unless every cell of s gives, through Cell, the
// occupants model lists for it, in that order, and Cell appends to the
// buffer it is given.
func checkCellOrder(t *testing.T, s *Schedule, model map[[2]int][]Tx) {
	t.Helper()
	for slot := 0; slot < s.NumSlots(); slot++ {
		for off := 0; off < s.NumOffsets(); off++ {
			got := s.Cell(slot, off, []int32{-1})
			if len(got) == 0 || got[0] != -1 {
				t.Fatalf("Cell(%d, %d) dropped the buffer's prefix: %v", slot, off, got)
			}
			var txs []Tx
			for _, p := range got[1:] {
				txs = append(txs, s.Txs()[p])
			}
			if want := model[[2]int{slot, off}]; !slices.Equal(txs, want) {
				t.Fatalf("cell (%d,%d) lists %v, placement order %v", slot, off, txs, want)
			}
		}
	}
}
