// Package schedule holds the transmission-schedule data structure produced by
// the schedulers and the constraint primitives of Sec. V-A:
//
//   - transmission conflict: two transmissions in the same slot must not
//     share a node (half-duplex radios), and
//   - channel constraint: transmissions sharing a slot AND a channel offset
//     must have their senders at least ρ hops from each other's receivers on
//     the channel-reuse graph G_R (or the offset must be exclusive when
//     reuse is disabled).
//
// The hot query behind the laxity computation of Eq. 1 — "how many slots in
// [a,b] conflict with link (u,v)?" — is served by per-node slot-busy bitsets
// with word-level popcounts.
package schedule

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"wsan/internal/flow"
	"wsan/internal/graph"
)

// Tx is one scheduled transmission: a single DATA(+ACK) exchange over one
// link in one dedicated slot on one channel offset.
type Tx struct {
	// FlowID identifies the flow; Instance is the release index within the
	// hyperperiod; Hop is the index into the flow's route; Attempt is 0 for
	// the primary transmission and 1 for the retransmission slot.
	FlowID   int `json:"flow"`
	Instance int `json:"instance"`
	Hop      int `json:"hop"`
	Attempt  int `json:"attempt"`
	// Link is the directed hop this transmission carries.
	Link flow.Link `json:"link"`
	// Slot and Offset are the assigned time slot and channel offset.
	Slot   int `json:"slot"`
	Offset int `json:"offset"`
}

// Schedule is a slot × channel-offset transmission matrix plus the indices
// that keep its hot queries cheap: per-node slot-busy bitsets, per-slot
// occupied-offset bitsets, and lazily built per-pair conflict counters (see
// Pair). Create one with New; the zero value is not usable.
type Schedule struct {
	numSlots   int
	numOffsets int
	numNodes   int
	words      int // bitset words per node
	offWords   int // bitset words per slot's offset row

	// nodeBusy[node*words+w] holds slot-busy bits for the node.
	nodeBusy []uint64
	// occ[slot*offWords+w] holds occupied-offset bits for the slot: bit c is
	// set iff cell (slot, c) is non-empty. It lets slot scans skip empty
	// columns without touching the cells themselves.
	occ []uint64
	// slotFull holds one bit per slot, set iff every channel offset of the
	// slot is occupied. It lets no-reuse searches (and the RC candidate
	// scan's free-offset test) skip saturated slots a word at a time instead
	// of popcounting each occupancy row — see NextSharedNonFullSlot and
	// SlotFull. Maintained on the empty↔occupied cell transitions of
	// Place/Remove.
	slotFull []uint64
	// cells[slot*numOffsets+offset] lists the transmissions sharing that
	// slot and offset (channel reuse when len > 1).
	cells [][]Tx
	// cellLink runs parallel to cells: a cell with one occupant holds its
	// link packed as From<<16|To, a cell with two or more holds SharedCell,
	// and an empty cell's entry is stale. The RC reuse-distance fill reads
	// whole rows of it (CellLinks) instead of chasing each cell's slice
	// header to a 64-byte Tx. Nil when node IDs do not fit 16 bits.
	cellLink []uint32
	// arena and pairArena back cell storage in chunks: a freshly occupied
	// cell carves a single-entry slice from arena, and a cell gaining its
	// second (or 2^k+1-th) occupant moves to a doubled carving from
	// pairArena. A schedule with thousands of one- and two-occupant cells
	// (every NR schedule, and most reuse cells) thus costs one allocation
	// per chunk instead of one per cell, without wasting a second arena
	// slot on the single-occupant majority, and heavily packed cells grow
	// inside the arena instead of escaping to the heap allocator. Both
	// arenas keep every chunk they allocate, so Reset rewinds them and a
	// recycled schedule re-carves the same memory.
	arena     txArena
	pairArena txArena
	// freeSingles and freeCells[k] (k ≥ 1) hold the carvings of capacity
	// 1 and 1<<k that no cell uses any more: a cell's carving when it
	// moves to a doubled one (once the grid has removed a transmission),
	// when its last occupant is removed, and a two-entry carving when its
	// cell drops back to one occupant (which moves to a single-entry
	// carving). carveCell hands them out before
	// carving fresh arena memory, so a live grid under churn holds cell
	// storage for its current occupants rather than for every cell it ever
	// occupied. Single-entry carvings, the most numerous, are kept as
	// 8-byte array pointers rather than 24-byte slices.
	freeSingles []*[1]Tx
	freeCells   [maxCarveLog + 1][][]Tx
	// txs records all placements. The list is in placement order until the
	// first removal; Remove fills the vacated position with the most recent
	// placement, so ordering is not stable across removals.
	txs []Tx
	// flowPos lists each flow's positions in txs, ascending. It is built
	// lazily by the first Remove or FlowTxs and maintained by Place/Remove
	// from then on, so from-scratch scheduling (which never removes) stays
	// map-free while churn-heavy workloads find a flow's transmissions, and
	// a removed transmission's position, in time proportional to the flow
	// instead of the grid. Positions are int32, halving the lists: a list
	// of 2^31 transmissions (128 GiB) could not have been allocated.
	flowPos map[int][]int32
	// freePos holds up to maxFreePos emptied position lists of removed
	// flows; a flow placed from nothing takes one instead of growing a new
	// list, so churn that removes and re-adds flows stops allocating them.
	freePos [][]int32

	// nodeVer stamps each node's busy-bitset state; marking or clearing a
	// busy bit bumps the node's stamp, so the pair counters below can tell a
	// stale cache from a fresh one without rebuilding on mutations that
	// touched neither of their endpoints. Stamps start at 1 so a zero-stamped
	// counter is always rebuilt.
	nodeVer []uint64
	// ver counts every mutation — each Place, Remove, and Reset bumps it
	// once. Callers that cache derived state across calls (the scheduler's
	// candidate-cache warm start) compare Version stamps to detect grid
	// changes they did not make themselves, e.g. the delta ladder's removals
	// and rollbacks between placements on a shared engine.
	ver uint64
	// busyCnt[node] is the popcount of the node's busy bitset — the total
	// number of slots it sends or receives in — maintained on every
	// markBusy/clearBusy. NodeBusyCount serves it in O(1); the schedulers
	// use it as a cheap upper bound on any pair's busy-union count.
	busyCnt []int32
	// pairs caches the PairCount handles by normalized (u,v) key so repeated
	// Pair calls share one index per node pair.
	pairs map[uint64]*PairCount

	stats IndexStats
}

// IndexStats counts the index machinery's work for observability: how many
// O(1) pair queries were served and how many cache rebuilds (each O(slots/64))
// they cost. The scheduler surfaces them as "sched.index.*" counters.
type IndexStats struct {
	PairQueries  int64
	PairRebuilds int64
}

// IndexStats returns the accumulated index counters.
func (s *Schedule) IndexStats() IndexStats { return s.stats }

// SharedCell is the CellLinks entry of a cell with two or more occupants.
// No packed link equals it: node IDs below maxPackedNodes leave the high
// half of a packed link below 0xFFFF.
const SharedCell = ^uint32(0)

// maxPackedNodes bounds the node-ID space that keeps a packed link column:
// IDs 0..65534 fit the 16-bit halves of From<<16|To.
const maxPackedNodes = 1<<16 - 1

// packLink returns the cell's CellLinks entry.
func packLink(cell []Tx) uint32 {
	if len(cell) != 1 {
		return SharedCell
	}
	return uint32(cell[0].Link.From)<<16 | uint32(cell[0].Link.To)
}

// arenaChunkLen is the carve granularity of a txArena chunk.
const arenaChunkLen = 512

// maxCarveLog is log2(arenaChunkLen): cell carvings have capacity 1<<k for
// k in 0..maxCarveLog.
const maxCarveLog = 9

// carveCell returns an empty cell carving of capacity n, a power of two no
// larger than arenaChunkLen: a released one of that size when there is one,
// else fresh memory from arena (n = 1) or pairArena.
func (s *Schedule) carveCell(n int) []Tx {
	if n == 1 {
		if k := len(s.freeSingles); k > 0 {
			c := s.freeSingles[k-1][:0]
			s.freeSingles = s.freeSingles[:k-1]
			return c
		}
		return s.arena.carve(1)
	}
	k := bits.TrailingZeros(uint(n))
	if free := s.freeCells[k]; len(free) > 0 {
		c := free[len(free)-1]
		s.freeCells[k] = free[:len(free)-1]
		return c
	}
	return s.pairArena.carve(n)
}

// releaseCell keeps c, a carving no cell uses any more, for carveCell.
// Capacities that carveCell cannot have produced (a cell grown past
// arenaChunkLen by append) are left to the garbage collector.
func (s *Schedule) releaseCell(c []Tx) {
	switch n := cap(c); {
	case n == 1:
		s.freeSingles = append(s.freeSingles, (*[1]Tx)(c[:1]))
	case n > 1 && n <= arenaChunkLen && n&(n-1) == 0:
		k := bits.TrailingZeros(uint(n))
		s.freeCells[k] = append(s.freeCells[k], c[:0])
	}
}

// txArena hands out small cell carvings from fixed-size chunks. It keeps
// every chunk it ever allocated: reset rewinds carving to the first chunk,
// so a schedule recycled through Reset re-carves the same memory instead of
// growing its footprint by one arena per scheduling cycle.
type txArena struct {
	chunks [][]Tx
	cur    int // chunk currently being carved
	off    int // next free element within chunks[cur]
}

// carve returns a zero-length slice with capacity n backed by arena memory.
// n must be ≤ arenaChunkLen.
func (a *txArena) carve(n int) []Tx {
	if len(a.chunks) > 0 && a.off+n > arenaChunkLen {
		a.cur++
		a.off = 0
	}
	for a.cur >= len(a.chunks) {
		a.chunks = append(a.chunks, make([]Tx, arenaChunkLen))
	}
	c := a.chunks[a.cur][a.off : a.off : a.off+n]
	a.off += n
	return c
}

// reset rewinds carving to the start of the first chunk. Previously carved
// slices must no longer be referenced.
func (a *txArena) reset() { a.cur, a.off = 0, 0 }

// New creates an empty schedule covering numSlots slots, numOffsets channel
// offsets, and nodes 0..numNodes-1.
func New(numSlots, numOffsets, numNodes int) (*Schedule, error) {
	words, offWords, err := gridWords(numSlots, numOffsets, numNodes)
	if err != nil {
		return nil, err
	}
	nodeVer := make([]uint64, numNodes)
	for i := range nodeVer {
		nodeVer[i] = 1
	}
	var cellLink []uint32
	if numNodes <= maxPackedNodes {
		cellLink = make([]uint32, numSlots*numOffsets)
	}
	return &Schedule{
		numSlots:   numSlots,
		numOffsets: numOffsets,
		numNodes:   numNodes,
		words:      words,
		offWords:   offWords,
		nodeBusy:   make([]uint64, numNodes*words),
		occ:        make([]uint64, numSlots*offWords),
		slotFull:   make([]uint64, words),
		cells:      make([][]Tx, numSlots*numOffsets),
		cellLink:   cellLink,
		nodeVer:    nodeVer,
		busyCnt:    make([]int32, numNodes),
	}, nil
}

// maxGridEntries bounds the two tables whose size is a product of
// dimensions: the cell table (numSlots×numOffsets) and the busy bitsets
// (numNodes×words). Below it no product overflows an int and no table's byte
// size reaches the runtime's allocation limit, so a decoded document with
// absurd dimensions gets an error instead of a makeslice panic; real grids
// are many orders of magnitude smaller.
const maxGridEntries = math.MaxInt32

// gridWords validates schedule dimensions and returns the bitset words per
// node (one bit per slot) and per slot's offset row.
func gridWords(numSlots, numOffsets, numNodes int) (words, offWords int, err error) {
	if numSlots <= 0 || numOffsets <= 0 || numNodes <= 0 {
		return 0, 0, fmt.Errorf("schedule dimensions must be positive: slots=%d offsets=%d nodes=%d",
			numSlots, numOffsets, numNodes)
	}
	words = (numSlots-1)/64 + 1 // ceil without the overflow of numSlots+63
	offWords = (numOffsets-1)/64 + 1
	if numSlots > maxGridEntries/numOffsets || numNodes > maxGridEntries/words {
		return 0, 0, fmt.Errorf("schedule dimensions too large: slots=%d offsets=%d nodes=%d",
			numSlots, numOffsets, numNodes)
	}
	return words, offWords, nil
}

// Reset clears the schedule in place to an empty grid with the given
// dimensions, recycling every backing allocation the previous contents used:
// the busy/occupancy bitsets, the cell table, the transmission list, and the
// cell arenas all keep their storage. Hot loops that schedule many same-shaped
// workloads (experiment trials, full-reschedule scratch grids) Reset one
// schedule instead of paying New's allocations per run.
//
// The per-node version stamps are bumped, never rewound, so PairCount caches
// from before the Reset can never be mistaken for fresh; still, outstanding
// PairCount handles are bound to the old geometry and must not be used after
// a Reset that changes the slot or node dimensions.
func (s *Schedule) Reset(numSlots, numOffsets, numNodes int) error {
	words, offWords, err := gridWords(numSlots, numOffsets, numNodes)
	if err != nil {
		return err
	}
	if words != s.words || numNodes != s.numNodes {
		// The cached pair counters' word geometry or key space no longer
		// matches the grid; drop them rather than refresh into the wrong shape.
		s.pairs = nil
	}
	s.nodeBusy = clearGrown(s.nodeBusy, numNodes*words)
	s.occ = clearGrown(s.occ, numSlots*offWords)
	s.slotFull = clearGrown(s.slotFull, words)
	nCells := numSlots * numOffsets
	if cap(s.cells) < nCells {
		s.cells = make([][]Tx, nCells)
	} else {
		s.cells = s.cells[:nCells]
		clear(s.cells)
	}
	switch {
	case numNodes > maxPackedNodes:
		s.cellLink = nil
	case cap(s.cellLink) < nCells:
		s.cellLink = make([]uint32, nCells)
	default:
		s.cellLink = s.cellLink[:nCells] // empty cells' entries are never read
	}
	if numNodes <= cap(s.nodeVer) {
		// Reslice instead of reallocating: after a shrink, the backing array
		// still holds the tail nodes' old stamps, so growing back within
		// capacity keeps every stamp monotone. A fresh allocation would
		// restart the tail at zero and could collide with a stamp an
		// outstanding PairCount cached before the shrink, letting it serve
		// stale words as fresh.
		s.nodeVer = s.nodeVer[:numNodes]
	} else {
		grown := make([]uint64, numNodes)
		copy(grown, s.nodeVer)
		s.nodeVer = grown
	}
	for i := range s.nodeVer {
		s.nodeVer[i]++ // move every stamp past any cache built before the Reset
	}
	if cap(s.busyCnt) < numNodes {
		s.busyCnt = make([]int32, numNodes)
	} else {
		s.busyCnt = s.busyCnt[:numNodes]
		clear(s.busyCnt)
	}
	s.ver++
	s.numSlots, s.numOffsets, s.numNodes = numSlots, numOffsets, numNodes
	s.words, s.offWords = words, offWords
	s.txs = s.txs[:0]
	s.flowPos = nil
	s.arena.reset()
	s.pairArena.reset()
	// The released carvings alias the rewound chunks.
	clear(s.freeSingles)
	s.freeSingles = s.freeSingles[:0]
	for k := range s.freeCells {
		clear(s.freeCells[k])
		s.freeCells[k] = s.freeCells[k][:0]
	}
	return nil
}

// clearGrown returns a zeroed slice of length n, reusing buf's backing array
// when it is large enough.
func clearGrown(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Reserve grows the transmission list's capacity to hold n more placements
// without reallocating — schedulers that know the workload size up front call
// it once instead of paying the append growth copies on the hot path.
func (s *Schedule) Reserve(n int) {
	if n <= 0 || cap(s.txs)-len(s.txs) >= n {
		return
	}
	grown := make([]Tx, len(s.txs), len(s.txs)+n)
	copy(grown, s.txs)
	s.txs = grown
}

// NumSlots returns the schedule length in slots.
func (s *Schedule) NumSlots() int { return s.numSlots }

// NumOffsets returns the number of channel offsets.
func (s *Schedule) NumOffsets() int { return s.numOffsets }

// NumNodes returns the node-ID space size.
func (s *Schedule) NumNodes() int { return s.numNodes }

// Len returns the number of placed transmissions.
func (s *Schedule) Len() int { return len(s.txs) }

// Txs returns all placed transmissions. The list is in placement order
// until the first removal (Remove compacts by moving the latest placement
// into the vacated position); new placements always append. The slice is
// owned by the schedule; callers must not modify it.
func (s *Schedule) Txs() []Tx { return s.txs }

// NodeBusy reports whether the node already sends or receives in the slot.
func (s *Schedule) NodeBusy(node, slot int) bool {
	if node < 0 || node >= s.numNodes || slot < 0 || slot >= s.numSlots {
		return false
	}
	return s.nodeBusy[node*s.words+slot/64]&(1<<uint(slot%64)) != 0
}

func (s *Schedule) markBusy(node, slot int) {
	s.nodeBusy[node*s.words+slot/64] |= 1 << uint(slot%64)
	s.nodeVer[node]++
	s.busyCnt[node]++
}

// Version returns the schedule's mutation count: every Place, Remove, and
// Reset bumps it once. Two equal Version readings bracket a span with no
// grid changes, which lets callers keep derived caches alive across calls.
func (s *Schedule) Version() uint64 { return s.ver }

// NodeBusyCount returns the number of slots in which the node sends or
// receives — the popcount of its busy bitset, served from an incrementally
// maintained counter. For any pair (u, v) and any slot range,
// BusyUnionCount(u, v, from, to) ≤ NodeBusyCount(u) + NodeBusyCount(v), which
// the schedulers use as a constant-time conflict-sum certificate.
func (s *Schedule) NodeBusyCount(node int) int {
	if node < 0 || node >= s.numNodes {
		return 0
	}
	return int(s.busyCnt[node])
}

// Cell returns the transmissions already assigned to (slot, offset). The
// slice is owned by the schedule; callers must not modify it.
func (s *Schedule) Cell(slot, offset int) []Tx {
	if slot < 0 || slot >= s.numSlots || offset < 0 || offset >= s.numOffsets {
		return nil
	}
	return s.cells[slot*s.numOffsets+offset]
}

// CellLinks returns the slot's row of the packed link column, indexed by
// offset: an occupied cell with one transmission holds its link as
// From<<16|To, one with more holds SharedCell (read Cell for those); the
// entries of empty cells are meaningless. It returns nil when the schedule
// has more than 65535 nodes (callers then read Cell) or slot is out of
// range. The slice is owned by the schedule; callers must not modify it.
func (s *Schedule) CellLinks(slot int) []uint32 {
	if s.cellLink == nil || slot < 0 || slot >= s.numSlots {
		return nil
	}
	return s.cellLink[slot*s.numOffsets : (slot+1)*s.numOffsets]
}

// Place adds a transmission after re-checking bounds and the transmission-
// conflict constraint (both endpoints idle in the slot). Channel-constraint
// compliance is the scheduler's responsibility — Place cannot know the ρ in
// effect — but Validate can re-check it afterwards.
func (s *Schedule) Place(tx Tx) error {
	if tx.Slot < 0 || tx.Slot >= s.numSlots {
		return fmt.Errorf("place tx flow %d: slot %d out of [0,%d)", tx.FlowID, tx.Slot, s.numSlots)
	}
	if tx.Offset < 0 || tx.Offset >= s.numOffsets {
		return fmt.Errorf("place tx flow %d: offset %d out of [0,%d)", tx.FlowID, tx.Offset, s.numOffsets)
	}
	u, v := tx.Link.From, tx.Link.To
	if u < 0 || u >= s.numNodes || v < 0 || v >= s.numNodes || u == v {
		return fmt.Errorf("place tx flow %d: bad link %d→%d", tx.FlowID, u, v)
	}
	if s.NodeBusy(u, tx.Slot) || s.NodeBusy(v, tx.Slot) {
		return fmt.Errorf("place tx flow %d: transmission conflict in slot %d for link %d→%d",
			tx.FlowID, tx.Slot, u, v)
	}
	s.ver++
	s.markBusy(u, tx.Slot)
	s.markBusy(v, tx.Slot)
	idx := tx.Slot*s.numOffsets + tx.Offset
	c := s.cells[idx]
	if len(c) == 0 {
		s.occ[tx.Slot*s.offWords+tx.Offset/64] |= 1 << uint(tx.Offset%64)
		if s.OccupiedCount(tx.Slot) == s.numOffsets {
			s.slotFull[tx.Slot/64] |= 1 << uint(tx.Slot%64)
		}
	}
	switch {
	case cap(c) == 0:
		c = s.carveCell(1)
	case len(c) == cap(c) && 2*len(c) <= arenaChunkLen:
		// Full cell: carve a doubled chunk instead of letting append hit
		// the heap allocator. A grid that removes transmissions (its
		// per-flow index exists) keeps the old carving for reuse; a
		// from-scratch build (Run, Clone, Decode) leaves it, as Reset
		// rewinds the arenas whole and the free lists' growth would cost
		// every build.
		grown := s.carveCell(2 * len(c))
		grown = append(grown, c...)
		if s.flowPos != nil {
			s.releaseCell(c)
		}
		c = grown
	}
	s.cells[idx] = append(c, tx)
	if s.cellLink != nil {
		s.cellLink[idx] = packLink(s.cells[idx])
	}
	s.txs = append(s.txs, tx)
	if s.flowPos != nil {
		pos, ok := s.flowPos[tx.FlowID]
		if n := len(s.freePos); !ok && n > 0 {
			pos, s.freePos = s.freePos[n-1], s.freePos[:n-1]
		}
		// The new position is the largest, so the list stays ascending.
		s.flowPos[tx.FlowID] = append(pos, int32(len(s.txs)-1))
	}
	return nil
}

// maxFreePos bounds the emptied position lists a schedule keeps for reuse.
const maxFreePos = 16

// freeFlowPos keeps pos, the deleted position list of a removed flow, for
// the next flow placed from nothing.
func (s *Schedule) freeFlowPos(pos []int32) {
	if len(s.freePos) < maxFreePos {
		s.freePos = append(s.freePos, pos[:0])
	}
}

// Remove deletes a previously placed transmission, freeing its endpoints'
// busy bits and its cell entry. The transmission must match an existing
// placement exactly. The vacated txs position is filled by the most recent
// placement (swap-with-last), so removal costs O(1) on the transmission list
// plus a pass over the two flows' position lists — a placement can never
// occur twice, so the match is exact.
func (s *Schedule) Remove(tx Tx) error {
	s.buildFlowPos()
	pos := s.flowPos[tx.FlowID]
	i := 0
	for i < len(pos) && s.txs[pos[i]] != tx {
		i++
	}
	if i == len(pos) {
		return fmt.Errorf("remove tx flow %d: not placed", tx.FlowID)
	}
	s.ver++
	idx := int(pos[i])
	if pos = slices.Delete(pos, i, i+1); len(pos) == 0 {
		delete(s.flowPos, tx.FlowID)
		s.freeFlowPos(pos)
	} else {
		s.flowPos[tx.FlowID] = pos
	}
	if last := len(s.txs) - 1; idx != last {
		moved := s.txs[last]
		s.txs[idx] = moved
		// last is the largest position, so it ends its flow's list; it
		// moves to idx, re-inserted in order.
		mp := s.flowPos[moved.FlowID]
		mp = mp[:len(mp)-1]
		at, _ := slices.BinarySearch(mp, int32(idx))
		s.flowPos[moved.FlowID] = slices.Insert(mp, at, int32(idx))
	}
	s.txs = s.txs[:len(s.txs)-1]
	s.unplace(&tx)
	return nil
}

// RemoveFlow removes every placed transmission of flowID, appends them to
// out in FlowTxs order and returns the extended slice. It leaves exactly
// what a loop of Remove over FlowTxs(flowID) leaves — the cells, bitsets,
// Version and the Txs order, which reaches Encode's output through its
// unstable sort — but deletes the flow's position list with one map
// operation and re-indexes each transmission Remove's swap-with-last
// displaces once, instead of searching and re-indexing per removal. A flow
// holding the tail of Txs (a placement just made) leaves the rest of the
// list untouched.
func (s *Schedule) RemoveFlow(flowID int, out []Tx) []Tx {
	s.buildFlowPos()
	pos, ok := s.flowPos[flowID]
	if !ok {
		return out
	}
	delete(s.flowPos, flowID)
	base := len(out)
	for _, p := range pos {
		out = append(out, s.txs[p])
	}
	s.ver += uint64(len(pos))
	n := int32(len(s.txs))
	if pos[0] != n-int32(len(pos)) {
		// Replay Remove's swap-with-last removal by removal. pos[j] tracks
		// where the flow's j-th transmission, in FlowTxs order, sits now.
		for _, idx := range pos {
			n--
			if idx == n {
				continue
			}
			moved := s.txs[n]
			s.txs[idx] = moved
			if moved.FlowID == flowID {
				// One of the flow's later transmissions fills the hole.
				k := len(pos) - 1
				for pos[k] != n {
					k--
				}
				pos[k] = idx
				continue
			}
			// n is the largest position, so it ends its flow's list; idx
			// takes its place in order, within the list's own storage.
			mp := s.flowPos[moved.FlowID]
			at, _ := slices.BinarySearch(mp[:len(mp)-1], idx)
			copy(mp[at+1:], mp[at:len(mp)-1])
			mp[at] = idx
		}
	}
	s.txs = s.txs[:len(s.txs)-len(pos)]
	s.freeFlowPos(pos)
	for i := base; i < len(out); i++ {
		s.unplace(&out[i])
	}
	return out
}

// unplace frees a removed transmission's cell entry and its endpoints' busy
// bits. Removal from a cell keeps the order of its other occupants.
func (s *Schedule) unplace(tx *Tx) {
	cellIdx := tx.Slot*s.numOffsets + tx.Offset
	cell := s.cells[cellIdx]
	for i := range cell {
		if cell[i] == *tx {
			s.cells[cellIdx] = append(cell[:i], cell[i+1:]...)
			break
		}
	}
	if s.cellLink != nil {
		s.cellLink[cellIdx] = packLink(s.cells[cellIdx]) // a last occupant is re-packed
	}
	switch c := s.cells[cellIdx]; {
	case len(c) == 0:
		s.occ[tx.Slot*s.offWords+tx.Offset/64] &^= 1 << uint(tx.Offset%64)
		s.slotFull[tx.Slot/64] &^= 1 << uint(tx.Slot%64)
		s.releaseCell(c)
		s.cells[cellIdx] = nil
	case len(c) == 1 && cap(c) == 2:
		// Back to one occupant: move it to a single-entry carving.
		s.cells[cellIdx] = append(s.carveCell(1), c[0])
		s.releaseCell(c)
	}
	s.clearBusy(tx.Link.From, tx.Slot)
	s.clearBusy(tx.Link.To, tx.Slot)
}

// FlowTxs appends the flow's placed transmissions to buf, in Txs order —
// exactly the transmissions, and the order, of a pass over Txs that keeps
// those with FlowID == flowID — and returns the extended slice. It reads the
// per-flow position index, building it on first use, so it is not safe for
// concurrent use with any other call on s.
func (s *Schedule) FlowTxs(flowID int, buf []Tx) []Tx {
	s.buildFlowPos()
	for _, p := range s.flowPos[flowID] {
		buf = append(buf, s.txs[p])
	}
	return buf
}

// EachFlowSlotLink calls fn with the slot and link of each of the flow's
// placed transmissions, in FlowTxs order, read in place: no transmission is
// copied. The view lasts only as long as the call and must not span a
// mutation of s: fn placing or removing a transmission makes EachFlowSlotLink
// panic as fn returns. Like FlowTxs it may build the per-flow index, so it
// is not safe for concurrent use with any other call on s.
func (s *Schedule) EachFlowSlotLink(flowID int, fn func(slot int, l flow.Link)) {
	s.buildFlowPos()
	ver := s.ver
	for _, p := range s.flowPos[flowID] {
		tx := &s.txs[p]
		fn(tx.Slot, tx.Link)
		if s.ver != ver {
			panic("schedule: EachFlowSlotLink spans a grid mutation")
		}
	}
}

// buildFlowPos builds the per-flow position index from txs if it is absent.
// Positions are appended in txs order, so each list is ascending.
func (s *Schedule) buildFlowPos() {
	if s.flowPos != nil {
		return
	}
	s.flowPos = make(map[int][]int32)
	for i, tx := range s.txs {
		s.flowPos[tx.FlowID] = append(s.flowPos[tx.FlowID], int32(i))
	}
}

func (s *Schedule) clearBusy(node, slot int) {
	s.nodeBusy[node*s.words+slot/64] &^= 1 << uint(slot%64)
	s.nodeVer[node]++
	s.busyCnt[node]--
}

// BusyUnionCount returns the number of slots in the inclusive range
// [from, to] in which node u or node v (or both) is busy — the q^t term of
// the laxity equation for a link t = (u,v). Out-of-range bounds are clamped;
// an empty range returns 0.
//
// This is the straight word-level scan, O((to-from)/64) per call; hot loops
// that ask repeatedly about the same pair should hold a Pair handle, whose
// UnionCount answers in O(1) from a prefix index. The scan stays as the
// reference implementation the index is property-tested against.
func (s *Schedule) BusyUnionCount(u, v, from, to int) int {
	if from < 0 {
		from = 0
	}
	if to >= s.numSlots {
		to = s.numSlots - 1
	}
	if from > to || u < 0 || u >= s.numNodes || v < 0 || v >= s.numNodes {
		return 0
	}
	bu := s.nodeBusy[u*s.words : (u+1)*s.words]
	bv := s.nodeBusy[v*s.words : (v+1)*s.words]
	wFrom, wTo := from/64, to/64
	count := 0
	for w := wFrom; w <= wTo; w++ {
		word := bu[w] | bv[w]
		if w == wFrom {
			word &= ^uint64(0) << uint(from%64)
		}
		if w == wTo {
			shift := uint(63 - to%64)
			word &= ^uint64(0) >> shift
		}
		count += bits.OnesCount64(word)
	}
	return count
}

// Validate re-derives every invariant from the raw transmission list:
// in-range assignments, no transmission conflicts within a slot, and the
// channel constraint at threshold rhoT on the reuse-graph hop matrix. With
// reuse disabled (rhoT ≤ 0 means "no reuse allowed"), every (slot, offset)
// cell must hold at most one transmission. It reports the first
// out-of-range transmission in list order, and otherwise the first
// violation in slot order, pairs within a slot taken in list order.
func (s *Schedule) Validate(hop *graph.HopMatrix, rhoT int) error {
	for _, tx := range s.txs {
		if tx.Slot < 0 || tx.Slot >= s.numSlots || tx.Offset < 0 || tx.Offset >= s.numOffsets {
			return fmt.Errorf("validate: tx %+v out of range", tx)
		}
	}
	// A counting sort buckets the list by slot: bySlot[start[slot]:
	// start[slot+1]] holds the slot's list positions in ascending order.
	buf := make([]int, s.numSlots+1+len(s.txs))
	start, bySlot := buf[:s.numSlots+1], buf[s.numSlots+1:]
	for _, tx := range s.txs {
		start[tx.Slot]++
	}
	for slot := 1; slot < s.numSlots; slot++ {
		start[slot] += start[slot-1]
	}
	start[s.numSlots] = len(s.txs)
	// Filling backward leaves start[slot] at the bucket's first entry.
	for i := len(s.txs) - 1; i >= 0; i-- {
		slot := s.txs[i].Slot
		start[slot]--
		bySlot[start[slot]] = i
	}
	for slot := 0; slot < s.numSlots; slot++ {
		txs := bySlot[start[slot]:start[slot+1]]
		for i := 0; i < len(txs); i++ {
			for j := i + 1; j < len(txs); j++ {
				a, b := &s.txs[txs[i]], &s.txs[txs[j]]
				if a.Link.From == b.Link.From || a.Link.From == b.Link.To ||
					a.Link.To == b.Link.From || a.Link.To == b.Link.To {
					return fmt.Errorf("validate: transmission conflict in slot %d: %d→%d vs %d→%d",
						slot, a.Link.From, a.Link.To, b.Link.From, b.Link.To)
				}
				if a.Offset != b.Offset {
					continue
				}
				if rhoT <= 0 {
					return fmt.Errorf("validate: channel reuse in slot %d offset %d but reuse disabled",
						slot, a.Offset)
				}
				if hop == nil {
					return fmt.Errorf("validate: reuse present but no hop matrix provided")
				}
				if int(hop.Dist(a.Link.From, b.Link.To)) < rhoT ||
					int(hop.Dist(b.Link.From, a.Link.To)) < rhoT {
					return fmt.Errorf("validate: reuse constraint violated in slot %d offset %d: %d→%d vs %d→%d (ρ_t=%d)",
						slot, a.Offset, a.Link.From, a.Link.To, b.Link.From, b.Link.To, rhoT)
				}
			}
		}
	}
	return nil
}
