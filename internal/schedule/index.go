// The hot-path index layer. The schedulers' inner loops used to re-scan
// slots, offsets, and busy ranges for every placement candidate; the
// structures here answer those queries from incrementally maintained bitsets
// instead:
//
//   - NextSharedFreeSlot jumps word-by-word over the two endpoints' busy
//     bitsets to the next slot where a link can fire at all,
//   - FirstFreeOffset / OccupiedOffsets serve a slot's channel-offset
//     occupancy from one bitset row, skipping empty columns, and
//   - Pair returns a per-node-pair conflict counter whose UnionCount — the
//     q^t term of the laxity equation (Eq. 1) — is O(1) per query via a
//     version-stamped prefix-popcount cache.
//
// Every mutation path (Place, Remove, and therefore Diff/Apply replays and
// the schedulers' rollbacks) bumps the version stamp of each endpoint node it
// touches, so the lazy caches can never serve stale answers — and a pair
// counter only rebuilds when a mutation actually involved one of its own two
// nodes, not on every placement anywhere in the schedule. BusyUnionCount
// remains the straight scan and doubles as the reference implementation the
// property tests compare against.

package schedule

import "math/bits"

// NextSharedFreeSlot returns the earliest slot in the inclusive range
// [from, to] where neither u nor v is busy, or -1 if there is none. It scans
// the union of the two busy bitsets a word at a time, so runs of busy slots
// cost one popword instead of one check per slot.
func (s *Schedule) NextSharedFreeSlot(u, v, from, to int) int {
	if from < 0 {
		from = 0
	}
	if to >= s.numSlots {
		to = s.numSlots - 1
	}
	if from > to || u < 0 || u >= s.numNodes || v < 0 || v >= s.numNodes {
		return -1
	}
	bu := s.nodeBusy[u*s.words : (u+1)*s.words]
	bv := s.nodeBusy[v*s.words : (v+1)*s.words]
	wFrom, wTo := from/64, to/64
	for w := wFrom; w <= wTo; w++ {
		free := ^(bu[w] | bv[w])
		if w == wFrom {
			free &= ^uint64(0) << uint(from%64)
		}
		if free == 0 {
			continue
		}
		slot := w*64 + bits.TrailingZeros64(free)
		if slot > to {
			return -1
		}
		return slot
	}
	return -1
}

// FirstFreeOffset returns the lowest channel offset whose (slot, offset)
// cell is empty, or -1 when every offset in the slot is occupied.
func (s *Schedule) FirstFreeOffset(slot int) int {
	if slot < 0 || slot >= s.numSlots {
		return -1
	}
	row := s.occ[slot*s.offWords : (slot+1)*s.offWords]
	for w, word := range row {
		free := ^word
		if free == 0 {
			continue
		}
		off := w*64 + bits.TrailingZeros64(free)
		if off >= s.numOffsets {
			return -1
		}
		return off
	}
	return -1
}

// SlotFull reports whether every channel offset of the slot is occupied —
// one bit test against the maintained slot-full bitset.
func (s *Schedule) SlotFull(slot int) bool {
	if slot < 0 || slot >= s.numSlots {
		return false
	}
	return s.slotFull[slot/64]&(1<<uint(slot%64)) != 0
}

// NextSharedNonFullSlot returns the earliest slot in the inclusive range
// [from, to] where neither u nor v is busy and at least one channel offset
// is still free, or -1 if there is none. It is the no-reuse placement query:
// a saturated slot can never host a reuse-forbidden transmission, so the
// scan folds the slot-full bitset into the same word-at-a-time pass
// NextSharedFreeSlot makes over the endpoint busy bitsets.
func (s *Schedule) NextSharedNonFullSlot(u, v, from, to int) int {
	if from < 0 {
		from = 0
	}
	if to >= s.numSlots {
		to = s.numSlots - 1
	}
	if from > to || u < 0 || u >= s.numNodes || v < 0 || v >= s.numNodes {
		return -1
	}
	bu := s.nodeBusy[u*s.words : (u+1)*s.words]
	bv := s.nodeBusy[v*s.words : (v+1)*s.words]
	wFrom, wTo := from/64, to/64
	for w := wFrom; w <= wTo; w++ {
		free := ^(bu[w] | bv[w] | s.slotFull[w])
		if w == wFrom {
			free &= ^uint64(0) << uint(from%64)
		}
		if free == 0 {
			continue
		}
		slot := w*64 + bits.TrailingZeros64(free)
		if slot > to {
			return -1
		}
		return slot
	}
	return -1
}

// OccupiedCount returns the number of non-empty channel offsets in slot —
// the exact length OccupiedOffsets would append — in one popcount pass over
// the occupancy row. Place uses it to set the slot-full bit.
func (s *Schedule) OccupiedCount(slot int) int {
	if slot < 0 || slot >= s.numSlots {
		return 0
	}
	row := s.occ[slot*s.offWords : (slot+1)*s.offWords]
	n := 0
	for _, word := range row {
		n += bits.OnesCount64(word)
	}
	return n
}

// OccupiedOffsets appends the slot's non-empty channel offsets to buf in
// ascending order and returns the extended slice. Callers reuse buf across
// calls to stay allocation-free.
func (s *Schedule) OccupiedOffsets(slot int, buf []int) []int {
	if slot < 0 || slot >= s.numSlots {
		return buf
	}
	row := s.occ[slot*s.offWords : (slot+1)*s.offWords]
	for w, word := range row {
		for word != 0 {
			buf = append(buf, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return buf
}

// PairCount is the per-link conflict index of one node pair: a prefix-sum
// over the popcounts of the union of the two nodes' slot-busy bitsets. After
// at most one O(maxQueriedSlot/64) rebuild per mutation epoch (see ensure) it
// answers UnionCount — "how many slots in [a,b] conflict with link (u,v)?" —
// in O(1), where the plain BusyUnionCount scan is O((b-a)/64) on every call.
// The laxity computation issues one UnionCount per remaining transmission per
// candidate slot per ρ step, so the cache amortizes quickly.
//
// A PairCount is bound to the schedule that created it (see Pair) and is lazily
// refreshed: a Place or Remove — including Diff/Apply replays and scheduler
// rollbacks — invalidates it via the per-node version stamps of its two nodes,
// so mutations touching other nodes leave the cache valid.
type PairCount struct {
	s          *Schedule
	u, v       int
	verU, verV uint64   // node version stamps the cache reflects; 0 = never built
	built      int      // words valid this epoch: words[:built] and prefix[:built+1]
	words      []uint64 // cached union of the two busy bitsets
	prefix     []int32  // prefix[w] = popcount(words[:w]); len = words+1
}

// Pair returns the conflict counter for nodes u and v, creating it on first
// use. Handles are cached per unordered pair, so every caller asking for the
// same link shares one index. Out-of-range nodes return nil.
func (s *Schedule) Pair(u, v int) *PairCount {
	if u < 0 || u >= s.numNodes || v < 0 || v >= s.numNodes {
		return nil
	}
	if u > v {
		u, v = v, u
	}
	key := uint64(u)*uint64(s.numNodes) + uint64(v)
	if p, ok := s.pairs[key]; ok {
		return p
	}
	if s.pairs == nil {
		s.pairs = make(map[uint64]*PairCount)
	}
	p := &PairCount{
		s:      s,
		u:      u,
		v:      v,
		words:  make([]uint64, s.words),
		prefix: make([]int32, s.words+1),
	}
	s.pairs[key] = p
	return p
}

// ensure makes the union words and popcount prefix sums valid through word
// index w (inclusive), rebuilding lazily and only as far as queried: a stale
// version stamp resets the epoch, and each query extends the built range from
// where the previous one stopped. Queries are bounded by the caller's
// deadline, so a pair whose flow lives in the front of the hyperperiod never
// pays for the words behind its horizon — the old refresh rebuilt all of
// them on every mutation epoch. prefix[0] is the zero value and always
// correct, so an extension from built=0 starts from a valid base.
// It is split from extend so the built-and-current fast path inlines into
// the query methods; extend carries the rebuild loop.
func (p *PairCount) ensure(w int) {
	s := p.s
	if p.built > w && p.verU == s.nodeVer[p.u] && p.verV == s.nodeVer[p.v] {
		return
	}
	p.extend(w)
}

// extend is ensure's slow path: reset the epoch if the version stamps moved,
// then build words and prefix sums through word w.
func (p *PairCount) extend(w int) {
	s := p.s
	if p.verU != s.nodeVer[p.u] || p.verV != s.nodeVer[p.v] {
		p.verU, p.verV = s.nodeVer[p.u], s.nodeVer[p.v]
		p.built = 0
		s.stats.PairRebuilds++
	}
	if p.built > w {
		return
	}
	bu := s.nodeBusy[p.u*s.words : (p.u+1)*s.words]
	bv := s.nodeBusy[p.v*s.words : (p.v+1)*s.words]
	sum := p.prefix[p.built]
	for i := p.built; i <= w; i++ {
		word := bu[i] | bv[i]
		p.words[i] = word
		p.prefix[i] = sum
		sum += int32(bits.OnesCount64(word))
	}
	p.prefix[w+1] = sum
	p.built = w + 1
}

// CountThrough returns the number of slots in [0, x] in which either node of
// the pair is busy — one prefix lookup and one masked popcount. Callers that
// evaluate UnionCount(a, b) for many values of a under a fixed b can compute
// the b term once as CountThrough(b) and subtract CountThrough(a-1) per query,
// halving the popcount work (UnionCount(a, b) ≡ CountThrough(b) −
// CountThrough(a-1)). Out-of-range bounds are clamped.
func (p *PairCount) CountThrough(x int) int {
	s := p.s
	if x < 0 {
		return 0
	}
	if x >= s.numSlots {
		x = s.numSlots - 1
	}
	w := x / 64
	p.ensure(w)
	s.stats.PairQueries++
	return int(p.prefix[w]) +
		bits.OnesCount64(p.words[w]&(uint64(1)<<(uint(x%64)+1)-1))
}

// UnionCount returns the number of slots in the inclusive range [from, to]
// in which either node of the pair is busy — BusyUnionCount served from the
// prefix index. Out-of-range bounds are clamped; an empty range returns 0.
func (p *PairCount) UnionCount(from, to int) int {
	s := p.s
	if from < 0 {
		from = 0
	}
	if to >= s.numSlots {
		to = s.numSlots - 1
	}
	if from > to {
		return 0
	}
	wFrom, wTo := from/64, to/64
	p.ensure(wTo)
	s.stats.PairQueries++
	count := int(p.prefix[wTo+1] - p.prefix[wFrom])
	count -= bits.OnesCount64(p.words[wFrom] & (1<<uint(from%64) - 1))
	if r := uint(to % 64); r != 63 {
		count -= bits.OnesCount64(p.words[wTo] &^ (1<<(r+1) - 1))
	}
	return count
}
