package scheduler

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/schedule"
)

// fuzzNodes is the node space of FuzzDeltaOps's grids. Routes are built
// from arbitrary links among these nodes; the reuse distances come from a
// ring over them.
const fuzzNodes = 6

// fuzzRoute routes src to dst directly, or through via when via is a third
// node.
func fuzzRoute(src, dst, via int) []flow.Link {
	if via == src || via == dst || via >= fuzzNodes {
		return []flow.Link{{From: src, To: dst}}
	}
	return []flow.Link{{From: src, To: via}, {From: via, To: dst}}
}

// fuzzWorkload is the workload an op is told about: all of active, or, when
// mask's low bit is set, the flows whose index bit (1 + i mod 7) is clear.
func fuzzWorkload(active []*flow.Flow, mask byte) []*flow.Flow {
	if mask&1 == 0 {
		return active
	}
	var out []*flow.Flow
	for i, f := range active {
		if mask>>(1+i%7)&1 == 0 {
			out = append(out, f)
		}
	}
	return out
}

// FuzzDeltaOps drives the delta engine with random batches of add, remove,
// reroute, rebudget, repair and compact ops on a small grid, telling each batch the
// full workload or only part of it. data[0] picks the grid (4, 8 or 16
// slots; 1 or 2 channels), the algorithm and retransmission; then every 7
// bytes are one op, [kind, a, b, c, d, e, mask], and an op whose kind has
// the high bit set joins the previous op's batch. After every batch:
//   - on an error or an infeasible batch, the grid is byte-identical to the
//     pre-batch grid (transmission order aside);
//   - on success, Changes is the Diff of the two grids, applying
//     Invert(Changes) restores the pre-batch grid, no flow missing from the
//     workload lost a transmission unless the batch removed it, every
//     active flow holds all its transmissions in order and in its windows,
//     and Validate passes.
func FuzzDeltaOps(f *testing.F) {
	// Flow 5 holds node 0 in all four slots; flow 1 (link 0→2) is then
	// admitted with a workload that does not list flow 5. The full rung
	// must not delete flow 5 to make room.
	f.Add([]byte{0, 0, 5, 0, 1, 2, 6, 0, 0, 1, 0, 2, 12, 6, 3})
	// RC on 8 slots and 2 channels: three adds, a reroute batched with a
	// remove, a repair, a compact told only part of the workload (an
	// error), and a compact told all of it.
	f.Add([]byte{16,
		0, 3, 0, 2, 21, 1, 0,
		1, 1, 3, 5, 10, 6, 0,
		6, 7, 4, 0, 21, 2, 0,
		3, 1, 4, 0, 0, 0, 0,
		130, 2, 0, 0, 0, 0, 0,
		4, 0, 0, 0, 0, 0, 0,
		5, 0, 0, 0, 0, 0, 3,
		5, 0, 0, 0, 0, 0, 0})
	// RA on 16 slots and 2 channels with retransmission: a budgeted add,
	// another add, a tight higher-priority admission, and a batch that
	// admits one flow and removes another.
	f.Add([]byte{29,
		0, 9, 0, 3, 45, 49, 0,
		0, 6, 1, 4, 22, 2, 0,
		0, 2, 0, 3, 3, 6, 0,
		0, 11, 2, 5, 45, 6, 0,
		130, 0, 0, 0, 0, 0, 0})
	// RA on 16 slots and 2 channels with retransmission: two adds, rebudgets
	// that grow, reshape and clear a budget, one whose budget is a hop too
	// long (an error), and a batch that removes a flow and rebudgets
	// another.
	f.Add([]byte{29,
		0, 9, 0, 3, 45, 49, 0,
		0, 6, 1, 4, 22, 2, 0,
		7, 1, 1, 5, 0, 0, 0,
		7, 0, 1, 2, 1, 0, 0,
		7, 1, 0, 0, 0, 0, 0,
		7, 0, 2, 0, 0, 0, 0,
		2, 0, 0, 0, 0, 0, 0,
		135, 1, 1, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+7*24 {
			return
		}
		h := int(data[0])
		slots := []int{4, 8, 16}[h%3]
		_, hop := ringGraph(fuzzNodes)
		cfg := Config{Algorithm: []Algorithm{NR, RA, RC}[h/6%3], NumChannels: 1 + h/3%2,
			RhoT: 2, HopGR: hop, Retransmit: h/18%2 == 1}
		rhoT := cfg.RhoT
		if cfg.Algorithm == NR {
			rhoT = 0
		}
		sched, err := schedule.New(slots, cfg.NumChannels, fuzzNodes)
		if err != nil {
			t.Fatal(err)
		}
		var active []*flow.Flow
		ops := data[1:]
		for nb := 1; len(ops) >= 7; nb++ {
			var batch []BatchOp
			var mask byte
			for len(ops) >= 7 && (len(batch) == 0 || ops[0]&0x80 != 0) {
				op, m := fuzzOp(ops, active, slots)
				batch, mask, ops = append(batch, op), m, ops[7:]
			}
			work := fuzzWorkload(active, mask)
			before := sched.Clone()
			res, err := fuzzApply(sched, work, batch, cfg)
			if err != nil || !res.Schedulable {
				if err == nil && res.Changes != nil {
					t.Fatalf("batch %d: infeasible batch returned changes", nb)
				}
				if !bytes.Equal(canonicalBytes(t, sched), canonicalBytes(t, before)) {
					t.Fatalf("batch %d (%v, err %v): failed batch changed the grid", nb, batch, err)
				}
				continue
			}
			want, err := schedule.Diff(before, sched)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				want = nil
			}
			if len(res.Changes) == 0 {
				res.Changes = nil
			}
			if !reflect.DeepEqual(res.Changes, want) {
				t.Fatalf("batch %d: Changes disagree with Diff:\n got %v\nwant %v", nb, res.Changes, want)
			}
			restored := sched.Clone()
			if err := schedule.Apply(restored, schedule.Invert(res.Changes)); err != nil {
				t.Fatalf("batch %d: applying the inverse: %v", nb, err)
			}
			if !bytes.Equal(canonicalBytes(t, restored), canonicalBytes(t, before)) {
				t.Fatalf("batch %d: Apply(Invert(Changes)) did not restore the grid", nb)
			}
			listed := flowsByID(work)
			after := txSet(sched)
			for _, tx := range before.Txs() {
				if listed[tx.FlowID] != nil || slices.ContainsFunc(batch, func(op BatchOp) bool {
					return op.Kind == BatchRemove && op.FlowID == tx.FlowID
				}) {
					continue
				}
				if !after[tx] {
					t.Fatalf("batch %d (%v): unlisted flow %d lost %+v", nb, batch, tx.FlowID, tx)
				}
			}
			active = fuzzCommit(active, batch)
			if err := sched.Validate(cfg.HopGR, rhoT); err != nil {
				t.Fatalf("batch %d: %v", nb, err)
			}
			held := 0
			for _, g := range active {
				held += slots / g.Period * g.TotalAttempts(cfg.attempts())
			}
			if held != sched.Len() {
				t.Fatalf("batch %d: grid holds %d transmissions, active flows %d", nb, sched.Len(), held)
			}
			if len(active) > 0 {
				checkTiming(t, active, &Result{Schedule: sched, Schedulable: true}, cfg.attempts())
			}
		}
	})
}

// fuzzOp decodes one 7-byte op against the active workload and returns it
// with its workload mask.
func fuzzOp(b []byte, active []*flow.Flow, slots int) (BatchOp, byte) {
	kind, a, c, d, e, g := int(b[0]&0x7f), int(b[1]), int(b[2]), int(b[3]), int(b[4]), int(b[5])
	pick := func() *flow.Flow {
		if len(active) == 0 {
			return &flow.Flow{ID: a % 16}
		}
		return active[a%len(active)]
	}
	switch kind % 8 {
	case 2:
		return BatchOp{Kind: BatchRemove, FlowID: pick().ID}, b[6]
	case 3:
		target := pick()
		return BatchOp{Kind: BatchReroute, FlowID: target.ID,
			Route: fuzzRoute(target.Src, target.Dst, c%(fuzzNodes+1))}, b[6]
	case 4:
		return BatchOp{Kind: BatchRepair, Links: pick().Route}, b[6]
	case 5:
		return BatchOp{Kind: BatchCompact}, b[6]
	case 7:
		// c picks a cleared budget, one per hop, or one hop too many (a
		// validation error); d and e pick the attempts.
		target := pick()
		op := BatchOp{Kind: BatchRebudget, FlowID: target.ID}
		if n := len(target.Route) + c%3 - 1; n > 0 {
			for h := range n {
				op.Budget = append(op.Budget, 1+(d>>h+e)%3)
			}
		}
		return op, b[6]
	}
	src, dst := c%fuzzNodes, d%fuzzNodes
	if src == dst {
		dst = (src + 1) % fuzzNodes
	}
	period := slots >> (e % 3)
	nf := &flow.Flow{ID: a % 16, Src: src, Dst: dst, Period: period, Deadline: 1 + e/3%period}
	nf.Route = fuzzRoute(src, dst, g%(fuzzNodes+1))
	if g>>4&1 == 1 {
		for range nf.Route {
			nf.TxBudget = append(nf.TxBudget, 1+g>>5%3)
		}
	}
	return BatchOp{Kind: BatchAdd, Flow: nf}, b[6]
}

// fuzzApply runs a batch of one add, remove or reroute through its
// single-op entry point and every other batch through ApplyDeltaBatch.
func fuzzApply(sched *schedule.Schedule, work []*flow.Flow, batch []BatchOp, cfg Config) (*DeltaResult, error) {
	if len(batch) == 1 {
		switch op := batch[0]; op.Kind {
		case BatchAdd:
			return AddFlowDelta(sched, work, op.Flow, cfg)
		case BatchRemove:
			return RemoveFlowDelta(sched, op.FlowID, nil)
		case BatchReroute:
			return RerouteFlowDelta(sched, work, op.FlowID, op.Route, cfg)
		}
	}
	res, err := ApplyDeltaBatch(sched, work, batch, cfg)
	if err != nil {
		return nil, err
	}
	return &res.DeltaResult, nil
}

// fuzzCommit returns the active workload after a successful batch.
func fuzzCommit(active []*flow.Flow, batch []BatchOp) []*flow.Flow {
	for _, op := range batch {
		switch op.Kind {
		case BatchAdd:
			active = setFlow(active, op.Flow.ID, op.Flow)
		case BatchRemove:
			active = setFlow(active, op.FlowID, nil)
		case BatchReroute, BatchRebudget:
			moved := *active[findFlow(active, op.FlowID)]
			if op.Kind == BatchReroute {
				moved.SetRoute(op.Route)
			} else {
				moved.TxBudget = op.Budget
			}
			active = setFlow(active, op.FlowID, &moved)
		}
	}
	return active
}

// refNet is the journal netting as it was before finish sorted the journal:
// a one-kind journal copied in order, a mixed one summed through a map, then
// either put in canonical order by schedule.SortChanges. It is kept verbatim
// as the reference FuzzJournalNet holds finish to, but for reading the
// journal's entries as schedule.Change.
func refNet(ops []schedule.Change) []schedule.Change {
	removals := 0
	for _, e := range ops {
		if e.Kind != schedule.Added {
			removals++
		}
	}
	var changes []schedule.Change
	if removals == 0 || removals == len(ops) {
		kind := schedule.Added
		if removals > 0 {
			kind = schedule.Removed
		}
		changes = make([]schedule.Change, len(ops))
		for i, e := range ops {
			changes[i] = schedule.Change{Kind: kind, Tx: e.Tx}
		}
	} else {
		net := make(map[schedule.Tx]int, len(ops))
		for _, e := range ops {
			if e.Kind == schedule.Added {
				net[e.Tx]++
			} else {
				net[e.Tx]--
			}
		}
		changes = make([]schedule.Change, 0, len(net))
		for tx, n := range net {
			switch {
			case n > 0:
				changes = append(changes, schedule.Change{Kind: schedule.Added, Tx: tx})
			case n < 0:
				changes = append(changes, schedule.Change{Kind: schedule.Removed, Tx: tx})
			}
		}
	}
	schedule.SortChanges(changes)
	return changes
}

// journalTx decodes a transmission from two bytes. The fields span a small
// range, so journals revisit the same slot, flow, hop and attempt often; w
// picks the offset and one of two links per hop, as a detour would. spread
// maps the eight slots into the grid's whole slot range, [0, 2^31−1): kept
// dense, or spaced 2^16 or 2^24 apart, or packed just below MaxInt32. The
// 2^16 spacing lands every slot on the same low 16 bits, and the 2^24 one
// reverses their low 24 bits' order.
func journalTx(v, w, spread byte) schedule.Tx {
	i, flowID, hop, via := int(v%8), int(v/8%4), int(v/32%2), 4*int(w/3%2)
	slot := i
	switch spread % 4 {
	case 1:
		slot = (i + 1) << 16
	case 2:
		slot = (i+1)<<24 | (7 - i)
	case 3:
		slot = math.MaxInt32 - 8 + i
	}
	return schedule.Tx{FlowID: flowID, Instance: i / 4, Hop: hop, Attempt: int(v / 64 % 2),
		Link: flow.Link{From: via + hop, To: via + hop + 1}, Slot: slot, Offset: int(w % 3)}
}

// FuzzJournalNet holds finish's netting to the reference map netting, byte
// for byte, on random journals of a valid grid: no two present
// transmissions share a slot, flow, hop and attempt. data[0]'s low three
// bits seed the initial grid with up to seven transmissions of two bytes
// each, its bit 3 opens the journal with 64 placements each removed at
// once (flows 4–7, which the steps never use; they cancel, and take the
// journal past the length schedule.NetJournal radix-sorts from), and its
// top two bits pick journalTx's slot spread; then every two bytes [k, v]
// are one step, by k%4: remove a present transmission, place a new one,
// move a present transmission to another offset or link in its slot, or
// re-place the last one removed (a placement that cancels a removal).
func FuzzJournalNet(f *testing.F) {
	// Pure placements, pure removals, same-slot offset and link moves among
	// a repeat and a fresh placement, and removals cancelled by re-placements.
	f.Add([]byte{0, 1, 3, 1, 9})
	f.Add([]byte{3, 0, 0, 8, 1, 16, 2, 0, 0, 0, 0})
	f.Add([]byte{2, 9, 0, 17, 1, 6, 0, 2, 0, 3, 0, 1, 40, 0, 0})
	f.Add([]byte{4, 1, 0, 2, 0, 3, 0, 4, 0, 0, 1, 3, 0, 5, 6, 0, 0, 3, 0, 1, 200})
	// Offset moves back and forth in a journal long enough that the sort is
	// not stable: a key without the offset splits a run of equal
	// transmissions.
	f.Add([]byte("10020101010201010102020&0&020"))
	// Journals over five slots with the slots spaced 2^16 and 2^24 apart and
	// packed below MaxInt32, comparison- and radix-sorted: a key or a radix
	// pass that keeps 16 or 24 bits of the slot merges or reorders them.
	for _, top := range []byte{0x40, 0x48, 0x80, 0x88, 0xc0, 0xc8} {
		f.Add([]byte{top | 4, 1, 0, 2, 0, 3, 0, 4, 0, 0, 1, 3, 0, 5, 6, 0, 0, 3, 0, 1, 200})
	}
	// A transmission of the initial grid moved around its slot's three
	// offsets and back: its entries at one offset are not adjacent in the
	// journal, so an order that ties offsets leaves a removal and a
	// re-placement unnetted.
	for _, top := range []byte{0, 0x08, 0xc8} {
		f.Add([]byte{top | 1, 0, 0, 2, 0, 2, 0, 2, 0})
	}
	// Sixteen placements in one slot, latest flow first, then offset moves
	// there and back and a link move: more than twelve entries share the
	// slot, so slices.SortFunc does not leave them to its insertion sort,
	// and one transmission's removals and re-placements at three offsets
	// interleave.
	// In every spread, behind the cancelling opening (radix-sorted) and
	// without it (comparison-sorted).
	for _, spread := range []byte{0, 0x08, 0x40, 0x48, 0x88, 0xc8} {
		seed := []byte{spread}
		for v := 120; v >= 0; v -= 8 {
			seed = append(seed, 1, byte(v))
		}
		seed = append(seed, 2, 0, 2, 15, 2, 15, 6, 3, 3, 0, 0, 5, 3, 0)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+2*64 {
			return
		}
		spread := data[0] >> 6
		key := func(tx schedule.Tx) [4]int { return [4]int{tx.Slot, tx.FlowID, tx.Hop, tx.Attempt} }
		var present []schedule.Tx
		held := map[[4]int]bool{}
		var ops []schedule.Change
		var last *schedule.Tx
		if data[0]&8 != 0 {
			for i := 0; i < 64; i++ {
				tx := journalTx(byte(37*i), byte(i), spread)
				tx.FlowID += 4
				ops = append(ops, schedule.Change{Kind: schedule.Added, Tx: tx}, schedule.Change{Kind: schedule.Removed, Tx: tx})
			}
		}
		place := func(tx schedule.Tx, journal bool) {
			if held[key(tx)] {
				return
			}
			held[key(tx)] = true
			present = append(present, tx)
			if journal {
				ops = append(ops, schedule.Change{Kind: schedule.Added, Tx: tx})
			}
		}
		remove := func(i int) schedule.Tx {
			tx := present[i]
			present = slices.Delete(present, i, i+1)
			delete(held, key(tx))
			ops = append(ops, schedule.Change{Kind: schedule.Removed, Tx: tx})
			last = &tx
			return tx
		}
		n0 := min(int(data[0]%8), (len(data)-1)/2)
		for i := 0; i < n0; i++ {
			place(journalTx(data[1+2*i], data[2+2*i], spread), false)
		}
		for steps := data[1+2*n0:]; len(steps) >= 2; steps = steps[2:] {
			k, v := steps[0], steps[1]
			switch k % 4 {
			case 0:
				if len(present) > 0 {
					remove(int(v) % len(present))
				}
			case 1:
				place(journalTx(v, k/4, spread), true)
			case 2:
				if len(present) > 0 {
					tx := remove(int(v) % len(present))
					if k/4%2 == 0 {
						tx.Offset = (tx.Offset + 1) % 3
					} else {
						tx.Link = flow.Link{From: tx.Link.From ^ 4, To: tx.Link.To ^ 4}
					}
					place(tx, true)
				}
			case 3:
				if last != nil {
					place(*last, true)
				}
			}
		}
		want := refNet(ops)
		d := &deltaOp{ops: slices.Clone(ops), replays: 2}
		var res DeltaResult
		d.finish(&res)
		if !reflect.DeepEqual(res.Changes, want) {
			t.Fatalf("journal %v:\n got %v\nwant %v", ops, res.Changes, want)
		}
		if !slices.Equal(d.ops, ops) {
			t.Fatalf("finish changed the journal %v to %v", ops, d.ops)
		}
		placed := 0
		for _, e := range ops {
			if e.Kind == schedule.Added {
				placed++
			}
		}
		if res.PlacementOps != placed+2 || res.RemovalOps != len(ops)-placed {
			t.Fatalf("counted %d placements and %d removals, journal has %d and %d (plus 2 replays)",
				res.PlacementOps, res.RemovalOps, placed, len(ops)-placed)
		}
	})
}
