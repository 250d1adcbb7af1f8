// The repair and compact ops move single transmissions instead of placing a
// flow. A move is the engine's ρ=∞ query (earliest slot with both endpoints
// idle, lowest free offset) over the transmission's route-order window, so
// it always lands in an exclusive cell. Both ops validate before their first
// move, so an error leaves the schedule untouched.

package scheduler

import (
	"cmp"
	"fmt"
	"slices"

	"wsan/internal/flow"
	"wsan/internal/schedule"
)

// repair performs a BatchRepair op.
func (d *deltaOp) repair(links []flow.Link) error {
	degraded := make(map[flow.Link]bool, len(links))
	for _, l := range links {
		degraded[l] = true
	}
	var victims []schedule.Tx
	var cell []int32
	for _, tx := range d.sched.Txs() {
		if degraded[tx.Link] {
			if cell = d.sched.Cell(tx.Slot, tx.Offset, cell[:0]); len(cell) > 1 {
				victims = append(victims, tx)
			}
		}
	}
	slices.SortFunc(victims, func(a, b schedule.Tx) int {
		return cmp.Or(cmp.Compare(a.FlowID, b.FlowID), cmp.Compare(a.Instance, b.Instance),
			cmp.Compare(a.Hop, b.Hop), cmp.Compare(a.Attempt, b.Attempt))
	})
	byID := flowsByID(d.work)
	groups := d.instanceTxs(victims)
	// A victim inside its window stays inside it while the other victims of
	// its instance move, since each of them moves strictly between its
	// neighbours; so checking every window here means none can empty later.
	for _, tx := range victims {
		f := byID[tx.FlowID]
		if f == nil {
			return fmt.Errorf("scheduler: repair: schedule references unknown flow %d", tx.FlowID)
		}
		if lo, hi := window(f, tx, groups[instKey{tx.FlowID, tx.Instance}]); tx.Slot < lo || tx.Slot > hi {
			return fmt.Errorf("scheduler: repair: flow %d instance %d hop %d sits outside its route-order window [%d, %d]",
				tx.FlowID, tx.Instance, tx.Hop, lo, hi)
		}
	}
	for _, tx := range victims {
		group := groups[instKey{tx.FlowID, tx.Instance}]
		lo, hi := window(byID[tx.FlowID], tx, group)
		if d.relocate(tx, lo, hi, group) {
			d.moved++
		} else {
			d.unmovable = append(d.unmovable, tx)
		}
	}
	return nil
}

// compact performs a BatchCompact op. Transmissions are taken in slot
// order, so a moved predecessor frees room for its successors.
func (d *deltaOp) compact() error {
	txs := slices.Clone(d.sched.Txs())
	slices.SortFunc(txs, func(a, b schedule.Tx) int {
		return cmp.Or(cmp.Compare(a.Slot, b.Slot), cmp.Compare(a.FlowID, b.FlowID),
			cmp.Compare(a.Hop, b.Hop), cmp.Compare(a.Attempt, b.Attempt), cmp.Compare(a.Instance, b.Instance))
	})
	byID := flowsByID(d.work)
	for _, tx := range txs {
		if byID[tx.FlowID] == nil {
			return fmt.Errorf("scheduler: compact: schedule references unknown flow %d", tx.FlowID)
		}
	}
	groups := d.instanceTxs(txs)
	for _, tx := range txs {
		group := groups[instKey{tx.FlowID, tx.Instance}]
		if lo, _ := window(byID[tx.FlowID], tx, group); lo < tx.Slot && d.relocate(tx, lo, tx.Slot-1, group) {
			d.moved++
		}
	}
	return nil
}

// relocate moves tx into the earliest exclusive cell of slots [lo, hi],
// journaled, and records the move in group, the live transmissions of tx's
// instance. With no such cell tx stays where it was: the removal that let
// the query see tx's own slot as idle is undone unjournaled, as the net
// change is nil.
func (d *deltaOp) relocate(tx schedule.Tx, lo, hi int, group []schedule.Tx) bool {
	// tx was read from the schedule and the query returns a cell with both
	// endpoints idle, so neither Remove nor Place can fail.
	_ = d.sched.Remove(tx)
	slot, offset, ok := d.eng.findSlot(&tx, lo, hi, rhoInf)
	if !ok {
		_ = d.sched.Place(tx)
		return false
	}
	moved := tx
	moved.Slot, moved.Offset = slot, offset
	_ = d.sched.Place(moved)
	d.ops = append(d.ops, schedule.Change{Kind: schedule.Removed, Tx: tx}, schedule.Change{Kind: schedule.Added, Tx: moved})
	group[slices.Index(group, tx)] = moved
	return true
}

// instKey identifies one flow instance.
type instKey struct{ flow, inst int }

// instanceTxs groups the live transmissions of the instances txs belong to,
// each group in Txs order, reading only the flows txs belong to.
func (d *deltaOp) instanceTxs(txs []schedule.Tx) map[instKey][]schedule.Tx {
	groups := make(map[instKey][]schedule.Tx)
	for _, tx := range txs {
		groups[instKey{tx.FlowID, tx.Instance}] = nil
	}
	read := make(map[int]bool)
	var buf []schedule.Tx
	for _, v := range txs {
		if read[v.FlowID] {
			continue
		}
		read[v.FlowID] = true
		buf = d.sched.FlowTxs(v.FlowID, buf[:0])
		for _, tx := range buf {
			k := instKey{tx.FlowID, tx.Instance}
			if g, ok := groups[k]; ok {
				groups[k] = append(g, tx)
			}
		}
	}
	return groups
}

// window returns the slots tx may occupy without leaving its instance's
// release/deadline window or passing another transmission of group in
// (hop, attempt) order.
func window(f *flow.Flow, tx schedule.Tx, group []schedule.Tx) (lo, hi int) {
	lo = f.Release(tx.Instance)
	hi = lo + f.Deadline - 1
	for _, o := range group {
		switch {
		case o == tx:
		case o.Hop < tx.Hop || o.Hop == tx.Hop && o.Attempt < tx.Attempt:
			lo = max(lo, o.Slot+1)
		default:
			hi = min(hi, o.Slot-1)
		}
	}
	return lo, hi
}

// flowsByID indexes a workload by flow ID.
func flowsByID(work []*flow.Flow) map[int]*flow.Flow {
	byID := make(map[int]*flow.Flow, len(work))
	for _, f := range work {
		byID[f.ID] = f
	}
	return byID
}
