package scheduler

import (
	"bytes"
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

// fuzzApply runs a batch of one through its single-op entry point and a
// longer batch, or a rebudget, through ApplyDeltaBatch.
func fuzzApply(sched *schedule.Schedule, work []*flow.Flow, batch []BatchOp, cfg Config) (*DeltaResult, error) {
	if len(batch) > 1 || batch[0].Kind == BatchRebudget {
		res, err := ApplyDeltaBatch(sched, work, batch, cfg)
		if err != nil {
			return nil, err
		}
		return &res.DeltaResult, nil
	}
	switch op := batch[0]; op.Kind {
	case BatchAdd:
		return AddFlowDelta(sched, work, op.Flow, cfg)
	case BatchRemove:
		return RemoveFlowDelta(sched, op.FlowID, nil)
	case BatchReroute:
		return RerouteFlowDelta(sched, work, op.FlowID, op.Route, cfg)
	case BatchRepair:
		return RepairDelta(sched, work, op.Links, nil)
	default:
		return CompactDelta(sched, work)
	}
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
