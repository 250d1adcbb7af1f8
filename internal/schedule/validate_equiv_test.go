package schedule

import (
	"fmt"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/graph"
)

// refValidate is a verbatim copy of Validate before it bucketed the list by
// slot with a counting sort, kept as the oracle for its verdict. It ranges
// over a map, so when two slots break the rules it may name either.
func refValidate(s *Schedule, hop *graph.HopMatrix, rhoT int) error {
	perSlot := make(map[int][]Tx)
	for _, tx := range s.txs {
		if tx.Slot < 0 || tx.Slot >= s.numSlots || tx.Offset < 0 || tx.Offset >= s.numOffsets {
			return fmt.Errorf("validate: tx %+v out of range", tx)
		}
		perSlot[tx.Slot] = append(perSlot[tx.Slot], tx)
	}
	for slot, txs := range perSlot {
		for i := 0; i < len(txs); i++ {
			for j := i + 1; j < len(txs); j++ {
				a, b := txs[i], txs[j]
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

// lineHops is the hop matrix of the path 0–1–…–11, which covers every node
// FuzzScheduleOps can place.
var lineHops = func() *graph.HopMatrix {
	g := graph.New(12)
	for i := 0; i+1 < 12; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			panic(err)
		}
	}
	return g.AllPairsHop()
}()

// checkValidateVerdict fails t unless Validate and the reference agree on
// whether s is valid, with reuse disabled and at ρ_t = 3 on lineHops.
func checkValidateVerdict(t *testing.T, s *Schedule) {
	t.Helper()
	for _, c := range []struct {
		hop  *graph.HopMatrix
		rhoT int
	}{{nil, 0}, {lineHops, 3}} {
		err, ref := s.Validate(c.hop, c.rhoT), refValidate(s, c.hop, c.rhoT)
		if (err == nil) != (ref == nil) {
			t.Fatalf("ρ_t=%d: Validate says %v, reference %v", c.rhoT, err, ref)
		}
	}
}

// TestValidateReportsLowestSlot: with reuse violations in slots 7 and 2,
// placed in that order, Validate must name slot 2 every time. The map the
// reference ranges over named either.
func TestValidateReportsLowestSlot(t *testing.T) {
	s := mustNew(t, 10, 2, 8)
	for _, tx := range []Tx{
		{FlowID: 0, Link: flow.Link{From: 0, To: 1}, Slot: 7, Offset: 1},
		{FlowID: 1, Link: flow.Link{From: 2, To: 3}, Slot: 7, Offset: 1},
		{FlowID: 2, Link: flow.Link{From: 4, To: 5}, Slot: 2, Offset: 0},
		{FlowID: 3, Link: flow.Link{From: 6, To: 7}, Slot: 2, Offset: 0},
	} {
		if err := s.Place(tx); err != nil {
			t.Fatal(err)
		}
	}
	const want = "validate: channel reuse in slot 2 offset 0 but reuse disabled"
	for run := 0; run < 50; run++ {
		if err := s.Validate(nil, 0); err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want %q", run, err, want)
		}
	}
}
