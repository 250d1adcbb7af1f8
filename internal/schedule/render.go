package schedule

import (
	"fmt"
	"io"
	"strings"
)

// Render writes an ASCII slotframe matrix: one row per channel offset, one
// column per slot, each cell showing the flow ID(s) transmitting there.
// Shared cells (channel reuse) are bracketed. Long schedules are windowed
// with from/to (inclusive/exclusive); Render clamps out-of-range bounds.
//
//	offset   0     1     2     3     4
//	     0   f0    f0    f2    .     [f1 f3]
//	     1   f1    .     f1    f4    .
//
// It is the visual the paper's Fig. 4/5 statistics summarize: reuse shows
// up as bracketed cells, and their sparsity under RC versus RA is visible
// at a glance.
func (s *Schedule) Render(w io.Writer, from, to int) error {
	if from < 0 {
		from = 0
	}
	if to > s.numSlots || to <= 0 {
		to = s.numSlots
	}
	if from >= to {
		return fmt.Errorf("render: empty slot window [%d, %d)", from, to)
	}
	// Pre-render cells to size the columns.
	cells := make([][]string, s.numOffsets)
	width := 1
	var cell []int32
	for off := 0; off < s.numOffsets; off++ {
		cells[off] = make([]string, to-from)
		for slot := from; slot < to; slot++ {
			cell = s.Cell(slot, off, cell[:0])
			var text string
			switch len(cell) {
			case 0:
				text = "."
			case 1:
				text = fmt.Sprintf("f%d", s.txs[cell[0]].FlowID)
			default:
				ids := make([]string, len(cell))
				for i, p := range cell {
					ids[i] = fmt.Sprintf("f%d", s.txs[p].FlowID)
				}
				text = "[" + strings.Join(ids, " ") + "]"
			}
			cells[off][slot-from] = text
			if len(text) > width {
				width = len(text)
			}
		}
	}
	// Header row with slot numbers.
	if _, err := fmt.Fprintf(w, "%8s", "slot"); err != nil {
		return err
	}
	for slot := from; slot < to; slot++ {
		if _, err := fmt.Fprintf(w, " %-*d", width, slot); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for off := 0; off < s.numOffsets; off++ {
		if _, err := fmt.Fprintf(w, "offset %d", off); err != nil {
			return err
		}
		for _, text := range cells[off] {
			if _, err := fmt.Fprintf(w, " %-*s", width, text); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
