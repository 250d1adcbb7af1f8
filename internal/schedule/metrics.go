package schedule

import (
	"wsan/internal/graph"
)

// TxPerChannelHist returns the distribution the paper plots in Figs. 4 and 9:
// for every occupied (slot, offset) cell, the number of transmissions sharing
// that channel. Key = transmissions per channel, value = number of cells.
// A schedule with no reuse has all its mass at key 1.
func (s *Schedule) TxPerChannelHist() map[int]int {
	hist := make(map[int]int)
	for _, cell := range s.cells {
		if n := len(cell); n > 0 {
			hist[n]++
		}
	}
	return hist
}

// ReuseHopHist returns the distribution the paper plots in Fig. 5: for every
// cell where a channel is reused (≥2 transmissions), the minimum hop distance
// on G_R between any transmission's sender and any other transmission's
// receiver. Key = hop count, value = number of reused cells.
func (s *Schedule) ReuseHopHist(hop *graph.HopMatrix) map[int]int {
	hist := make(map[int]int)
	for _, cell := range s.cells {
		if len(cell) < 2 {
			continue
		}
		minHop := int(graph.Unreachable)
		for i, a := range cell {
			for j, b := range cell {
				if i == j {
					continue
				}
				if d := int(hop.Dist(a.Link.From, b.Link.To)); d < minHop {
					minHop = d
				}
			}
		}
		hist[minHop]++
	}
	return hist
}

// ReusedLinks returns the set of directed links that appear at least once in
// a reused cell (sharing a channel with another transmission). The detection
// experiments (Sec. VI / Figs. 10–11) operate on exactly these links.
func (s *Schedule) ReusedLinks() map[[2]int]bool {
	reused := make(map[[2]int]bool)
	for _, cell := range s.cells {
		if len(cell) < 2 {
			continue
		}
		for _, tx := range cell {
			reused[[2]int{tx.Link.From, tx.Link.To}] = true
		}
	}
	return reused
}
