package netsim

import (
	"math"

	"wsan/internal/radio"
	"wsan/internal/schedule"
	"wsan/internal/topology"
)

// driftedGain wraps a GainFunc with a per-(tx, rx, channel) Gaussian offset
// realized deterministically from the seed: the same (seed, path, channel)
// always drifts by the same amount, independent of evaluation order, so
// simulation runs are reproducible and the drift is consistent between a
// link's DATA direction and the interference it causes elsewhere.
func driftedGain(base radio.GainFunc, sigmaDB float64, seed int64) radio.GainFunc {
	return func(tx, rx, ch int) float64 {
		return base(tx, rx, ch) + radio.GaussianHash(seed, tx, rx, ch)*sigmaDB
	}
}

// memoGain caches a pure GainFunc for one run. Every gain the simulator
// asks for is between two nodes of the schedule's links on one of the run's
// physical channels, so the table covers exactly those: (nodes on scheduled
// links)² × channels entries, whatever the testbed's size. Other arguments
// fall through to base. NaN marks an entry not yet computed, so a NaN gain
// is simply recomputed each time. The returned function is not safe for
// concurrent use.
func memoGain(base radio.GainFunc, sched *schedule.Schedule, channels []int) radio.GainFunc {
	maxNode := -1
	for _, tx := range sched.Txs() {
		maxNode = max(maxNode, tx.Link.From, tx.Link.To)
	}
	node := make([]int32, maxNode+1)
	for i := range node {
		node[i] = -1
	}
	k := 0
	for _, tx := range sched.Txs() {
		for _, v := range [2]int{tx.Link.From, tx.Link.To} {
			if node[v] < 0 {
				node[v] = int32(k)
				k++
			}
		}
	}
	var chIdx [topology.NumChannels]int8
	for i := range chIdx {
		chIdx[i] = -1
	}
	nc := 0
	for _, c := range channels {
		if chIdx[c] < 0 {
			chIdx[c] = int8(nc)
			nc++
		}
	}
	vals := make([]float64, k*k*nc)
	for i := range vals {
		vals[i] = math.NaN()
	}
	return func(tx, rx, ch int) float64 {
		if uint(tx) < uint(len(node)) && uint(rx) < uint(len(node)) && uint(ch) < topology.NumChannels {
			if i, j, c := node[tx], node[rx], chIdx[ch]; i >= 0 && j >= 0 && c >= 0 {
				p := &vals[(int(i)*k+int(j))*nc+int(c)]
				if v := *p; v == v {
					return v
				}
				*p = base(tx, rx, ch)
				return *p
			}
		}
		return base(tx, rx, ch)
	}
}
