package main

import (
	"math/rand"
	"sort"
	"time"
)

// reference is a fixed computation that shares no code with the system
// under test: a sort and a map build over constant data, so it exercises
// the processor, caches and allocator much as the workloads do. Timed
// alongside a workload, it measures how fast the machine is running.
type reference struct {
	data, scratch []int
}

func newReference() *reference {
	rng := rand.New(rand.NewSource(1))
	k := &reference{data: make([]int, 8192), scratch: make([]int, 8192)}
	for i := range k.data {
		k.data[i] = rng.Int()
	}
	return k
}

// refMS is the reference computation's typical time on the machine the
// benchmark's bounds were set on (see README.md), so normalized latencies
// read as milliseconds there.
const refMS = 0.8

var refSink int

// sample times one run of the computation.
func (k *reference) sample() time.Duration {
	t0 := time.Now()
	copy(k.scratch, k.data)
	sort.Ints(k.scratch)
	m := make(map[int]int, 512)
	for i, v := range k.scratch[:2048] {
		m[v] = i
	}
	refSink += len(m)
	return time.Since(t0)
}
