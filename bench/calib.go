package main

import (
	"container/heap"
	"math/rand"
	"time"
)

// The calibration kernel.  On a shared machine the host's speed drifts by
// 20-30% over minutes (other tenants, frequency scaling), which moves every
// raw time of a run together.  The parent therefore runs this fixed kernel,
// in a child process of its own, before the first timed op and after every
// timed op, and the reported times are scaled by refCalibS / (median kernel
// time of the invocation): a time in reference-machine seconds.  The kernel
// uses only the standard library, so no change to the simulator can move it,
// and it mixes what the simulator spends its time on
// — a binary heap of allocated events, map updates and short-lived
// allocations — over a live set of several megabytes, so that contention for
// the shared caches slows it as it slows the simulator.

// refCalibS is the kernel's median time on the reference machine (two-core
// x86-64 container, Go 1.24).
const refCalibS = 0.094

type calibEvent struct {
	at      float64
	seq     int
	payload []byte
}

type calibQueue []*calibEvent

func (q calibQueue) Len() int           { return len(q) }
func (q calibQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calibQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(x any)        { *q = append(*q, x.(*calibEvent)) }
func (q *calibQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calibSink keeps the kernel's result observable so it is not optimised away.
var calibSink int

// calibrate runs the kernel once and returns its host time in seconds.
func calibrate() float64 {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(1))
	q := &calibQueue{}
	counts := map[int]int{}
	for i := 0; i < 50000; i++ {
		heap.Push(q, &calibEvent{at: rng.Float64(), seq: i, payload: make([]byte, 128)})
	}
	for i := 0; i < 100000; i++ {
		e := heap.Pop(q).(*calibEvent)
		counts[i%50000] += e.seq
		heap.Push(q, &calibEvent{at: e.at + rng.ExpFloat64(), seq: i, payload: make([]byte, 128)})
	}
	calibSink += len(counts)
	return time.Since(t0).Seconds()
}
