package main

import (
	"container/heap"
	"runtime"
	"time"
)

// Host-speed calibration. A shared 2-vCPU x86-64 VM, the host of the
// baseline in README.md, drifts in speed by 20-40% for minutes at a time,
// and every wall-time metric moves with it, across workloads and both
// kinds of simulation alike. So a run also times a fixed kernel between passes: an event
// queue like the simulator's, written here and using no hetsim code, so
// no change to the program can speed it up. The run's wall-time metrics
// are divided by the kernel's slowdown against calibRefMS; they read as on
// a host where the kernel takes calibRefMS. Over 30-second windows of
// interleaved runs this took the spread of simulation times from 0.22 to
// 0.045 (see README.md).
const calibRefMS = 27.0

type calibEvent struct {
	t   int64
	seq int
}

type calibQueue []*calibEvent

func (q calibQueue) Len() int { return len(q) }
func (q calibQueue) Less(i, j int) bool {
	return q[i].t < q[j].t || q[i].t == q[j].t && q[i].seq < q[j].seq
}
func (q calibQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(x any)   { *q = append(*q, x.(*calibEvent)) }
func (q *calibQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// calibrator times the kernel; a nil calibrator takes no samples.
type calibrator struct {
	events  []calibEvent
	queue   calibQueue
	samples []float64 // kernel times, ms
}

func newCalibrator() *calibrator {
	return &calibrator{events: make([]calibEvent, 1<<15), queue: make(calibQueue, 0, 1<<15)}
}

// sample times one run of the kernel, after a collection so that no GC
// cycle of the workload's overlaps it. The kernel does not allocate.
func (c *calibrator) sample() {
	if c == nil {
		return
	}
	runtime.GC()
	t0 := time.Now()
	q := c.queue[:0]
	x := uint64(88172645463325252)
	next := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % 100000)
	}
	for i := range c.events {
		c.events[i] = calibEvent{t: next(), seq: i}
		heap.Push(&q, &c.events[i])
	}
	for n := 0; n < 100_000; n++ {
		e := heap.Pop(&q).(*calibEvent)
		e.t += next() % 1000
		heap.Push(&q, e)
	}
	c.samples = append(c.samples, float64(time.Since(t0))/1e6)
}

// slowdown is how much slower than the reference this host ran: the
// median kernel time over calibRefMS. Divide a time by it, multiply a rate
// by it.
func (c *calibrator) slowdown() float64 {
	return median(c.samples) / calibRefMS
}
