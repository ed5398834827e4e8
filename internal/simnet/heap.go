package simnet

import "container/heap"

// eventQueue is the scheduler's priority-queue seam over queue entries:
// implementations must pop entries in exactly the total order (at, ord).
// Several entries may share one event (a broadcast's delivery record);
// the queue never looks inside it. Sim selects one at construction
// (NewWithQueue); the radix queue is the default and the binary heap is
// kept as the reference implementation the differential property tests
// compare it against.
type eventQueue interface {
	push(x qent)
	pop() qent  // zero entry (e == nil) when empty
	peek() qent // zero entry when empty
	// popLE pops the earliest entry only if its time is <= until (zero
	// entry otherwise): the run loop's fused peek-and-pop, one probe per
	// event.
	popLE(until Time) qent
	len() int
	forEach(fn func(qent))
	reset() // drop every entry, keeping capacity for reuse
}

// qent is one queued entry: the ordering key inline next to the event it
// executes. The destination of a delivery is read back from ord.
type qent struct {
	at  Time
	ord uint64
	e   *event
}

// less is the scheduler's total order on entries.
func (a *qent) less(b *qent) bool {
	return a.at < b.at || a.at == b.at && a.ord < b.ord
}

func cmpQent(a, b qent) int {
	switch {
	case a.less(&b):
		return -1
	case b.less(&a):
		return 1
	}
	return 0
}

// entryHeap is a min-heap over (at, ord) — the reference queue.
type entryHeap []qent

func (q entryHeap) Len() int           { return len(q) }
func (q entryHeap) Less(i, j int) bool { return q[i].less(&q[j]) }
func (q entryHeap) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *entryHeap) Push(x any)        { *q = append(*q, x.(qent)) }
func (q *entryHeap) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	old[n-1] = qent{}
	*q = old[:n-1]
	return x
}

// heapQueue adapts entryHeap to the eventQueue seam.
type heapQueue struct {
	h entryHeap
}

func (q *heapQueue) push(x qent) { heap.Push(&q.h, x) }

func (q *heapQueue) pop() qent {
	if len(q.h) == 0 {
		return qent{}
	}
	return heap.Pop(&q.h).(qent)
}

func (q *heapQueue) peek() qent {
	if len(q.h) == 0 {
		return qent{}
	}
	return q.h[0]
}

func (q *heapQueue) popLE(until Time) qent {
	if len(q.h) == 0 || q.h[0].at > until {
		return qent{}
	}
	return heap.Pop(&q.h).(qent)
}

func (q *heapQueue) len() int { return len(q.h) }

func (q *heapQueue) forEach(fn func(qent)) {
	for _, x := range q.h {
		fn(x)
	}
}

func (q *heapQueue) reset() {
	clear(q.h)
	q.h = q.h[:0]
}
