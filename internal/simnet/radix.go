package simnet

import (
	"math/bits"
	"slices"
)

// radixQueue is the default scheduler queue: a radix heap (Ahuja,
// Mehlhorn, Orlin & Tarjan 1990) over coarse time windows, whose current
// window is a lazily sorted run in the manner of the ladder queue's
// bottom tier (Tang, Goh & Thng 2005). It pops in exactly the total order
// (at, ord).
//
// Every entry carries its (at, ord) key inline next to the event pointer,
// so ordering work never dereferences a cold event (or the delivery
// record a broadcast's entries share). The time axis is cut
// into windows of 1<<radixWindowShift nanoseconds; base is the window
// being executed. Entries live in one of three places:
//
//   - run: the base window's entries, sorted by (at, ord) when the window
//     became current and popped from the front. A lockstep pulse arrives
//     already sorted, so making it current costs one ordered check.
//   - side: a small (at, ord) min-heap for every push at or behind the
//     base window. In a pure DES loop these are the short hops that land
//     inside the window being executed; after NextAt peeks ahead or
//     Run(until) stops early, base can sit past the clock, and a later
//     push may then land behind it. The side heap orders those exactly,
//     so correctness never assumes monotone keys.
//   - buckets: radix bucket i holds entries whose window w > base
//     satisfies bits.Len64(w^base) == i+1. Buckets are FIFO lists of
//     fixed-size chunks drawn from one shared free list, so memory tracks
//     the live population and a warm push or pop allocates nothing.
//
// When run and side are both empty, the lowest non-empty bucket's
// minimum window becomes the new base and that bucket is redistributed:
// entries of the new base window form the next run, the rest refile
// into strictly lower buckets. Higher buckets keep their index because
// the new base agrees with the old one above the redistributed bit. An
// entry therefore moves at most once per bit of its distance from base,
// and a push is O(1). Window width and chunk size are constants; no
// layout decision depends on anything but the queue contents, so
// determinism is unaffected by them.
type radixQueue struct {
	n    int
	base uint64 // window index being executed
	run  []qent // base window, (at, ord)-sorted; run[head:] is live
	head int
	// spare is sortRun's scatter buffer; it swaps roles with run.
	spare []qent
	side  []qent // pushes at or behind base: a binary min-heap on (at, ord)
	occ   uint64 // bit i set iff buckets[i] is non-empty
	// buckets[i] holds windows w > base with bits.Len64(w^base) == i+1.
	buckets [64]radixBucket
	free    *radixChunk // shared chunk free list, linked through next
	warm    int32       // sink of take's look-ahead load; never read
}

// radixBucket is a FIFO list of chunks in push order: every chunk but the
// tail is full, and the tail holds n entries. Keeping the fill count here
// rather than in the chunk spares a push the cold chunk header, and push
// order survives redistribution, so a pulse pushed in ascending ord
// reaches its run already sorted.
type radixBucket struct {
	head, tail *radixChunk
	n          int
	min        uint64 // smallest window queued here; meaningless when empty
}

type radixChunk struct {
	next *radixChunk
	ents [radixChunkLen]qent
}

// take empties b and calls fn on each of its chunks, oldest first, with
// its live entries; fn may recycle the chunk.
func (b *radixBucket) take(fn func(c *radixChunk, ents []qent)) {
	c, last, n := b.head, b.tail, b.n
	b.head, b.tail, b.n = nil, nil, 0
	for c != nil {
		next, live := c.next, radixChunkLen
		if c == last {
			live = n
		}
		fn(c, c.ents[:live])
		c = next
	}
}

// each calls fn on every chunk of b with its live entries.
func (b *radixBucket) each(fn func(ents []qent)) {
	for c := b.head; c != nil; c = c.next {
		if c == b.tail {
			fn(c.ents[:b.n])
		} else {
			fn(c.ents[:])
		}
	}
}

const (
	// radixWindowShift sets the window width: 1<<16 ns ≈ 65 µs. Narrower
	// windows turn NIC-queueing spreads (distinct nanosecond keys) into
	// many tiny runs and extra refiling; wider ones make the sorted runs of
	// deep WAN queues long.
	radixWindowShift = 16
	radixChunkLen    = 128
	// sortRun's tuning: runs or slices of up to radixShortRun entries are
	// insertion-sorted; a longer run is scattered into at most
	// 1<<radixSliceBits slices of the window first.
	radixShortRun  = 16
	radixSliceBits = 8
)

func (q *radixQueue) len() int { return q.n }

func window(at Time) uint64 { return uint64(at) >> radixWindowShift }

func (q *radixQueue) push(x qent) {
	q.n++
	if w := window(x.at); w > q.base {
		q.file(x, w)
		return
	}
	q.side = append(q.side, x)
	q.siftUp(len(q.side) - 1)
}

// file appends x (window w > base) to its radix bucket.
func (q *radixQueue) file(x qent, w uint64) {
	i := bits.Len64(w^q.base) - 1
	b := &q.buckets[i]
	if q.occ&(1<<i) == 0 {
		q.occ |= 1 << i
		b.min = w
	} else if w < b.min {
		b.min = w
	}
	if b.tail == nil || b.n == radixChunkLen {
		c := q.free
		if c != nil {
			q.free = c.next
		} else {
			c = new(radixChunk)
		}
		c.next = nil
		if b.tail == nil {
			b.head = c
		} else {
			b.tail.next = c
		}
		b.tail, b.n = c, 0
	}
	b.tail.ents[b.n] = x
	b.n++
}

// fill makes the earliest entry available in run or side, advancing base
// to the next occupied window when both are exhausted. It reports false
// when the queue is empty.
func (q *radixQueue) fill() bool {
	if q.head < len(q.run) || len(q.side) > 0 {
		return true
	}
	if q.occ == 0 {
		return false
	}
	i := bits.TrailingZeros64(q.occ)
	q.occ &^= 1 << i
	b := &q.buckets[i]
	q.base = b.min
	run := q.run[:0]
	b.take(func(c *radixChunk, ents []qent) {
		for _, x := range ents {
			if w := window(x.at); w == q.base {
				run = append(run, x)
			} else {
				q.file(x, w)
			}
		}
		c.next, q.free = q.free, c
	})
	q.run, q.head = run, 0
	q.sortRun()
	return true
}

// sortRun orders the new run by (at, ord). A long unsorted run is first
// scattered by a counting pass on the top bits of each entry's offset in
// the window into equal slices, about one per two entries (at most
// 1<<radixSliceBits), so only entries within one slice are left to
// compare: short slices by insertion, long ones (a lockstep pulse puts
// every entry in one slice) by quickSort after an ordered check.
func (q *radixQueue) sortRun() {
	run := q.run
	if len(run) <= radixShortRun {
		insertionSort(run)
		return
	}
	if sorted(run) {
		return
	}
	sb := min(bits.Len(uint(len(run)))-2, radixSliceBits)
	shift, nslices := uint(radixWindowShift-sb), 1<<sb
	mask := Time(nslices - 1)
	var start [1<<radixSliceBits + 1]int32
	for i := range run {
		start[int(run[i].at>>shift&mask)+1]++
	}
	for i := 1; i <= nslices; i++ {
		start[i] += start[i-1]
	}
	out := slices.Grow(q.spare[:0], len(run))[:len(run)]
	next := start
	for _, x := range run {
		s := int(x.at >> shift & mask)
		out[next[s]] = x
		next[s]++
	}
	for i := 0; i < nslices; i++ {
		if part := out[start[i]:start[i+1]]; len(part) <= radixShortRun {
			insertionSort(part)
		} else if !sorted(part) {
			quickSort(part)
		}
	}
	q.run, q.spare = out, run[:0]
}

func sorted(r []qent) bool {
	for i := 1; i < len(r); i++ {
		if r[i].less(&r[i-1]) {
			return false
		}
	}
	return true
}

// quickSort sorts r by (at, ord) with an inline comparison: median-of-
// three Hoare partitioning down to insertion sort, recursing on the
// smaller side. Past a depth budget it falls back to pdqsort, so an
// adversarial input costs O(n log n), not O(n^2).
func quickSort(r []qent) {
	for depth := 2 * bits.Len(uint(len(r))); len(r) > radixShortRun; depth-- {
		if depth == 0 {
			slices.SortFunc(r, cmpQent)
			return
		}
		m, l := len(r)/2, len(r)-1
		if r[m].less(&r[0]) {
			r[0], r[m] = r[m], r[0]
		}
		if r[l].less(&r[m]) {
			r[m], r[l] = r[l], r[m]
			if r[m].less(&r[0]) {
				r[0], r[m] = r[m], r[0]
			}
		}
		p := r[m]
		i, j := 0, l
		for {
			for r[i].less(&p) {
				i++
			}
			for p.less(&r[j]) {
				j--
			}
			if i >= j {
				break
			}
			r[i], r[j] = r[j], r[i]
			i++
			j--
		}
		if j+1 < len(r)-j-1 {
			quickSort(r[:j+1])
			r = r[j+1:]
		} else {
			quickSort(r[j+1:])
			r = r[:j+1]
		}
	}
	insertionSort(r)
}

func insertionSort(r []qent) {
	for i := 1; i < len(r); i++ {
		x := r[i]
		j := i
		for ; j > 0 && x.less(&r[j-1]); j-- {
			r[j] = r[j-1]
		}
		r[j] = x
	}
}

// fromRun reports whether the earliest entry is run[head] rather than
// side[0]. fill must have returned true.
func (q *radixQueue) fromRun() bool {
	if q.head == len(q.run) {
		return false
	}
	return len(q.side) == 0 || q.run[q.head].less(&q.side[0])
}

func (q *radixQueue) peek() qent {
	if !q.fill() {
		return qent{}
	}
	if q.fromRun() {
		return q.run[q.head]
	}
	return q.side[0]
}

func (q *radixQueue) pop() qent {
	if !q.fill() {
		return qent{}
	}
	return q.take(q.fromRun())
}

func (q *radixQueue) popLE(until Time) qent {
	if !q.fill() {
		return qent{}
	}
	r := q.fromRun()
	if r && q.run[q.head].at > until || !r && q.side[0].at > until {
		return qent{}
	}
	return q.take(r)
}

// take removes and returns the earliest entry, which fromRun located.
func (q *radixQueue) take(fromRun bool) qent {
	q.n--
	if fromRun {
		x := q.run[q.head]
		q.head++
		if q.head+1 < len(q.run) {
			// Touch the event two pops ahead. Its line has gone cold since
			// the push; loading it now overlaps that miss with this event's
			// dispatch instead of stalling a later pop on it.
			q.warm = q.run[q.head+1].e.refs
		}
		return x
	}
	x := q.side[0]
	last := len(q.side) - 1
	q.side[0] = q.side[last]
	q.side = q.side[:last]
	q.siftDown(0)
	return x
}

func (q *radixQueue) siftUp(i int) {
	h := q.side
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

func (q *radixQueue) siftDown(i int) {
	h := q.side
	if len(h) == 0 {
		return
	}
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].less(&h[c]) {
			c++
		}
		if !h[c].less(&x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// forEach visits every queued entry in unspecified order; fn may zero or
// release the entry's event (Sim.Reset does), since the keys are held
// inline.
func (q *radixQueue) forEach(fn func(qent)) {
	for _, x := range q.run[q.head:] {
		fn(x)
	}
	for _, x := range q.side {
		fn(x)
	}
	for i := range q.buckets {
		q.buckets[i].each(func(ents []qent) {
			for _, x := range ents {
				fn(x)
			}
		})
	}
}

// reset empties the queue, keeping the run, side heap and every chunk for
// reuse (Sim.Reset's arena contract). Callers must have released the
// queued events first.
func (q *radixQueue) reset() {
	for i := range q.buckets {
		q.buckets[i].take(func(c *radixChunk, _ []qent) { c.next, q.free = q.free, c })
	}
	clear(q.run)
	clear(q.side)
	q.run, q.side = q.run[:0], q.side[:0]
	q.n, q.base, q.head, q.occ = 0, 0, 0, 0
}
