package simnet

import (
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// FuzzQueuePopOrder decodes the input as a script of queue operations and
// runs it against the radix queue and the reference heap in lockstep
// (queuePair, differential_test.go), failing on the first divergence.
// Each operation is three bytes: an opcode and a 16-bit operand.
//
//	0-3  push at clock + operand << {0, 8, 16, 24} ns (up to ~18 min ahead)
//	4    pop
//	5    peek, then push at clock + operand ns (behind the peeked window)
//	6    Run(clock + operand << 8 ns): pop while due, park the clock
//	7    push operand%200+1 events at one timestamp, ascending ord
//	8    the same, descending ord
//	9    NIC spread: operand%50+1 events 2-4 s ahead, ~10 µs apart
//	10   broadcast: operand%64+1 entries sharing one event, one per
//	     destination, each 33-290 ms ahead (self-delivery 50 µs ahead)
//
// The queue is drained at the end and the full sequences compared.
func FuzzQueuePopOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 0, 4, 0, 0, 4, 0, 0})
	f.Add([]byte{2, 9, 0, 5, 3, 0, 4, 0, 0, 0, 5, 0, 4, 0, 0})
	f.Add([]byte{7, 120, 0, 8, 120, 0, 4, 0, 0, 6, 0, 1, 7, 10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newQueuePair(t, "fuzz")
		gen := &ordGen{rng: rand.New(rand.NewSource(int64(len(data))))}
		for i := 0; i+2 < len(data); i += 3 {
			arg := Time(data[i+1]) | Time(data[i+2])<<8
			switch op := data[i] % 11; op {
			case 0, 1, 2, 3:
				p.push(p.clock+arg<<(8*op), gen.next())
			case 4:
				p.pop()
			case 5:
				p.peek()
				p.push(p.clock+arg, gen.next())
			case 6:
				p.runUntil(p.clock + arg<<8)
			case 7, 8:
				at, k := p.clock+arg, int(arg%200)+1
				for j := 0; j < k; j++ {
					node := j
					if op == 8 {
						node = k - j
					}
					p.push(at, makeOrd(node%ordNodeMax, 0, uint64(i*256+j+1)))
				}
			case 9:
				at := p.clock + Time(2*time.Second) + arg<<15
				for j := 0; j < int(arg%50)+1; j++ {
					at += Time(10_000 + j*37)
					p.push(at, gen.next())
				}
			case 10:
				rec, from := &event{}, int(arg>>8)%ordNodeMax
				for to := 0; to <= int(arg%64); to++ {
					d := Time(50 * time.Microsecond)
					if to != from {
						d = Time(33*time.Millisecond) + Time(uint64(arg)*uint64(to+1)*7919%uint64(257*time.Millisecond))
					}
					p.pushShared(rec, p.clock+d, makeOrd(to, from, uint64(i*64+to+1)))
				}
			}
		}
		p.drain()
	})
}

// TestQueueZeroAllocs pins the radix queue's arena contract: once its
// chunks, run and side heap are warm, a push plus a pop allocates nothing
// — in the deep-WAN regime and for pushes landing in the side heap.
func TestQueueZeroAllocs(t *testing.T) {
	for _, tr := range queueTraces() {
		h := newQueueHold(tr, &radixQueue{})
		for i := 0; i < 4*tr.pending; i++ {
			h.step()
		}
		if allocs := testing.AllocsPerRun(1000, h.step); allocs != 0 {
			t.Errorf("%s: warm push+pop allocates %.2f times per op, want 0", tr.name, allocs)
		}
	}
}

// queueTrace is a synthetic hold-model workload shaped like a measured
// scheduler regime: pending events stay queued, and every pop is followed
// by one push drawn from next.
type queueTrace struct {
	name    string
	pending int
	// next returns the pushed event's offset from the popped one's time
	// and its ord; i counts operations.
	next func(rng *rand.Rand, i int) (Duration, uint64)
}

// queueTraces are the regimes BenchmarkQueue times:
//   - deep-wan: the message-level n=50 WAN run, about 74k pending; a
//     quarter of pushes under 65 µs ahead, the rest 33-268 ms ahead;
//   - lockstep: 10k pulse events at one timestamp, re-armed one period
//     later in ascending ord;
//   - nic-spread: shared-NIC queueing, deliveries spread seconds ahead at
//     distinct nanosecond keys.
func queueTraces() []queueTrace {
	return []queueTrace{
		{"deep-wan", 74_000, func(rng *rand.Rand, i int) (Duration, uint64) {
			d := Duration(33*time.Millisecond) + Duration(rng.Int63n(int64(235*time.Millisecond)))
			if rng.Intn(4) == 0 {
				d = Duration(rng.Intn(65_000))
			}
			node := rng.Intn(50)
			return d, makeOrd(node, rng.Intn(50), uint64(i+1))
		}},
		{"lockstep", 10_000, func(_ *rand.Rand, i int) (Duration, uint64) {
			return Duration(100 * time.Millisecond), makeOrd(i%10_000/100, i%10_000/100, uint64(i+1))
		}},
		{"nic-spread", 20_000, func(rng *rand.Rand, i int) (Duration, uint64) {
			d := Duration(time.Millisecond) + Duration(rng.Int63n(int64(4*time.Second)))
			node := rng.Intn(25)
			return d, makeOrd(node, rng.Intn(25), uint64(i+1))
		}},
	}
}

// queueHold runs a trace against one queue: step pops the earliest event
// and pushes it back at its trace offset, like Sim.Step reusing a pooled
// event.
type queueHold struct {
	q   eventQueue
	tr  queueTrace
	rng *rand.Rand
	i   int
}

func newQueueHold(tr queueTrace, q eventQueue) *queueHold {
	h := &queueHold{q: q, tr: tr, rng: rand.New(rand.NewSource(1))}
	for ; h.i < tr.pending; h.i++ {
		d, ord := tr.next(h.rng, h.i)
		q.push(qent{Time(d), ord, &event{}})
	}
	return h
}

func (h *queueHold) step() {
	x := h.q.pop()
	d, ord := h.tr.next(h.rng, h.i)
	h.i++
	x.at += Time(d)
	x.ord = ord
	h.q.push(x)
}

// BenchmarkQueue times one pop plus one push per op on each regime, for
// the radix queue and the reference heap. These are host-stable
// scheduler numbers: no protocol code runs.
func BenchmarkQueue(b *testing.B) {
	for _, tr := range queueTraces() {
		for _, kind := range []string{"radix", "heap"} {
			b.Run(tr.name+"/"+kind, func(b *testing.B) {
				var q eventQueue = &radixQueue{}
				if kind == "heap" {
					q = &heapQueue{}
				}
				h := newQueueHold(tr, q)
				for i := 0; i < tr.pending; i++ {
					h.step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.step()
				}
			})
		}
	}
}

// TestEventSize pins the pooled event at 64 bytes on 64-bit platforms:
// keys, destinations and queue links live in the entries, and a delivery
// carries its message in argA, which keeps the event in the 64-byte size
// class — one cache line that all of a broadcast's recipients share.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Fatalf("event is %d bytes, want 64", got)
	}
}

// TestQuickSortOrdersRuns checks the run sort against the reference sort
// on shapes the queue's traffic does not guarantee to avoid: sorted and
// reversed runs, interleaved sorted sequences, and heavy key duplication.
func TestQuickSortOrdersRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(600)
		keys := 1 + rng.Intn(4*n+1)
		r := make([]qent, n)
		for i := range r {
			switch trial % 4 {
			case 0: // random with duplicates
				r[i] = qent{at: Time(rng.Intn(keys)), ord: uint64(rng.Intn(keys))}
			case 1: // ascending
				r[i] = qent{at: 7, ord: uint64(i)}
			case 2: // descending
				r[i] = qent{at: 7, ord: uint64(n - i)}
			default: // several interleaved ascending sequences
				r[i] = qent{at: 7, ord: makeOrd(i%13, 0, uint64(i))}
			}
		}
		want := slices.Clone(r)
		slices.SortFunc(want, cmpQent)
		quickSort(r)
		for i := range r {
			if r[i].at != want[i].at || r[i].ord != want[i].ord {
				t.Fatalf("trial %d (n=%d): position %d holds (%d,%d), want (%d,%d)",
					trial, n, i, r[i].at, r[i].ord, want[i].at, want[i].ord)
			}
		}
	}
}
