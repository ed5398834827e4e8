package simnet

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property tests for the pooled event scheduler. The pooling contract
// (sim.go, ARCHITECTURE.md "Performance model"): an event is owned by the
// queue while any entry references it — a broadcast's delivery record is
// referenced by one entry per recipient, and its count always equals the
// number of live entries — then by the free pool; it enters the pool
// exactly once per use; released events are zeroed; no event is ever in
// the queue and the pool at once. Execution order is the total order
// (at, ord) — identical for the radix queue and the reference heap, which
// the differential tests pin against each other.

// queueKinds names both queue implementations for sub-test sweeps.
var queueKinds = []struct {
	name string
	kind QueueKind
}{
	{"wheel", QueueRadix}, // subtest name predates the radix queue; kept for stable test ids
	{"heap", QueueHeap},
}

// checkQueue verifies the implementation-specific structural invariant of
// the live queue: the heap property for the reference heap; for the
// radix queue, every entry pointing at a live event, a sorted run inside
// the base window, a side heap at or behind it, every bucket entry filed
// by its radix distance from base with an exact bucket minimum, and a
// sound count.
func checkQueue(t *testing.T, q eventQueue) {
	t.Helper()
	switch q := q.(type) {
	case *heapQueue:
		for i := range q.h {
			for _, c := range []int{2*i + 1, 2*i + 2} {
				if c < len(q.h) && q.h.Less(c, i) {
					t.Fatalf("heap invariant violated at parent %d child %d: (%d,%d) > (%d,%d)",
						i, c, q.h[i].at, q.h[i].ord, q.h[c].at, q.h[c].ord)
				}
			}
		}
	case *radixQueue:
		key := func(x qent) {
			if x.e == nil || x.e.refs < 1 {
				t.Fatalf("radix entry (%d,%d) points at a released event", x.at, x.ord)
			}
		}
		n := len(q.run) - q.head + len(q.side)
		for i, x := range q.run[q.head:] {
			key(x)
			if window(x.at) != q.base {
				t.Fatalf("radix run entry (%d,%d) outside base window %d", x.at, x.ord, q.base)
			}
			if i > 0 && !q.run[q.head+i-1].less(&x) {
				t.Fatalf("radix run unsorted at (%d,%d)", x.at, x.ord)
			}
		}
		for i, x := range q.side {
			key(x)
			if window(x.at) > q.base {
				t.Fatalf("radix side entry (%d,%d) ahead of base window %d", x.at, x.ord, q.base)
			}
			if i > 0 && x.less(&q.side[(i-1)/2]) {
				t.Fatalf("radix side heap invariant violated at %d", i)
			}
		}
		for i := range q.buckets {
			b := q.buckets[i]
			if occupied := q.occ&(1<<i) != 0; occupied != (b.head != nil) {
				t.Fatalf("radix bucket %d occupancy bit %v but empty=%v", i, occupied, b.head == nil)
			}
			if (b.head == nil) != (b.tail == nil) || b.tail != nil && (b.tail.next != nil || b.n < 1 || b.n > radixChunkLen) {
				t.Fatalf("radix bucket %d chunk list malformed (tail fill %d)", i, b.n)
			}
			lo := ^uint64(0)
			b.each(func(ents []qent) {
				for _, x := range ents {
					n++
					key(x)
					w := window(x.at)
					if w <= q.base || bits.Len64(w^q.base)-1 != i {
						t.Fatalf("radix entry (%d,%d) window %d filed in bucket %d (base %d)", x.at, x.ord, w, i, q.base)
					}
					lo = min(lo, w)
				}
			})
			if b.head != nil && b.min != lo {
				t.Fatalf("radix bucket %d min %d, entries' min %d", i, b.min, lo)
			}
		}
		if n != q.n {
			t.Fatalf("radix count %d != %d live entries", q.n, n)
		}
	default:
		t.Fatalf("unknown queue implementation %T", q)
	}
}

// eventZeroed reports whether a released event carries no stale state
// (funcs are not comparable, so the struct is checked field by field).
func eventZeroed(e *event) bool {
	return e.call == nil && e.argA == nil && e.argB == nil && e.nw == nil &&
		e.from == 0 && e.size == 0 && e.refs == 0
}

// queuedRefs counts the live queue entries referencing each event.
func queuedRefs(s *Sim) map[*event]int32 {
	in := make(map[*event]int32, s.q.len())
	s.q.forEach(func(x qent) { in[x.e]++ })
	return in
}

// poolViolation returns why s's queue and pool break the pooling
// contract, or "" when they keep it: every queued event's count equals
// its live entries, and every pooled event is zeroed, pooled once, and
// referenced by no entry.
func poolViolation(s *Sim) string {
	inQueue := queuedRefs(s)
	for e, n := range inQueue {
		if e.refs != n {
			return fmt.Sprintf("event count %d but %d live entries", e.refs, n)
		}
	}
	pooled := make(map[*event]bool, len(s.pool))
	for _, e := range s.pool {
		switch {
		case inQueue[e] > 0:
			return "event present in both queue and free pool"
		case pooled[e]:
			return "event released into the pool twice"
		case !eventZeroed(e):
			return fmt.Sprintf("released event not zeroed: %+v", *e)
		}
		pooled[e] = true
	}
	return ""
}

// checkDisjoint fails the test on any pooling-contract violation.
func checkDisjoint(t *testing.T, s *Sim) {
	t.Helper()
	if v := poolViolation(s); v != "" {
		t.Fatal(v)
	}
}

// TestSchedulerTotalOrder drives random event loads — seeded sweeps over
// mixed At/After/CallAt/AfterTimer scheduling, including events scheduled
// from inside callbacks — and asserts every execution trace is totally
// ordered by (at, ord). Every event here carries the global affinity, so
// its canonical key reduces to the global per-source count and must
// reflect scheduling order exactly. Both queue implementations are swept.
func TestSchedulerTotalOrder(t *testing.T) {
	for _, qk := range queueKinds {
		t.Run(qk.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				s := NewWithQueue(seed, qk.kind)
				type stamp struct {
					at  Time
					ord uint64
				}
				// nextOrd predicts the key the scheduler will assign to the
				// next globally scheduled event.
				nextOrd := func() uint64 {
					var cnt uint64 = 1
					if len(s.ordCnt) > 0 {
						cnt = s.ordCnt[0] + 1
					}
					return makeOrd(NodeNone, NodeNone, cnt)
				}
				var trace []stamp
				n := 50 + rng.Intn(200)
				var schedule func(depth int)
				schedule = func(depth int) {
					at := s.Now() + Time(rng.Intn(1000))
					ord := nextOrd() // the stamp the scheduler will assign next
					switch rng.Intn(4) {
					case 0:
						s.At(at, func() {
							trace = append(trace, stamp{s.Now(), ord})
							if depth < 3 && rng.Intn(2) == 0 {
								schedule(depth + 1)
							}
						})
					case 1:
						s.After(Duration(rng.Intn(1000)), func() {
							trace = append(trace, stamp{s.Now(), ord})
						})
					case 2:
						s.CallAt(at, func(a, b any) {
							trace = append(trace, stamp{s.Now(), ord})
						}, nil, nil)
					default:
						tm := s.AfterTimer(Duration(rng.Intn(1000)), func() {
							trace = append(trace, stamp{s.Now(), ord})
						})
						if rng.Intn(4) == 0 {
							tm.Stop()
						}
					}
				}
				for i := 0; i < n; i++ {
					schedule(0)
				}
				for s.Step() {
					checkQueue(t, s.q)
					checkDisjoint(t, s)
				}
				for i := 1; i < len(trace); i++ {
					a, b := trace[i-1], trace[i]
					if a.at > b.at || (a.at == b.at && a.ord >= b.ord) {
						t.Fatalf("seed %d: execution order violated (at,ord): (%d,%d) before (%d,%d)",
							seed, a.at, a.ord, b.at, b.ord)
					}
				}
			}
		})
	}
}

// TestQueueInvariantAfterHalt halts mid-run from a random event and checks
// the remaining queue still satisfies its structural invariant, stays
// disjoint from the pool, and that stepping can resume without corrupting
// either. Both queue implementations are swept.
func TestQueueInvariantAfterHalt(t *testing.T) {
	for _, qk := range queueKinds {
		t.Run(qk.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed ^ 0x5eed))
				s := NewWithQueue(seed, qk.kind)
				n := 100 + rng.Intn(200)
				haltAt := rng.Intn(n)
				for i := 0; i < n; i++ {
					i := i
					s.After(Duration(rng.Intn(500)), func() {
						if i == haltAt {
							s.Halt()
						}
					})
				}
				s.RunAll(0)
				if !s.Halted() {
					t.Fatalf("seed %d: Halt not observed", seed)
				}
				checkQueue(t, s.q)
				checkDisjoint(t, s)
				// The engine must remain stepable after Halt (Run/RunAll stop,
				// the raw queue does not corrupt).
				for s.Step() {
					checkQueue(t, s.q)
					checkDisjoint(t, s)
				}
				if s.Pending() != 0 {
					t.Fatalf("seed %d: %d events stuck after drain", seed, s.Pending())
				}
			}
		})
	}
}

// TestPooledEventsNeverObservedAfterRelease schedules network deliveries
// and plain events, tracking the identity of every pooled event: after
// each step, no live queue entry may alias a pool entry, and every pool
// entry must be zeroed — a released event can never be observed with
// stale fields. Uses testing/quick over the load shape, for both queues.
func TestPooledEventsNeverObservedAfterRelease(t *testing.T) {
	for _, qk := range queueKinds {
		qk := qk
		t.Run(qk.name, func(t *testing.T) {
			f := func(seed int64, loadBits uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				s := NewWithQueue(seed, qk.kind)
				nw := NewNetwork(s, 4, FixedModel{D: time.Millisecond})
				delivered := 0
				for i := 0; i < 4; i++ {
					nw.Register(i, func(from int, msg any) {
						delivered++
						if m, ok := msg.(int); ok && rng.Intn(4) == 0 {
							nw.Send(0, m%4, 64, m+1)
						}
					})
				}
				load := 16 + int(loadBits)
				for i := 0; i < load; i++ {
					nw.Send(rng.Intn(4), rng.Intn(4), 128, i)
					if rng.Intn(3) == 0 {
						s.After(Duration(rng.Intn(100)), func() {})
					}
				}
				for s.Step() {
					if poolViolation(s) != "" {
						return false
					}
				}
				return delivered > 0 && s.Pending() == 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPoolReuseBounded pins the point of pooling: a long steady-state
// send/step cycle reuses a bounded set of event objects instead of
// allocating per message.
func TestPoolReuseBounded(t *testing.T) {
	s := New(1)
	nw := NewNetwork(s, 2, FixedModel{D: time.Millisecond})
	nw.Register(0, func(int, any) {})
	nw.Register(1, func(int, any) {})
	seen := make(map[*event]bool)
	for round := 0; round < 1000; round++ {
		nw.Send(0, 1, 64, round)
		s.q.forEach(func(x qent) { seen[x.e] = true })
		s.RunAll(0)
	}
	if len(seen) > 4 {
		t.Fatalf("steady-state cycle touched %d distinct event objects; pooling broken", len(seen))
	}
}

// broadcastRecord broadcasts msg from node 0 and returns the delivery
// record its entries share, failing unless every queued entry of the
// broadcast points at that one record.
func broadcastRecord(t *testing.T, s *Sim, nw *Network, msg int) *event {
	t.Helper()
	before := queuedRefs(s)
	nw.Broadcast(0, 64, msg)
	var rec *event
	for e, n := range queuedRefs(s) {
		if before[e] == n {
			continue
		}
		if rec != nil {
			t.Fatalf("broadcast queued entries against two events")
		}
		rec = e
	}
	if rec == nil {
		t.Fatal("broadcast queued nothing")
	}
	return rec
}

// pooledTimes counts the occurrences of e in s's free pool.
func pooledTimes(s *Sim, e *event) int {
	n := 0
	for _, p := range s.pool {
		if p == e {
			n++
		}
	}
	return n
}

// TestSharedRecordReleasedAfterLastPop pins the fan-out pooling contract
// on the normal path: one broadcast to eight nodes queues eight entries
// against one record, the record stays out of the pool while any
// recipient is still to pop, and it enters the pool exactly once, zeroed,
// when the last one does. Both queues are swept.
func TestSharedRecordReleasedAfterLastPop(t *testing.T) {
	for _, qk := range queueKinds {
		t.Run(qk.name, func(t *testing.T) {
			s := NewWithQueue(1, qk.kind)
			nw := NewNetwork(s, 8, NewWAN())
			got := collect(nw)
			rec := broadcastRecord(t, s, nw, 1)
			if rec.refs != 8 || s.Pending() != 8 {
				t.Fatalf("broadcast to 8 nodes: record count %d, %d entries queued", rec.refs, s.Pending())
			}
			for left := int32(7); s.Step(); left-- {
				checkDisjoint(t, s)
				if left > 0 && (rec.refs != left || pooledTimes(s, rec) != 0) {
					t.Fatalf("%d recipients left: record count %d, pooled %d times", left, rec.refs, pooledTimes(s, rec))
				}
			}
			if pooledTimes(s, rec) != 1 || !eventZeroed(rec) {
				t.Fatalf("record pooled %d times after the last pop (zeroed %v)", pooledTimes(s, rec), eventZeroed(rec))
			}
			for i, n := range got {
				if n != 1 {
					t.Fatalf("node %d received %d copies", i, n)
				}
			}
		})
	}
}

// TestSharedRecordReleasedOnReset pins the contract on Reset with
// deliveries in flight: several half-delivered broadcasts, plus plain
// events, are dropped, and every record enters the pool exactly once,
// zeroed. Both queues are swept.
func TestSharedRecordReleasedOnReset(t *testing.T) {
	for _, qk := range queueKinds {
		t.Run(qk.name, func(t *testing.T) {
			s := NewWithQueue(2, qk.kind)
			nw := NewNetwork(s, 6, NewWAN())
			collect(nw)
			var recs []*event
			for i := 0; i < 5; i++ {
				recs = append(recs, broadcastRecord(t, s, nw, i))
				s.After(time.Duration(i)*time.Millisecond, func() {})
			}
			for i := 0; i < 12; i++ {
				s.Step()
			}
			checkDisjoint(t, s)
			s.Reset(3)
			if s.Pending() != 0 {
				t.Fatalf("%d entries survived Reset", s.Pending())
			}
			checkDisjoint(t, s)
			for i, rec := range recs {
				if pooledTimes(s, rec) != 1 || !eventZeroed(rec) {
					t.Fatalf("broadcast %d: record pooled %d times after Reset (zeroed %v)", i, pooledTimes(s, rec), eventZeroed(rec))
				}
			}
		})
	}
}

// TestSharedRecordAfterHalt pins the contract across Halt: a recipient
// halts the engine mid-fan-out, the record keeps exactly the count of the
// entries still queued and stays out of the pool, and it is pooled
// exactly once — whether the run then resumes to the end or is Reset.
func TestSharedRecordAfterHalt(t *testing.T) {
	for _, qk := range queueKinds {
		for _, resume := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/resume=%v", qk.name, resume), func(t *testing.T) {
				s := NewWithQueue(4, qk.kind)
				nw := NewNetwork(s, 8, FixedModel{D: time.Millisecond})
				delivered := 0
				for i := 0; i < 8; i++ {
					nw.Register(i, func(int, any) {
						if delivered++; delivered == 3 {
							s.Halt()
						}
					})
				}
				rec := broadcastRecord(t, s, nw, 0)
				s.RunAll(0)
				if !s.Halted() || delivered != 3 {
					t.Fatalf("halted %v after %d deliveries, want halt after 3", s.Halted(), delivered)
				}
				checkDisjoint(t, s)
				if rec.refs != 5 || pooledTimes(s, rec) != 0 {
					t.Fatalf("after Halt: record count %d (want 5), pooled %d times", rec.refs, pooledTimes(s, rec))
				}
				if resume {
					for s.Step() {
						checkDisjoint(t, s)
					}
					if delivered != 8 {
						t.Fatalf("resumed run delivered %d of 8", delivered)
					}
				} else {
					s.Reset(4)
				}
				checkDisjoint(t, s)
				if pooledTimes(s, rec) != 1 || !eventZeroed(rec) {
					t.Fatalf("record pooled %d times (zeroed %v)", pooledTimes(s, rec), eventZeroed(rec))
				}
			})
		}
	}
}
