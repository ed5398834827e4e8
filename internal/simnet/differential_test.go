package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Differential tests: the radix queue and the reference heap must produce
// the identical pop order for every (at, ord) workload — the radix
// queue's whole correctness argument reduces to "indistinguishable from
// the heap". The canonical ord key is not monotone in push order, and
// NextAt peeks and early-stopping Run(until) calls let a push land behind
// the window the queue has advanced to, so the workloads deliberately
// interleave sources and affinities and push after peeks and early stops.

// popAll drains q and returns the entries in pop order.
func popAll(q eventQueue) []qent {
	var out []qent
	for {
		x := q.pop()
		if x.e == nil {
			return out
		}
		out = append(out, x)
	}
}

// ordGen hands out canonical keys the way a multi-node simulation does:
// random (dst, src) affinities with a strictly increasing per-source
// count, so keys are globally unique but arrive out of order.
type ordGen struct {
	rng  *rand.Rand
	cnts [9]uint64
}

func (g *ordGen) next() uint64 {
	src := g.rng.Intn(9) - 1
	dst := g.rng.Intn(9) - 1
	g.cnts[src+1]++
	return makeOrd(dst, src, g.cnts[src+1])
}

// queuePair drives the radix queue and the reference heap in lockstep,
// failing on the first divergence. Both queues receive the identical
// entries, event pointers included, so a pop must return the same key and
// the same event (any of the events queued under that key, should a fuzz
// script repeat one; a simulator never does). clock follows the popped
// entries the way Sim.now does; pushes are relative to it.
type queuePair struct {
	tb    testing.TB
	label string
	q     *radixQueue
	ref   *heapQueue
	clock Time
	live  map[[2]uint64]int // queued entries per (at, ord) key
}

func newQueuePair(tb testing.TB, label string) *queuePair {
	return &queuePair{tb: tb, label: label, q: &radixQueue{}, ref: &heapQueue{}, live: map[[2]uint64]int{}}
}

func (p *queuePair) push(at Time, ord uint64) { p.pushShared(&event{}, at, ord) }

// pushShared queues one more entry for e, the way a broadcast queues one
// entry per recipient against one delivery record.
func (p *queuePair) pushShared(e *event, at Time, ord uint64) {
	p.q.push(qent{at, ord, e})
	p.ref.push(qent{at, ord, e})
	p.live[[2]uint64{uint64(at), ord}]++
	p.checkLen()
}

func (p *queuePair) checkLen() {
	if p.q.len() != p.ref.len() {
		p.tb.Fatalf("%s: length diverged: radix %d heap %d", p.label, p.q.len(), p.ref.len())
	}
}

// same fails unless both queues returned the same entry (or both none)
// and advances the clock past a popped one.
func (p *queuePair) same(op string, qx, hx qent, advance bool) bool {
	p.tb.Helper()
	if (qx.e == nil) != (hx.e == nil) {
		p.tb.Fatalf("%s: %s emptiness diverged: radix %v heap %v", p.label, op, qx.e != nil, hx.e != nil)
	}
	if qx.e == nil {
		return false
	}
	key := [2]uint64{uint64(qx.at), qx.ord}
	if qx.at != hx.at || qx.ord != hx.ord || qx.e != hx.e && p.live[key] < 2 {
		p.tb.Fatalf("%s: %s diverged: radix (%d,%d,%p) heap (%d,%d,%p)", p.label, op, qx.at, qx.ord, qx.e, hx.at, hx.ord, hx.e)
	}
	if advance {
		p.live[key]--
		p.clock = max(p.clock, qx.at)
	}
	return true
}

func (p *queuePair) pop() bool {
	ok := p.same("pop", p.q.pop(), p.ref.pop(), true)
	p.checkLen()
	return ok
}

func (p *queuePair) peek() bool { return p.same("peek", p.q.peek(), p.ref.peek(), false) }

// runUntil mimics Sim.Run(until): pop while due, then park the clock at
// until when the queue stopped early.
func (p *queuePair) runUntil(until Time) {
	for p.same("popLE", p.q.popLE(until), p.ref.popLE(until), true) {
		p.checkLen()
	}
	if p.clock < until {
		p.clock = until
	}
}

// drain pops both queues dry in lockstep.
func (p *queuePair) drain() {
	for p.pop() {
	}
}

// TestQueueDifferentialPopOrder drives both queue implementations through
// identical randomized push/pop interleavings — clustered timestamps,
// same-timestamp lanes with out-of-order keys, sparse far-future outliers,
// NIC-style spreads seconds ahead, pushes right after a peek (the NextAt
// path) and after Run(until) stopped early, and mid-stream pops — then
// through all-to-all broadcast rounds whose entries share one record per
// sender, and 10k-event same-timestamp runs pushed in ascending and in
// descending ord, and asserts the popped entries match element for
// element.
func TestQueueDifferentialPopOrder(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newQueuePair(t, fmt.Sprintf("seed %d", seed))
		gen := &ordGen{rng: rng}
		n := 200 + rng.Intn(800)
		for i := 0; i < n; i++ {
			switch rng.Intn(13) {
			case 0: // far-future outlier (timer-like)
				p.push(p.clock+Time(rng.Int63n(int64(20*time.Second))), gen.next())
			case 1, 2: // same-timestamp lane with interleaved sources
				at := p.clock + Time(rng.Intn(1000))
				for j := 0; j < 1+rng.Intn(5); j++ {
					p.push(at, gen.next())
				}
			case 3: // interleaved pop run: advances the clock like Step does
				for j := 0; j < rng.Intn(8) && p.pop(); j++ {
				}
			case 4: // NextAt: peek (the queue may advance its window), then push behind it
				p.peek()
				for j := 0; j < 1+rng.Intn(4); j++ {
					p.push(p.clock+Time(rng.Intn(2000)), gen.next())
				}
			case 5: // Run(until) stops early, then the caller pushes at the parked clock
				p.runUntil(p.clock + Time(rng.Int63n(int64(2*time.Millisecond))))
				for j := 0; j < 1+rng.Intn(4); j++ {
					p.push(p.clock+Time(rng.Intn(100_000)), gen.next())
				}
			case 6: // NIC spread: a serialized burst queued seconds ahead
				at := p.clock + Time(rng.Int63n(int64(4*time.Second)))
				for j := 0; j < 1+rng.Intn(30); j++ {
					at += Time(1 + rng.Intn(20_000))
					p.push(at, gen.next())
				}
			default: // clustered deliveries around the clock
				p.push(p.clock+Time(rng.Int63n(int64(300*time.Millisecond))), gen.next())
			}
		}
		p.drain()
	}
	// Broadcast fan-outs: every sender queues one entry per recipient
	// against one shared record, with a per-recipient delay, and pops
	// interleave so later rounds land behind live runs. Each popped entry
	// must still carry its own record.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newQueuePair(t, fmt.Sprintf("broadcast seed %d", seed))
		var cnts [50]uint64
		for round := 0; round < 20; round++ {
			for from := 0; from < 50; from++ {
				rec := &event{}
				for to := 0; to < 50; to++ {
					d := Time(33*time.Millisecond) + Time(rng.Int63n(int64(235*time.Millisecond)))
					if to == from {
						d = Time(50 * time.Microsecond)
					}
					p.pushShared(rec, p.clock+d, makeOrd(to, from, cnts[from]))
					cnts[from]++
				}
			}
			for j := 0; j < 1000+rng.Intn(1500) && p.pop(); j++ {
			}
		}
		p.drain()
	}
	for _, descending := range []bool{false, true} {
		p := newQueuePair(t, fmt.Sprintf("10k-run descending=%v", descending))
		for round := 0; round < 3; round++ {
			at := p.clock + Time(100*time.Millisecond)
			for i := 0; i < 10_000; i++ {
				node, cnt := i/100, uint64(round*10_000+i+1)
				if descending {
					node, cnt = 99-node, uint64(round*10_000+10_000-i)
				}
				p.push(at, makeOrd(node, node, cnt))
			}
			// Interleave a few pops so later rounds land behind a live run.
			for j := 0; j < 2500 && p.pop(); j++ {
			}
		}
		p.drain()
	}
}

// TestQueueDifferentialQuick is the testing/quick version: arbitrary
// timestamp vectors (interpreted as offsets, so pathological clustering
// and huge gaps both occur) must drain identically from both queues.
func TestQueueDifferentialQuick(t *testing.T) {
	f := func(offsets []uint32, popEvery uint8) bool {
		radix := &radixQueue{}
		ref := &heapQueue{}
		gen := &ordGen{rng: rand.New(rand.NewSource(int64(popEvery)))}
		var clock Time
		step := int(popEvery%7) + 2
		for i, off := range offsets {
			at := clock + Time(uint64(off)*uint64(1+i%3))
			ord := gen.next()
			x := qent{at, ord, &event{}}
			radix.push(x)
			ref.push(x)
			if i%step == 0 {
				we, he := radix.pop(), ref.pop()
				if we.e == nil || we != he {
					return false
				}
				if we.at > clock {
					clock = we.at
				}
			}
		}
		w, h := popAll(radix), popAll(ref)
		if len(w) != len(h) {
			return false
		}
		for i := range w {
			if w[i] != h[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// traceStamp is one executed event in a scheduler trace: the virtual time,
// the running event count, and the affinity the event executed under.
type traceStamp struct {
	at     Time
	events uint64
	node   int
}

// simTrace runs a deterministic mixed workload — network deliveries and
// broadcasts with reentrant sends, node-pinned scheduling, plain
// callbacks, cancelled timers, an early-stopping Run(until) and a NextAt
// peek followed by pushes behind the peeked event, a mid-run Halt with
// resumption, and a Reset that reuses pooled nodes for a second round —
// and returns the execution trace.
func simTrace(kind QueueKind, seed int64) []traceStamp {
	var trace []traceStamp
	s := NewWithQueue(seed, kind)
	for round := 0; round < 2; round++ {
		s.Reset(seed + int64(round))
		rng := rand.New(rand.NewSource(seed*31 + int64(round)))
		nw := NewNetwork(s, 4, FixedModel{D: time.Millisecond})
		record := func() { trace = append(trace, traceStamp{s.Now(), s.events, s.cur}) }
		for i := 0; i < 4; i++ {
			nw.Register(i, func(from int, msg any) {
				record()
				if m, ok := msg.(int); ok && m > 0 && rng.Intn(3) == 0 {
					nw.Send(from, m%4, 64, m-1)
				}
			})
		}
		n := 150 + rng.Intn(150)
		haltAt := rng.Intn(n)
		for i := 0; i < n; i++ {
			i := i
			switch rng.Intn(6) {
			case 0:
				nw.Send(rng.Intn(4), rng.Intn(4), 128, rng.Intn(8))
			case 5:
				nw.Broadcast(rng.Intn(4), 96, rng.Intn(8))
			case 1:
				s.After(Duration(rng.Int63n(int64(5*time.Second))), func() {
					record()
					if i == haltAt {
						s.Halt()
					}
				})
			case 2:
				tm := s.AfterTimer(Duration(rng.Intn(2000)), record)
				if rng.Intn(3) == 0 {
					tm.Stop()
				}
			case 3:
				On(s, rng.Intn(4)).After(Duration(rng.Intn(1500)), record)
			default:
				s.CallAfter(Duration(rng.Intn(100)), func(a, b any) { record() }, nil, nil)
			}
		}
		// Run(until) stops early and NextAt peeks ahead; events scheduled
		// now land behind the window the queue has advanced to.
		s.Run(s.Now() + Time(rng.Intn(3000)))
		if next, ok := s.NextAt(); ok && !s.Halted() {
			for j := 0; j < 5; j++ {
				s.At(s.Now()+Time(rng.Int63n(int64(next-s.Now())+1)), record)
			}
		}
		s.RunAll(0) // may stop early at the Halt
		s.halted = false
		s.RunAll(0) // resume and drain
	}
	return trace
}

// TestSimDifferentialTrace pins the scheduler end to end: the same seeded
// workload — including Halt mid-run, resumption, node-pinned scheduling,
// and pooled-node reuse across a Reset — executes in the identical order
// on the radix queue and on the reference heap.
func TestSimDifferentialTrace(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		w := simTrace(QueueRadix, seed)
		h := simTrace(QueueHeap, seed)
		if len(w) != len(h) {
			t.Fatalf("seed %d: trace lengths diverged: radix %d heap %d", seed, len(w), len(h))
		}
		for i := range w {
			if w[i] != h[i] {
				t.Fatalf("seed %d: trace diverged at %d: radix %+v heap %+v",
					seed, i, w[i], h[i])
			}
		}
	}
}

// faultTrace broadcasts twice from every node of a 6-node WAN with the
// link 5 -> 1 cut, then — with all deliveries in flight — crashes node 3,
// cuts the link 0 -> 4 and restores 5 -> 1, and returns the delivery
// trace plus each node's delivery count. viaSends replaces each Broadcast
// with one Send per recipient.
func faultTrace(t *testing.T, kind QueueKind, viaSends bool) ([]traceStamp, []int) {
	s := NewWithQueue(11, kind)
	nw := NewNetwork(s, 6, NewWAN())
	var trace []traceStamp
	got := make([]int, 6)
	for i := 0; i < 6; i++ {
		i := i
		nw.Register(i, func(from int, msg any) {
			got[i]++
			trace = append(trace, traceStamp{s.Now(), uint64(from*10 + msg.(int)), i})
		})
	}
	nw.SetLinkBlocked(5, 1, true)
	for round := 0; round < 2; round++ {
		for from := 0; from < 6; from++ {
			if viaSends {
				for to := 0; to < 6; to++ {
					nw.Send(from, to, 200, round)
				}
			} else {
				nw.Broadcast(from, 200, round)
			}
		}
	}
	s.At(1, func() {
		nw.SetDown(3, true)
		nw.SetLinkBlocked(0, 4, true)
		nw.SetLinkBlocked(5, 1, false)
	})
	s.RunAll(0)
	checkDisjoint(t, s)
	if len(s.pool) == 0 {
		t.Fatal("no delivery record returned to the pool")
	}
	return trace, got
}

// TestBroadcastFaultsMidFlight pins that a shared delivery record drops
// only the affected recipients: a crash or a link cut while a broadcast
// is in flight loses exactly the deliveries to the crashed node and over
// the cut link, a link cut at send time loses its recipient even if it
// heals before delivery, and the schedule is identical to one Send per
// recipient on either queue.
func TestBroadcastFaultsMidFlight(t *testing.T) {
	ref, refGot := faultTrace(t, QueueHeap, true)
	want := []int{12, 10, 12, 0, 10, 12} // 5 -> 1 cut at send; node 3 crashed; 0 -> 4 cut
	if fmt.Sprint(refGot) != fmt.Sprint(want) {
		t.Fatalf("per-node deliveries %v, want %v", refGot, want)
	}
	for _, kind := range []QueueKind{QueueRadix, QueueHeap} {
		for _, viaSends := range []bool{false, true} {
			trace, got := faultTrace(t, kind, viaSends)
			if fmt.Sprint(got) != fmt.Sprint(refGot) || fmt.Sprint(trace) != fmt.Sprint(ref) {
				t.Fatalf("kind %d viaSends=%v diverged from the per-recipient heap run", kind, viaSends)
			}
		}
	}
}
