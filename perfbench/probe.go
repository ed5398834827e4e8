package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// maxReplayBlocks caps how many delivered blocks a traced run keeps for
// the wire replay.
const maxReplayBlocks = 256

// probe observes one cluster run from outside the program, through its
// public seams only: a wrapped workload.Source, a wrapped
// core.Mode.NewGlobal, and the OnBlockDeliver and OnConfirm hooks. The
// untraced form counts and checks; the traced form also times each call
// and keeps spans. Neither changes what the program computes.
type probe struct {
	real   bool
	traced bool
	start  time.Time // wall-clock origin of wall spans
	cfg    cluster.Config

	src *source

	// Correctness and block accounting (OnBlockDeliver). Calls are
	// serialized: the simulator is single-threaded and RunReal holds its
	// hook mutex around OnBlockDeliver.
	digests   map[blockKey]types.BlockID
	mismatch  error
	blocks    int         // distinct (instance, seq) blocks delivered
	txBlocks  int         // of which carry transactions
	blockTxs  int         // transactions in those blocks
	blockHash hash.Hash64 // over (instance, seq, digest) in first-delivery order
	replayed  []*types.Block

	// Confirmations (OnConfirm), serialized like OnBlockDeliver.
	confirmed int
	aborted   int
	// Real backend only: latency from each transaction's scheduled send
	// time, and the smallest observed (hook wall time − reply time), which
	// bounds the run's wall-clock epoch from above.
	schedLat  metrics.Latency
	epochBias int64
	txSpans   []span

	// One wrapper per replica, in replica order (NewGlobal runs once per
	// replica, during sequential cluster assembly).
	globals []*globalProbe
}

type blockKey struct {
	instance int
	sn       uint64
}

func newProbe(cfg cluster.Config, real, traced bool) *probe {
	return &probe{
		real:      real,
		traced:    traced,
		start:     time.Now(),
		cfg:       cfg,
		digests:   make(map[blockKey]types.BlockID, 1024),
		blockHash: fnv.New64a(),
		epochBias: int64(^uint64(0) >> 1),
	}
}

// wire returns cfg with every seam wrapped by p.
func (p *probe) wire(cfg cluster.Config) cluster.Config {
	p.src = &source{p: p, inner: workload.New(cfg.Workload)}
	cfg.Source = p.src
	mode := cfg.Protocol
	inner := mode.NewGlobal
	mode.NewGlobal = func(m int) core.GlobalOrdering {
		g := &globalProbe{inner: inner(m), p: p, replica: len(p.globals)}
		p.globals = append(p.globals, g)
		return g
	}
	cfg.Protocol = mode
	cfg.OnBlockDeliver = p.onBlock
	cfg.OnConfirm = p.onConfirm
	return cfg
}

func (p *probe) onBlock(replica, instance int, b *types.Block) {
	k := blockKey{instance, b.SN}
	d := b.Digest()
	prev, seen := p.digests[k]
	if seen {
		if prev != d && p.mismatch == nil {
			p.mismatch = fmt.Errorf("replica %d committed %s at (instance %d, seq %d), another replica %s",
				replica, d, instance, b.SN, prev)
		}
		return
	}
	p.digests[k] = d
	p.blocks++
	var key [16]byte
	binary.LittleEndian.PutUint64(key[:8], uint64(instance))
	binary.LittleEndian.PutUint64(key[8:], b.SN)
	p.blockHash.Write(key[:])
	p.blockHash.Write(d[:])
	if len(b.Txs) > 0 {
		p.txBlocks++
		p.blockTxs += len(b.Txs)
		if p.traced && len(p.replayed) < maxReplayBlocks {
			p.replayed = append(p.replayed, b)
		}
	}
}

func (p *probe) onConfirm(tx *types.Transaction, success bool, reply simnet.Time) {
	p.confirmed++
	if !success {
		p.aborted++
	}
	if !p.real {
		if p.traced {
			// Simulated spans run on the virtual clock.
			p.txSpans = append(p.txSpans, span{Name: "tx.submit-confirm", Tx: tx.Idx, Clock: "virtual",
				Start: tx.SubmitNS, End: int64(reply)})
		}
		return
	}
	// RunReal stamps reply as wall time since its epoch. The hook runs
	// just after, so now − reply is the epoch plus a small positive delay.
	if bias := time.Now().UnixNano() - int64(reply); bias < p.epochBias {
		p.epochBias = bias
	}
	k := int(tx.Nonce - p.src.nonce0)
	sched := p.scheduled(k)
	p.schedLat.Add(time.Duration(int64(reply) - sched))
	if p.traced {
		p.txSpans = append(p.txSpans, span{Name: "tx.submit-confirm", Tx: uint64(k + 1), Clock: "epoch",
			Start: sched, End: int64(reply)})
	}
}

// scheduled returns the k-th transaction's due send time on the real
// backend, in ns since the run's epoch: RunReal's open-loop client sends
// the first transaction at Warmup/2 and one every 1/LoadTPS after it.
func (p *probe) scheduled(k int) int64 {
	interval := time.Duration(float64(time.Second) / p.cfg.LoadTPS)
	return int64(p.cfg.Warmup/2 + time.Duration(k)*interval)
}

// genLateness returns how late the real backend's client called Next
// against each transaction's due time (nothing on the simulator, whose
// client is never late).
func (p *probe) genLateness() *metrics.Latency {
	var l metrics.Latency
	for k, at := range p.src.nextAt {
		l.Add(time.Duration(at - p.epochBias - p.scheduled(k)))
	}
	return &l
}

// check returns the first violated safety invariant of a finished run.
func (p *probe) check(res *cluster.Result) error {
	switch {
	case p.mismatch != nil:
		return p.mismatch
	case !res.Converged:
		return fmt.Errorf("final ledgers diverged across replicas")
	case res.State.EscrowCount() != 0:
		return fmt.Errorf("%d escrows still open at the observer replica", res.State.EscrowCount())
	case res.ViewChanges != 0:
		return fmt.Errorf("%d view changes in a fault-free run", res.ViewChanges)
	case p.blocks == 0:
		return fmt.Errorf("no blocks delivered")
	case p.src.unordered:
		return fmt.Errorf("workload nonces are not consecutive, so latency cannot be timed from the schedule")
	}
	return nil
}

// orderStats aggregates the wrapped global orderings over all replicas.
type orderStats struct {
	calls      int
	busy       time.Duration
	p99        time.Duration
	pendingMax int
}

func (p *probe) orderStats() orderStats {
	var st orderStats
	var durs metrics.Latency
	for _, g := range p.globals {
		st.calls += g.calls
		st.busy += g.busy
		for _, d := range g.durs {
			durs.Add(d)
		}
		st.pendingMax = max(st.pendingMax, g.pendingMax)
	}
	st.p99 = durs.Percentile(99)
	return st
}

// spans gathers every span the run recorded, and extra, parented to one
// run span.
func (p *probe) spans(end time.Time, extra ...span) []span {
	out := []span{{ID: 1, Name: "run", Clock: "wall", Start: 0, End: int64(end.Sub(p.start))}}
	add := func(ss []span) {
		for _, s := range ss {
			s.ID = uint64(len(out) + 1)
			s.Parent = 1
			out = append(out, s)
		}
	}
	add(p.src.spans)
	add(p.txSpans)
	for _, g := range p.globals {
		add(g.spans)
	}
	add(extra)
	return out
}

// source wraps the program's workload generator. It hands every
// transaction through unchanged and records when each was asked for.
type source struct {
	p     *probe
	inner workload.Source
	n     int

	// Real backend: the generator numbers transactions with consecutive
	// nonces, so a confirmed copy's nonce gives its schedule index without
	// a shared map; Next checks the numbering holds.
	nonce0    uint64
	unordered bool
	nextAt    []int64 // wall-clock UnixNano of each Next call

	spans []span
}

func (s *source) Genesis() func(st *ledger.Store) { return s.inner.Genesis() }

func (s *source) Next() *types.Transaction {
	var t0 time.Time
	if s.p.real || s.p.traced {
		t0 = time.Now()
	}
	tx := s.inner.Next()
	k := s.n
	s.n++
	if s.p.real {
		if k == 0 {
			s.nonce0 = tx.Nonce
		}
		s.unordered = s.unordered || tx.Nonce != s.nonce0+uint64(k)
		s.nextAt = append(s.nextAt, t0.UnixNano())
	}
	if s.p.traced {
		s.spans = append(s.spans, span{Name: "workload.Source.Next", Tx: uint64(k + 1), Clock: "wall",
			Start: int64(t0.Sub(s.p.start)), End: int64(time.Since(s.p.start))})
	}
	return tx
}

// globalProbe wraps one replica's global ordering.
type globalProbe struct {
	inner   core.GlobalOrdering
	p       *probe
	replica int

	calls      int
	pendingMax int
	busy       time.Duration
	durs       []time.Duration
	spans      []span // observer replica (0) only
}

func (g *globalProbe) OnWorkerDeliver(b *types.Block) []*types.Block {
	if !g.p.traced {
		out := g.inner.OnWorkerDeliver(b)
		g.note()
		return out
	}
	t0 := time.Now()
	out := g.inner.OnWorkerDeliver(b)
	d := time.Since(t0)
	g.note()
	g.busy += d
	g.durs = append(g.durs, d)
	if g.replica == 0 {
		s := int64(t0.Sub(g.p.start))
		g.spans = append(g.spans, span{Name: "order.OnWorkerDeliver", Clock: "wall", Start: s, End: s + int64(d)})
	}
	return out
}

func (g *globalProbe) note() {
	g.calls++
	g.pendingMax = max(g.pendingMax, g.inner.PendingCount())
}

func (g *globalProbe) OnSequencerDeliver(b *types.Block) []*types.Block {
	return g.inner.OnSequencerDeliver(b)
}

func (g *globalProbe) PendingCount() int { return g.inner.PendingCount() }
