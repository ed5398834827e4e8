// Package cluster is the experiment harness: it assembles n replicas of a
// chosen protocol over a simulated WAN or LAN, drives an open-loop client
// workload, injects stragglers and faults, and measures what the paper
// plots — throughput, client latency (submission to f+1 replies), 0.5 s
// time series, and the five-stage latency breakdown.
package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/sb"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload"
)

// NetProfile selects the network environment.
type NetProfile int

// The two environments of Sec. VII-A.
const (
	WAN NetProfile = iota // 4 regions: France, US, Australia, Tokyo
	LAN                   // single site, 1 Gbps
)

// String implements fmt.Stringer.
func (p NetProfile) String() string {
	if p == LAN {
		return "LAN"
	}
	return "WAN"
}

// Config describes one experiment run.
type Config struct {
	N        int       // replicas (m = n instances)
	Protocol core.Mode // which Multi-BFT protocol
	Net      NetProfile

	// Stragglers slows this many instances by StragglerFactor (default 10x,
	// Sec. VII-A). Straggled replicas are chosen from the high indices.
	Stragglers      int
	StragglerFactor float64

	// DetectableFaults crashes this many replicas at FaultAt (Fig. 7).
	DetectableFaults int
	FaultAt          time.Duration
	// UndetectableFaults marks this many replicas Byzantine: they vote only
	// in the instance they lead (Fig. 8).
	UndetectableFaults int

	// Scenario schedules mid-run fault and load events (crashes that
	// recover, partitions that heal, moving stragglers, load surges) on top
	// of the static configuration above; see package scenario. When set,
	// Result.Phases reports per-phase metric windows delimited by the
	// scenario's event times. Scenarios mutate the simulated network and
	// replica lifecycles, so they require message-level PBFT (AnalyticSB
	// must be false). The Scenario is shared read-only across parallel runs
	// and must not be mutated after Build.
	Scenario *scenario.Scenario

	Workload workload.Config
	// Source overrides the synthetic generator with a custom transaction
	// source (e.g. a replayed trace, workload.ReadTrace); nil uses Workload.
	Source   workload.Source
	LoadTPS  float64       // open-loop submission rate
	TotalTxs int           // optional cap on submitted transactions
	Duration time.Duration // submission window
	Warmup   time.Duration // excluded from throughput accounting
	Drain    time.Duration // extra time for in-flight txs to confirm

	BatchSize    int
	BatchTimeout time.Duration
	Window       int
	EpochLen     uint64
	ViewTimeout  time.Duration
	TxSize       int
	// CensorshipBlocks is the per-bucket censorship detector's patience in
	// delivered blocks (Sec. V-B); 0 selects the replica default of 64.
	// Lower it when a scenario censors leaders so detection fits the run.
	CensorshipBlocks uint64

	// StateTransfer enables checkpoint-anchored catch-up (core.Config.
	// StateTransfer): replicas archive delivered blocks up to the stable
	// checkpoint floor and a recovering replica refills its log gap from
	// 2f+1 peers instead of waiting for view-change no-ops. Scenario crash/
	// recover churn over long horizons wants this on; the default off keeps
	// the pre-existing recovery behavior.
	StateTransfer bool

	// SampleLiveSet, when positive, schedules a cluster-wide retained-state
	// census every interval of virtual time: the sum of every replica's
	// core.LiveSet plus the scheduler's pending event count, reported in
	// Result.LiveSetSamples/LiveSetPeak. The soak figure gates on a flat
	// profile after warmup. Sampling reads replica state from a bookkeeping
	// event, which would cross shard boundaries under the parallel kernel,
	// so it requires the serial kernel.
	SampleLiveSet time.Duration

	// AnalyticSB swaps message-level PBFT for the closed-form quorum-time
	// SB (fault-free runs only; stragglers are supported).
	AnalyticSB bool
	// NIC enables the shared 1 Gbps per-node bandwidth model
	// (message-level SB only).
	NIC bool

	Seed int64

	// Observation hooks stream measurements out of a running simulation
	// (the public orthrus SDK's Observer rides on these). All are optional
	// and fire on the simulation goroutine in deterministic virtual-time
	// order; they must only read, never mutate the cluster. OnWindow and
	// Halt schedule one bookkeeping event per 0.5 s of virtual time, so
	// Result.Events grows slightly when either is set; measured results are
	// unaffected.

	// OnConfirm fires at every client-visible confirmation (the (f+1)-th
	// reply), with the reply's virtual arrival time.
	OnConfirm func(tx *types.Transaction, success bool, reply simnet.Time)
	// OnWindow fires once per closed 0.5 s series bin, in order, including
	// empty bins.
	OnWindow func(w WindowStat)
	// OnPhase fires once per scenario phase as soon as its measurement
	// window is final — mid-run for phases that close before the run ends,
	// at finalization for the rest. Requires a Scenario.
	OnPhase func(p PhaseWindow)
	// OnBlockDeliver fires on every worker-instance block delivery at every
	// replica, before execution. The safety property suite records
	// (replica, instance, SN, digest) through it; nil costs nothing.
	OnBlockDeliver func(replica, instance int, b *types.Block)
	// Halt is polled at every 0.5 s window boundary; returning true stops
	// the simulation immediately (Result.Halted) with whatever has been
	// measured so far. The public SDK wires context cancellation here.
	Halt func() bool
	// CaptureState retains the observer replica's ledger store on the
	// Result and checks that all replicas' final snapshots agree. Only
	// meaningful for fault-free runs: crashed or partitioned replicas miss
	// blocks (no state transfer is modeled) and will report divergence.
	CaptureState bool

	// Kernel selects the engine executing the discrete-event simulation:
	// the serial reference loop (default) or the conservative sharded
	// parallel kernel, which partitions replicas across a worker pool and
	// produces bit-identical results (the kernel-differential suite pins
	// this). Parallel requires message-level PBFT without the NIC model,
	// and every straggler scale must be >= 1 (speed-ups would undercut the
	// lookahead). Topologies that cannot shard usefully fall back to the
	// serial loop.
	Kernel Kernel
	// Workers bounds the parallel kernel's worker pool and shard count;
	// 0 uses GOMAXPROCS. Measured results are identical for every value.
	Workers int
}

// Kernel selects the engine that executes the simulation.
type Kernel int

const (
	// KernelSerial is the reference single-threaded event loop.
	KernelSerial Kernel = iota
	// KernelParallel is the conservative sharded kernel (simnet.Kernel):
	// WAN runs shard by region, LAN runs stripe round-robin, and shards
	// execute lookahead-bounded windows concurrently between barriers.
	KernelParallel
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	if k == KernelParallel {
		return "parallel"
	}
	return "serial"
}

func (c Config) withDefaults() Config {
	if c.StragglerFactor <= 0 {
		c.StragglerFactor = 10
	}
	if c.Duration <= 0 {
		c.Duration = 20 * time.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Drain <= 0 {
		c.Drain = 2 * c.Duration
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 4096
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 100 * time.Millisecond
	}
	if c.EpochLen == 0 {
		c.EpochLen = 32
	}
	if c.ViewTimeout <= 0 {
		c.ViewTimeout = 10 * time.Second
	}
	if c.TxSize <= 0 {
		c.TxSize = 500
	}
	if c.LoadTPS <= 0 {
		c.LoadTPS = 1000
	}
	return c
}

// Label returns a stable, human-readable key for this configuration; the
// runner's job lists use it to identify runs. It names the measured cell
// (protocol, network, size, fault axis, scenario, transaction source), not
// every knob, so it is unique within one figure's grid but not across
// figures — suite-level callers namespace it (see internal/experiments
// suiteJobs). A negative PaymentFraction is the workload's explicit-0%
// sentinel and labels as pay=0.00. A custom Source measures a different
// cell than the synthetic generator even under otherwise identical knobs,
// so it labels as /replay (a workload.Trace) or /src (any other source);
// two configs differing only in the contents of a custom source still
// share a label.
func (c Config) Label() string {
	s := fmt.Sprintf("%s/%s/n=%d", c.Protocol.Name, c.Net, c.N)
	if c.Stragglers > 0 {
		s += fmt.Sprintf("/straggler=%d", c.Stragglers)
	}
	if c.DetectableFaults > 0 {
		s += fmt.Sprintf("/crash=%d", c.DetectableFaults)
	}
	if c.UndetectableFaults > 0 {
		s += fmt.Sprintf("/byz=%d", c.UndetectableFaults)
	}
	if c.Scenario != nil {
		s += "/scn=" + c.Scenario.Name
	}
	if c.Source != nil {
		if _, ok := c.Source.(*workload.Trace); ok {
			s += "/replay"
		} else {
			s += "/src"
		}
	}
	if frac := c.Workload.PaymentFraction; frac < 0 {
		s += "/pay=0.00"
	} else if frac > 0 {
		s += fmt.Sprintf("/pay=%.2f", frac)
	}
	return s
}

// Result aggregates one run's measurements.
type Result struct {
	Protocol string
	Net      string
	N        int

	Submitted int
	Confirmed int // confirmed by f+1 replicas (client-visible)
	Aborted   int // confirmed unsuccessfully

	// ThroughputTPS counts client-visible confirmations inside the
	// submission window, divided by the window length (minus warmup).
	ThroughputTPS float64
	// Latency is the client-observed distribution: submission to the
	// (f+1)-th reply, including the reply's network delay.
	Latency metrics.Latency
	// Series bins confirmations over 0.5 s intervals (Fig. 7).
	Series *metrics.TimeSeries
	// Breakdown is the observer replica's five-stage split (Fig. 6).
	Breakdown *metrics.Breakdown

	// Phases holds per-phase metric windows when a Scenario is configured:
	// one window per scenario phase (see scenario.Scenario.Phases), nil
	// otherwise.
	Phases []PhaseWindow

	ViewChanges int
	Events      uint64 // simulator events processed (cost accounting)
	// Messages counts protocol messages delivered over the simulated
	// network. Analytic-SB runs fold in the closed-form model's
	// pre-prepare/prepare/commit traffic (simnet.Network.AddModeled), so
	// the count stays comparable across SB implementations; the F-scale
	// figure divides it by Confirmed for messages-per-commit.
	Messages uint64

	// Kernel names the engine that executed the run ("serial" or
	// "parallel"), and Shards the parallel kernel's shard count (0 for
	// serial, including parallel requests that fell back). Engine choice
	// never changes measured results — these exist for bench reporting and
	// for tests to assert a parallel request actually sharded.
	Kernel string
	Shards int

	// LiveSetSamples holds the periodic retained-state censuses when
	// Config.SampleLiveSet is set (nil otherwise), and LiveSetPeak the
	// largest sampled Total. The soak harness asserts the profile flattens
	// after warmup — bounded memory at any virtual-time horizon.
	LiveSetSamples []LiveSetSample
	LiveSetPeak    int

	// StateTransferApplied counts blocks applied through the checkpoint-
	// anchored catch-up protocol rather than live SB delivery, summed
	// across replicas (always 0 unless Config.StateTransfer). The recovery
	// tests assert gap repair happened without pre-checkpoint replay.
	StateTransferApplied uint64

	// Halted reports the run was stopped early by Config.Halt; the
	// measurements cover only the virtual time before the stop.
	Halted bool
	// State is the observer replica's final ledger store and Converged
	// whether every replica's final snapshot equals it. Both are only set
	// when Config.CaptureState is true.
	State     *ledger.Store
	Converged bool
}

// WindowStat is one closed 0.5 s series bin, streamed to Config.OnWindow:
// confirmations whose client-visible reply landed in [Start, End), the
// resulting rate, and their mean latency.
type WindowStat struct {
	Index         int
	Start, End    time.Duration
	Confirmed     int
	ThroughputTPS float64
	MeanLatency   time.Duration
}

// PhaseWindow is one scenario-delimited measurement window: raw
// confirmation counts and rates between two consecutive event times (the
// last window extends to the end of the run, submission plus drain).
// Unlike the run-level ThroughputTPS, phases do not exclude warmup and
// count every confirmation by its client-visible reply time — they measure
// the scenario's dynamics, not steady state.
type PhaseWindow struct {
	// Label names the phase after the scenario events opening it
	// ("baseline" for the first window).
	Label string
	// Start and End bound the window in virtual time since run start.
	Start, End time.Duration
	// Confirmed counts client-visible confirmations whose reply landed in
	// the window.
	Confirmed int
	// ThroughputTPS is Confirmed divided by the window length.
	ThroughputTPS float64
	// MeanLatency averages the client-observed latency of the window's
	// confirmations (0 if none).
	MeanLatency time.Duration
}

// LiveSetSample is one cluster-wide retained-state census: the categories
// checkpoint GC is responsible for bounding (summed across replicas) plus
// the scheduler's pending event count, taken at one instant of virtual
// time. Total sums every category; the soak figure plots it.
type LiveSetSample struct {
	At        time.Duration // virtual time of the census
	Events    int           // scheduler events pending
	Trackers  int           // transaction trackers retained
	Slots     int           // in-flight pbft slots
	ExecQ     int           // delivered blocks awaiting escrow
	GlogQ     int           // confirmed blocks awaiting execution
	Escrows   int           // live escrow-log entries
	Archive   int           // state-transfer archive blocks
	Retained  int           // blocks retained for NewView repair
	CkptVotes int           // live checkpoint votes
	Total     int           // all of the above
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%-8s %s n=%-3d tput=%8.1f tps  lat(%s)  confirmed=%d aborted=%d vc=%d",
		r.Protocol, r.Net, r.N, r.ThroughputTPS, r.Latency.String(), r.Confirmed, r.Aborted, r.ViewChanges)
}

// txMeta tracks client-side accounting for one transaction. It is stored
// by value in a dense slice addressed by the transaction's run index
// (types.Transaction.Idx, stamped at submission) — no per-transaction
// pointer allocations and no ID hashing on the reply path — and carries
// the client-visible reply time once the (f+1)-th reply lands.
type txMeta struct {
	id      types.TxID // content digest, for the observer's stage lookup
	submit  simnet.Time
	reply   simnet.Time // client-visible reply time; set when done
	home    int32       // replica co-located with the submitting client
	replies int32
	done    bool
}

// hookRec is one deferred measurement-hook firing under the parallel
// kernel. Shared accounting (confirmation counters, series bins, user
// observers) cannot run on shard goroutines, so replica hooks append
// these to their shard's log — stamped with the executing event's virtual
// time and canonical key — and the coordinator replays the merged logs at
// every barrier in exactly the order the serial loop would have fired
// them.
type hookRec struct {
	at       simnet.Time
	ord      uint64 // executing event's canonical key (simnet.Sim.ExecOrd)
	tx       *types.Transaction
	block    *types.Block
	replica  int32
	instance int32
	success  bool
	kind     uint8
}

// hookRec kinds.
const (
	hookConfirm uint8 = iota
	hookBlock
)

// simFree recycles simulators across runs: Sim.Reset reuses the event
// pool, queue chunks and scratch arenas a previous run grew, so
// benchmark iterations and RunMany sweeps stop re-growing megabytes of
// scheduler state per run. Reset restores the exact just-constructed
// state, so results are identical whether a Sim is fresh or reused (the
// determinism contract). It is a mutex-guarded free list rather than a
// sync.Pool: a run takes a warm simulator whenever one is free, whichever
// P it runs on and however many collections ran since, so a run's
// allocation count does not depend on goroutine placement or GC timing.
// At most GOMAXPROCS simulators (the runs that can execute at once) are
// kept.
var simFree struct {
	sync.Mutex
	sims []*simnet.Sim
}

// takeSim returns a simulator reset to seed, warm when one is free.
func takeSim(seed int64) *simnet.Sim {
	simFree.Lock()
	var sim *simnet.Sim
	if n := len(simFree.sims); n > 0 {
		sim, simFree.sims = simFree.sims[n-1], simFree.sims[:n-1]
	}
	simFree.Unlock()
	if sim == nil {
		return simnet.New(seed)
	}
	sim.Reset(seed)
	return sim
}

// returnSim drops a finished run's references from sim and keeps it for
// the next run, unless GOMAXPROCS simulators are already kept.
func returnSim(sim *simnet.Sim) {
	sim.Reset(0)
	simFree.Lock()
	if len(simFree.sims) < runtime.GOMAXPROCS(0) {
		simFree.sims = append(simFree.sims, sim)
	}
	simFree.Unlock()
}

// ReleaseSims empties the simulator free list, handing the kept
// simulators' event pools, queue chunks and arenas to the garbage
// collector; the next Run builds a fresh simulator and grows it from
// empty. Results do not depend on it (the determinism contract). A
// caller measuring one run's allocations calls it first, so the count
// includes the run's own arena growth and does not depend on how large
// a simulator the runs before it left behind.
func ReleaseSims() {
	simFree.Lock()
	clear(simFree.sims)
	simFree.sims = simFree.sims[:0]
	simFree.Unlock()
}

// Run executes one experiment and returns its measurements.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	if cfg.AnalyticSB && (cfg.DetectableFaults > 0 || cfg.UndetectableFaults > 0) {
		panic("cluster: analytic SB does not support fault injection; use message-level PBFT")
	}
	if cfg.Scenario != nil {
		if cfg.AnalyticSB {
			panic("cluster: scenarios require message-level PBFT; disable AnalyticSB")
		}
		if err := cfg.Scenario.Validate(cfg.N); err != nil {
			panic("cluster: " + err.Error())
		}
	}
	if cfg.Kernel == KernelParallel {
		if cfg.AnalyticSB {
			panic("cluster: the parallel kernel requires message-level PBFT; disable AnalyticSB")
		}
		if cfg.NIC {
			panic("cluster: the NIC bandwidth model requires the serial kernel")
		}
		if cfg.StragglerFactor < 1 {
			panic("cluster: straggler speed-ups (factor < 1) require the serial kernel")
		}
		if cfg.Scenario != nil {
			for _, e := range cfg.Scenario.Events {
				if e.Kind == scenario.Straggle && e.Scale < 1 {
					panic("cluster: scenario speed-ups (straggle scale < 1) require the serial kernel")
				}
			}
		}
		if cfg.SampleLiveSet > 0 {
			panic("cluster: live-set sampling reads every replica from one bookkeeping event; use the serial kernel")
		}
	}
	n := cfg.N
	f := (n - 1) / 3
	sim := takeSim(cfg.Seed)
	defer returnSim(sim)

	var model *simnet.GeoModel
	if cfg.Net == LAN {
		model = simnet.NewLAN()
	} else {
		model = simnet.NewWAN()
	}
	if cfg.AnalyticSB {
		model.JitterFrac = 0 // closed-form times need deterministic delays
	}
	nw := simnet.NewNetwork(sim, n, model)
	if cfg.NIC && !cfg.AnalyticSB {
		model.BandwidthBps = 0 // serialization moves into the NIC queues
		nw.SetNICBps(1e9)
	}

	// Engine selection: the sharded kernel executes the identical event
	// schedule, so everything below is kernel-agnostic; the only parallel
	// specialization is deferring shared-state measurement hooks into
	// per-shard logs replayed at barriers. When the topology cannot shard
	// usefully (one worker, too few nodes), fall back to the serial loop.
	var kern *simnet.Kernel
	var shardOf []int
	nodeOn := func(i int) simnet.NodeSim { return simnet.On(sim, i) }
	client := simnet.On(sim, n)
	if cfg.Kernel == KernelParallel {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if plan, nshards := nw.PlanShards(workers); plan != nil {
			kern = simnet.NewKernel(sim, nw, plan, nshards, n, workers)
			shardOf = plan
			nodeOn = kern.NodeOn
			client = kern.ClientOn()
		}
	}

	res := &Result{Protocol: cfg.Protocol.Name, Net: cfg.Net.String(), N: n,
		Series: metrics.NewTimeSeries(500 * time.Millisecond), Breakdown: &metrics.Breakdown{},
		Kernel: KernelSerial.String()}
	if kern != nil {
		res.Kernel = KernelParallel.String()
		res.Shards = kern.NumShards()
	}
	var gen workload.Source = cfg.Source
	if gen == nil {
		gen = workload.New(cfg.Workload)
	}
	genesis := gen.Genesis()

	// Client-side metadata, indexed by the dense run index stamped onto
	// every submitted transaction (Idx-1).
	meta := make([]txMeta, 0, 1024)

	// Scenario phase windows: confirmations are binned by reply time into
	// half-open windows delimited by the scenario's event times (see
	// phaseTracker). The series buffers are sized for the whole run up
	// front so the measurement path never reallocates them.
	runEnd := cfg.Duration + cfg.Drain
	res.Series.Reserve(int(runEnd/res.Series.Bin) + 2)
	var pt *phaseTracker
	if cfg.Scenario != nil {
		pt = newPhaseTracker(cfg.Scenario, runEnd)
	}
	// Phases that close mid-run stream out the moment they are final; the
	// rest (at minimum the last phase) are emitted at finalization below.
	if pt != nil && cfg.OnPhase != nil {
		for i := range pt.windows {
			if pt.windows[i].End >= runEnd {
				continue
			}
			i := i
			sim.At(simnet.Time(pt.windows[i].End), func() {
				pt.emitted[i] = true
				cfg.OnPhase(pt.stat(i))
			})
		}
	}

	// Shared analytic SB instances, created lazily per instance index.
	var analytic map[int]*sb.Instance
	if cfg.AnalyticSB {
		analytic = make(map[int]*sb.Instance)
	}

	windowEnd := simnet.Time(cfg.Duration)
	// applyConfirm is the client-side confirmation accounting: the
	// (f+1)-th replica reply makes a transaction client-visible. Serial
	// runs call it straight from the replica's hook; parallel runs log
	// hook firings per shard and replay them through this same function at
	// kernel barriers, merged in canonical (at, ord) order — the exact
	// serial call sequence.
	applyConfirm := func(i int, tx *types.Transaction, success bool, at simnet.Time) {
		if tx.Idx == 0 || tx.Idx > uint64(len(meta)) {
			return
		}
		m := &meta[tx.Idx-1]
		if m.done {
			return
		}
		m.replies++
		if m.replies < int32(f+1) {
			return
		}
		m.done = true
		reply := at + simnet.Time(nw.BaseDelay(i, int(m.home), 256))
		m.reply = reply
		lat := time.Duration(reply - m.submit)
		res.Latency.Add(lat)
		res.Series.Record(reply, lat)
		if pt != nil {
			pt.record(reply, lat)
		}
		if !success {
			res.Aborted++
		}
		if reply >= simnet.Time(cfg.Warmup) && reply <= windowEnd {
			res.Confirmed++
		}
		if cfg.OnConfirm != nil {
			cfg.OnConfirm(tx, success, reply)
		}
	}
	// Per-shard measurement logs for the parallel kernel: each shard's
	// worker is the only writer of its log, and the coordinator drains
	// them at barriers (see replayHooks below).
	var hookLogs [][]hookRec
	if kern != nil {
		hookLogs = make([][]hookRec, kern.NumShards())
	}
	replicas := make([]*core.Replica, n)
	for i := 0; i < n; i++ {
		i := i
		ccfg := core.Config{
			N: n, F: f, ID: i, M: n,
			Mode:             cfg.Protocol,
			BatchSize:        cfg.BatchSize,
			BatchTimeout:     cfg.BatchTimeout,
			Window:           cfg.Window,
			ViewTimeout:      cfg.ViewTimeout,
			TxSize:           cfg.TxSize,
			EpochLen:         cfg.EpochLen,
			StateTransfer:    cfg.StateTransfer,
			CensorshipBlocks: cfg.CensorshipBlocks,
			Genesis:          genesis,
			TraceStages:      i == 0,
			OnConfirm: func(tx *types.Transaction, success bool, at simnet.Time) {
				applyConfirm(i, tx, success, at)
			},
			OnViewChange: func(instance int, view uint64, at simnet.Time) {
				if i == 0 {
					res.ViewChanges++
				}
			},
		}
		if cfg.OnBlockDeliver != nil {
			ccfg.OnBlockDeliver = func(instance int, b *types.Block) {
				cfg.OnBlockDeliver(i, instance, b)
			}
		}
		if kern != nil {
			// Shared-state hooks fire on shard goroutines under the parallel
			// kernel: defer them into the shard's log instead, stamped with
			// the executing event's canonical key for barrier replay.
			sh := shardOf[i]
			ssim := nodeOn(i).S
			ccfg.OnConfirm = func(tx *types.Transaction, success bool, at simnet.Time) {
				hookLogs[sh] = append(hookLogs[sh], hookRec{
					at: at, ord: ssim.ExecOrd(), tx: tx,
					replica: int32(i), success: success, kind: hookConfirm,
				})
			}
			if cfg.OnBlockDeliver != nil {
				ccfg.OnBlockDeliver = func(instance int, b *types.Block) {
					hookLogs[sh] = append(hookLogs[sh], hookRec{
						at: ssim.Now(), ord: ssim.ExecOrd(), block: b,
						replica: int32(i), instance: int32(instance), kind: hookBlock,
					})
				}
			}
		}
		// Straggled instances are led by the highest-index replicas.
		if cfg.Stragglers > 0 && i >= n-cfg.Stragglers {
			ccfg.PulseScale = cfg.StragglerFactor
		}
		if cfg.UndetectableFaults > 0 && i >= n-cfg.UndetectableFaults {
			ccfg.ByzantineMute = true
		}
		if cfg.AnalyticSB {
			ccfg.SB = func(instance int, hooks core.SBHooks) core.SB {
				inst, ok := analytic[instance]
				if !ok {
					inst = sb.NewInstance(sb.Config{
						N: n, F: f, Instance: instance,
						Window: cfg.Window, TxSize: cfg.TxSize,
					}, sim, nw)
					analytic[instance] = inst
				}
				return inst.Port(i, hooks.OnDeliver)
			}
		}
		replicas[i] = core.NewReplica(ccfg, nodeOn(i), nw)
	}
	// Barrier replay for the parallel kernel: drain the per-shard hook
	// logs in canonical (at, ord) order — a k-way merge of already-sorted
	// logs — through the identical accounting the serial loop runs inline.
	// Entries within one event (a block delivery followed by confirmations)
	// share a key and replay in logged order.
	var replayHooks func(simnet.Time)
	if kern != nil {
		replayIdx := make([]int, len(hookLogs))
		replayHooks = func(simnet.Time) {
			for {
				best := -1
				for s := range hookLogs {
					if replayIdx[s] >= len(hookLogs[s]) {
						continue
					}
					e := &hookLogs[s][replayIdx[s]]
					if best == -1 {
						best = s
						continue
					}
					be := &hookLogs[best][replayIdx[best]]
					if e.at < be.at || (e.at == be.at && e.ord < be.ord) {
						best = s
					}
				}
				if best == -1 {
					break
				}
				e := hookLogs[best][replayIdx[best]]
				replayIdx[best]++
				switch e.kind {
				case hookConfirm:
					applyConfirm(int(e.replica), e.tx, e.success, e.at)
				case hookBlock:
					cfg.OnBlockDeliver(int(e.replica), int(e.instance), e.block)
				}
			}
			for s := range hookLogs {
				hookLogs[s] = hookLogs[s][:0]
				replayIdx[s] = 0
			}
		}
		kern.SetBarrierHook(replayHooks)
	}
	// Straggler network scaling: everything the straggled replicas send is
	// slowed, modeling an instance that runs 10x slower end to end.
	for s := 0; s < cfg.Stragglers; s++ {
		nw.SetOutScale(n-1-s, cfg.StragglerFactor)
	}
	for _, r := range replicas {
		r.Start()
	}

	// Detectable faults: crash the chosen replicas at FaultAt (Fig. 7).
	if cfg.DetectableFaults > 0 {
		at := simnet.Time(cfg.FaultAt)
		for k := 0; k < cfg.DetectableFaults; k++ {
			victim := n - 1 - k
			sim.At(at, func() {
				replicas[victim].Stop()
				nw.SetDown(victim, true)
			})
		}
	}

	// Scenario events: compiled onto the simulator's timeline, mutating the
	// network, the replica lifecycles and the client load factor mid-run.
	loadMult := 1.0
	if cfg.Scenario != nil {
		cfg.Scenario.Apply(sim, scenario.Hooks{
			Crash: func(id int) {
				replicas[id].Stop()
				nw.SetDown(id, true)
			},
			Recover: func(id int) {
				nw.SetDown(id, false)
				replicas[id].Recover()
			},
			Straggle: func(id int, scale float64) {
				nw.SetOutScale(id, scale)
				replicas[id].SetPulseScale(scale)
			},
			Partition:  func(groups [][]int) { nw.Partition(groups...) },
			Heal:       nw.Heal,
			LoadFactor: func(mult float64) { loadMult = mult },
			Equivocate: func(id int) { replicas[id].SetEquivocate(true) },
			Censor:     func(id int) { replicas[id].SetCensorAll(true) },
			MuteLeader: func(id int) { replicas[id].SetMuteLeader(true) },
		})
	}

	// Open-loop clients: one transaction every 1/(LoadTPS*loadMult)
	// seconds, submitted to the (current) leaders of its buckets plus the
	// next f replicas each (censorship resistance, Sec. V-B) and to the
	// observer.
	interval := time.Duration(float64(time.Second) / cfg.LoadTPS)
	submitted := 0
	// Per-transaction scratch, reused across the whole run (the simulation
	// is single-threaded): target list plus a dedup vector indexed by
	// replica. Individual submissions are scheduled as closure-free call
	// events — one transaction allocates its metadata entry and nothing
	// else on the client side.
	targetBuf := make([]int, 0, 2*(f+1)+1)
	targetSeen := make([]bool, n)
	leaders := &leaderCache{n: n, m: make(map[types.Key]int, 1024)}
	// The client rides its own scheduling affinity (node id n — a pure
	// source, never a delivery target): under the parallel kernel the
	// whole submission chain runs on the client shard and its cross-node
	// hops merge into the replica shards, and under the serial loop the
	// identical stamping keeps the canonical event keys kernel-independent.
	var submitNext func(at simnet.Time)
	submitNext = func(at simnet.Time) {
		if at > windowEnd || (cfg.TotalTxs > 0 && submitted >= cfg.TotalTxs) {
			return
		}
		client.At(at, func() {
			tx := gen.Next()
			tx.SubmitNS = int64(client.Now())
			home := submitted % n
			tx.Idx = uint64(submitted + 1) // dense run index for slice-addressed state
			meta = append(meta, txMeta{id: tx.ID(), submit: client.Now(), home: int32(home)})
			targetBuf = appendSubmitTargets(targetBuf[:0], targetSeen, leaders, tx, n, f)
			for _, target := range targetBuf {
				d := nw.BaseDelay(home, target, cfg.TxSize)
				client.CallAtNode(target, client.Now()+simnet.Time(d), submitToReplica, replicas[target], tx)
			}
			submitted++
			res.Submitted = submitted
			gap := time.Duration(float64(interval) / loadMult)
			if gap <= 0 {
				gap = 1 // virtual time must advance or the loop never ends
			}
			submitNext(at + simnet.Time(gap))
		})
	}
	submitNext(simnet.Time(cfg.Warmup) / 2)

	// Streaming windows and cancellation: one bookkeeping event per 0.5 s
	// of virtual time polls Halt and reports the just-closed series bin
	// (final by the same argument as phaseStat's). Bins still open when the
	// ticks end — a trailing partial bin, or bins reached only by replies
	// landing after runEnd — are flushed after the simulation below.
	windowsEmitted := 0
	if cfg.OnWindow != nil || cfg.Halt != nil {
		win := res.Series.Bin
		var tick func(k int)
		tick = func(k int) {
			sim.At(simnet.Time(win)*simnet.Time(k), func() {
				if cfg.Halt != nil && cfg.Halt() {
					res.Halted = true
					sim.Halt()
					return
				}
				if cfg.OnWindow != nil {
					i := k - 1
					cfg.OnWindow(WindowStat{
						Index:         i,
						Start:         time.Duration(i) * win,
						End:           time.Duration(k) * win,
						Confirmed:     res.Series.Count(i),
						ThroughputTPS: res.Series.Throughput(i),
						MeanLatency:   res.Series.MeanLatency(i),
					})
					windowsEmitted = k
				}
				if simnet.Time(win)*simnet.Time(k+1) <= simnet.Time(runEnd) {
					tick(k + 1)
				}
			})
		}
		tick(1)
	}

	// Live-set census ticks: one bookkeeping event per SampleLiveSet of
	// virtual time walks every replica and records the retained-state sum
	// plus the scheduler's pending events (serial kernel only — validated
	// above; the walk would cross shard boundaries under the parallel one).
	if cfg.SampleLiveSet > 0 {
		var census func(k int)
		census = func(k int) {
			sim.At(simnet.Time(cfg.SampleLiveSet)*simnet.Time(k), func() {
				s := LiveSetSample{
					At:     cfg.SampleLiveSet * time.Duration(k),
					Events: sim.Pending(),
				}
				for _, r := range replicas {
					ls := r.LiveSet()
					s.Trackers += ls.Trackers
					s.Slots += ls.Slots
					s.ExecQ += ls.ExecQ
					s.GlogQ += ls.GlogQ
					s.Escrows += ls.Escrows
					s.Archive += ls.Archive
					s.Retained += ls.Retained
					s.CkptVotes += ls.CkptVotes
				}
				s.Total = s.Events + s.Trackers + s.Slots + s.ExecQ + s.GlogQ +
					s.Escrows + s.Archive + s.Retained + s.CkptVotes
				res.LiveSetSamples = append(res.LiveSetSamples, s)
				if s.Total > res.LiveSetPeak {
					res.LiveSetPeak = s.Total
				}
				if cfg.SampleLiveSet*time.Duration(k+1) <= runEnd {
					census(k + 1)
				}
			})
		}
		census(1)
	}

	if kern != nil {
		kern.Run(windowEnd + simnet.Time(cfg.Drain))
		// The horizon window takes no barrier; drain hooks it logged.
		replayHooks(0)
		res.Events = kern.EventsProcessed()
	} else {
		sim.Run(windowEnd + simnet.Time(cfg.Drain))
		res.Events = sim.EventsProcessed()
	}
	res.Messages = nw.Messages()

	// A halted run measures only the elapsed virtual time: divide the
	// confirmations by the window that actually ran, not the configured
	// one, so partial throughput is a rate and not a fraction of one.
	window := (cfg.Duration - cfg.Warmup).Seconds()
	if res.Halted {
		if end := time.Duration(sim.Now()); end < cfg.Duration {
			window = (end - cfg.Warmup).Seconds()
		}
	}
	if window > 0 {
		res.ThroughputTPS = float64(res.Confirmed) / window
	}
	// Bins the ticker has not streamed yet — the partial bin past the last
	// 0.5 s multiple, or bins opened by replies landing after runEnd — are
	// closed now that the simulation stopped; emit them in order.
	if cfg.OnWindow != nil {
		for i := windowsEmitted; i < res.Series.Bins(); i++ {
			cfg.OnWindow(WindowStat{
				Index:         i,
				Start:         time.Duration(i) * res.Series.Bin,
				End:           time.Duration(i+1) * res.Series.Bin,
				Confirmed:     res.Series.Count(i),
				ThroughputTPS: res.Series.Throughput(i),
				MeanLatency:   res.Series.MeanLatency(i),
			})
		}
	}
	// Phase finalization. On a halted run the recorded counts include
	// confirmations whose replies had not landed when the simulation
	// stopped; re-bin from the metadata so every window counts exactly the
	// replies inside its clamped bounds, then clamp to the elapsed virtual
	// time — phases the halt preempted entirely are never emitted.
	if pt != nil {
		elapsed := time.Duration(sim.Now())
		if res.Halted {
			pt.reset()
			for i := range meta {
				if m := &meta[i]; m.done && m.reply < simnet.Time(elapsed) {
					pt.record(m.reply, time.Duration(m.reply-m.submit))
				}
			}
		}
		res.Phases = pt.finalize(elapsed, res.Halted)
		if cfg.OnPhase != nil {
			for i := range res.Phases {
				if !pt.emitted[i] && !pt.skipped[i] {
					cfg.OnPhase(res.Phases[i])
				}
			}
		}
	}

	// Observer breakdown (Fig. 6): stage deltas from replica 0's trace plus
	// the client-side reply time.
	obs := replicas[0]
	for i := range meta {
		m := &meta[i]
		st, ok := obs.Stages(m.id)
		if !ok || st.Confirmed == 0 || st.Submit == 0 {
			continue
		}
		res.Breakdown.Add(metrics.StageSend, time.Duration(st.Received-st.Submit))
		res.Breakdown.Add(metrics.StagePreprocess, time.Duration(st.Proposed-st.Received))
		res.Breakdown.Add(metrics.StagePartial, time.Duration(st.Delivered-st.Proposed))
		res.Breakdown.Add(metrics.StageGlobal, time.Duration(st.Confirmed-st.Delivered))
		if m.done && m.reply > st.Confirmed {
			res.Breakdown.Add(metrics.StageReply, time.Duration(m.reply-st.Confirmed))
		} else {
			res.Breakdown.Add(metrics.StageReply, time.Duration(nw.BaseDelay(0, int(m.home), 256)))
		}
	}

	for _, r := range replicas {
		res.StateTransferApplied += r.StateTransferApplied()
	}

	if cfg.CaptureState {
		res.State = replicas[0].Store()
		snap := res.State.Snapshot()
		res.Converged = true
		for i := 1; i < n; i++ {
			if !replicas[i].Store().Snapshot().Equal(snap) {
				res.Converged = false
				break
			}
		}
	}
	return res
}

// submitToReplica is the client-submission event callback: delivering a
// transaction to one replica. Top-level so the scheduler's call events
// carry it without a closure allocation.
func submitToReplica(replica, tx any) {
	_ = replica.(*core.Replica).SubmitTx(tx.(*types.Transaction))
}

// appendSubmitTargets appends the replicas a client sends tx to onto dst:
// each involved instance's initial leader plus the f replicas after it,
// and replica 0 (the tracing observer). m = n, so instance i's initial
// leader is i. seen is caller-provided scratch of length n, all-false on
// entry; it is cleared again before returning. Duplicate payers resolve to
// already-seen leaders, so iterating ops directly matches the distinct
// payer list. leaders memoizes the sha256-based key-to-leader mapping for
// the run.
func appendSubmitTargets(dst []int, seen []bool, leaders *leaderCache, tx *types.Transaction, n, f int) []int {
	add := func(dst []int, r int) []int {
		r %= n
		if !seen[r] {
			seen[r] = true
			dst = append(dst, r)
		}
		return dst
	}
	dst = add(dst, 0)
	hasPayer := false
	for _, op := range tx.Ops {
		if !op.IsPayerOp() {
			continue
		}
		hasPayer = true
		lead := leaders.of(op.Key)
		for k := 0; k <= f; k++ {
			dst = add(dst, lead+k)
		}
	}
	if !hasPayer { // no payer ops: route by client
		lead := leaders.of(tx.Client)
		for k := 0; k <= f; k++ {
			dst = add(dst, lead+k)
		}
	}
	for _, r := range dst {
		seen[r] = false
	}
	return dst
}

// leaderCache memoizes core.BucketOf per key for one run: the assignment
// hashes the key with sha256, and the open-loop client resolves the same
// few thousand account keys for the whole run.
type leaderCache struct {
	n int
	m map[types.Key]int
}

func (c *leaderCache) of(k types.Key) int {
	if v, ok := c.m[k]; ok {
		return v
	}
	v := core.BucketOf(k, c.n)
	c.m[k] = v
	return v
}
