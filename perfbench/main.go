// Command perfbench is the repository's benchmark. It runs one workload
// (README.md lists them and why each was chosen) against the real code,
// checks the run's outputs, and prints one JSON result line last:
//
//	perfbench --workload sim-msg --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of repeated untraced
// runs. With --trace 1 it reports per-layer metrics from one traced run,
// taken beside an untraced run of the same seed, and writes the traced
// run's spans and CPU profile under --out. Any failed correctness check
// makes the result's "correct" false and the exit code 1.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

// setupRuns is how many times a measured invocation sets up; setup_s is
// their median.
const setupRuns = 9

// profileHz is the traced run's CPU profiling rate: 2.5 times pprof's
// default, for a seconds-long run. On a 250 Hz kernel tick faster rates
// lose samples (at 1 kHz a single-threaded run kept a quarter of its CPU
// time in the profile).
const profileHz = 250

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	smoke    bool   // shrink the workload (self-tests)
	outDir   string // where traced runs write spans and profiles; "" skips
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	names    []string // metric order for the text summary
	problems []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.Metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sim-msg, sim-pulse or real-proc")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&seconds, "seconds", 30, "measuring time of a --trace 0 run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "trace"), "directory for traced runs' spans and CPU profiles")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, n := range rep.names {
		v := rep.Metrics[n]
		fmt.Printf("%-26s %16.6f %s\n", n, v.Value, v.Unit)
	}
	fmt.Printf("%-26s %16.6f %s (%d of %d)\n", "fail_frac", float64(rep.Failed)/float64(rep.Attempted), "ratio", rep.Failed, rep.Attempted)
	for _, p := range rep.problems {
		fmt.Println("FAILED CHECK:", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func run(o options) (*report, error) {
	s, ok := lookup(o.workload, o.smoke)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if !s.real {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	rep := &report{Correct: true, Metrics: map[string]metricValue{}}
	n := setupRuns
	if o.trace {
		n = 1 // set-up time is an end-to-end metric; the traced run only warms up
	}
	var setups []float64
	refs := []float64{refLoop()}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		out := execute(s, s.warmup(o.seed), false)
		setups = append(setups, time.Since(t0).Seconds())
		if err := out.p.check(out.res); err != nil {
			rep.fail("set-up run: %v", err)
		}
		refs = append(refs, refLoop())
	}
	if o.trace {
		return rep, traced(s, o, rep)
	}
	measured(s, o, rep, setups, refs)
	return rep, nil
}

// outcome is one finished cluster run and its resource use.
type outcome struct {
	res     *cluster.Result
	p       *probe
	wall    time.Duration
	cpu     time.Duration
	heapMB  float64
	ms0     runtime.MemStats
	ms1     runtime.MemStats
	profile []byte // traced runs only
}

// execute runs cfg once with its seams wrapped by a probe.
func execute(s spec, cfg cluster.Config, traced bool) *outcome {
	out := &outcome{p: newProbe(cfg, s.real, traced)}
	cfg = out.p.wire(cfg)
	runtime.GC()
	var prof bytes.Buffer
	if traced {
		// StartCPUProfile warns on stderr that the rate is already set,
		// and keeps it.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			traced = false // another profile is running (a test binary's -cpuprofile)
		}
	}
	runtime.ReadMemStats(&out.ms0)
	heap := startHeapPeak()
	c0, t0 := cpuTime(), time.Now()
	if s.real {
		out.res = cluster.RunReal(cfg)
	} else {
		out.res = cluster.Run(cfg)
	}
	out.wall, out.cpu = time.Since(t0), cpuTime()-c0
	out.heapMB = heap.Stop()
	runtime.ReadMemStats(&out.ms1)
	if traced {
		pprof.StopCPUProfile()
		out.profile = prof.Bytes()
	}
	return out
}

func (o *outcome) successes() int { return o.p.confirmed - o.p.aborted }

// latencies returns the client confirmation latency percentiles: the
// program's virtual-clock distribution on the simulator, and wall time
// from each transaction's scheduled send on the real backend.
func (o *outcome) latencies(ps ...float64) []time.Duration {
	lat := &o.res.Latency
	if o.p.real {
		lat = &o.p.schedLat
	}
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		out[i] = lat.Percentile(p)
	}
	return out
}

// fingerprint summarizes everything a simulated run computes on the
// virtual clock; two runs of one seed must agree on it exactly.
func (o *outcome) fingerprint() string {
	r := o.res
	lat := o.latencies(50, 99)
	s := fmt.Sprintf("events=%d msgs=%d sub=%d conf=%d abort=%d vc=%d tps=%v lat=%d/%v/%v/%v blocks=%d/%d/%d/%x order=%d",
		r.Events, r.Messages, r.Submitted, r.Confirmed, r.Aborted, r.ViewChanges, r.ThroughputTPS,
		r.Latency.Count(), r.Latency.Mean(), lat[0], lat[1], o.p.blocks, o.p.txBlocks, o.p.blockTxs, o.p.blockHash.Sum64(),
		o.p.orderStats().calls)
	for _, st := range metrics.Stages() {
		s += fmt.Sprintf(" %v=%v", st, r.Breakdown.Mean(st))
	}
	return s
}

// record checks a finished run and adds it to the report's totals.
func (rep *report) record(label string, o *outcome) {
	if err := o.p.check(o.res); err != nil {
		rep.fail("%s: %v", label, err)
	}
	rep.Attempted += o.res.Submitted
	rep.Failed += o.res.Submitted - o.successes()
}

// measured repeats untraced runs for the configured time and reports the
// median of each end-to-end metric over the repetitions. Simulated runs
// of one seed must agree exactly on everything timed by the virtual
// clock, so their latency medians are each run's own values. The timed
// metrics (set-up, wall and CPU time) are scaled to the reference core by
// the reference loop, timed after every set-up and repetition.
func measured(s spec, o options, rep *report, setups, refs []float64) {
	minReps := 2
	if o.smoke {
		minReps = 1
	}
	var walls, heaps, p50s, p99s, tps, cpus []float64
	var first string
	submitted, ok := 0, 0
	start := time.Now()
	for {
		out := execute(s, s.config(o.seed), false)
		rep.record(fmt.Sprintf("run %d", len(walls)+1), out)
		if !s.real {
			if fp := out.fingerprint(); first == "" {
				first = fp
			} else if fp != first {
				rep.fail("run %d of one seed diverged:\n  %s\n  %s", len(walls)+1, fp, first)
			}
		}
		lat := out.latencies(50, 99)
		fmt.Fprintf(os.Stderr, "run %d: wall %.3fs cpu %.3fs p50 %.3fms p99 %.3fms confirmed %d/%d\n",
			len(walls)+1, out.wall.Seconds(), out.cpu.Seconds(), ms(lat[0]), ms(lat[1]), out.successes(), out.res.Submitted)
		walls = append(walls, out.wall.Seconds())
		heaps = append(heaps, out.heapMB)
		p50s = append(p50s, ms(lat[0]))
		p99s = append(p99s, ms(lat[1]))
		tps = append(tps, out.res.ThroughputTPS)
		cpus = append(cpus, ms(out.cpu)*1000/float64(max(out.successes(), 1)))
		submitted += out.res.Submitted
		ok += out.successes()
		refs = append(refs, refLoop())
		// Stop once another run of this length would overrun the budget.
		if len(walls) >= minReps && time.Since(start)+out.wall > o.seconds {
			break
		}
	}
	scale := refNominal.Seconds() / median(refs)
	fmt.Fprintf(os.Stderr, "reference loop %.3fms (scale %.4f); unscaled setup_s %.4f wall_s %.4f cpu_ms_per_ktx %.4f\n",
		median(refs)*1000, scale, median(setups), median(walls), median(cpus))
	rep.set("setup_s", "s", median(setups)*scale)
	rep.set("wall_s", "s", median(walls)*scale)
	rep.set("peak_heap_mb", "MB", median(heaps))
	rep.set("confirm_p50_ms", "ms", median(p50s))
	rep.set("confirm_p99_ms", "ms", median(p99s))
	rep.set("confirmed_tps", "tx/s", median(tps))
	rep.set("ok_frac", "ratio", float64(ok)/float64(max(submitted, 1)))
	rep.set("cpu_ms_per_ktx", "ms", median(cpus)*scale)
}

// traced runs one untraced and one traced run of the seed and reports
// the per-layer metrics.
func traced(s spec, o options, rep *report) error {
	base := execute(s, s.config(o.seed), false)
	rep.record("untraced run", base)
	tr := execute(s, s.config(o.seed), true)
	rep.record("traced run", tr)
	if !s.real {
		if a, b := base.fingerprint(), tr.fingerprint(); a != b {
			rep.fail("tracing changed the simulated run:\n  untraced %s\n  traced   %s", a, b)
		}
	}
	res, p := base.res, base.p

	rep.set("simnet.events", "count", float64(res.Events))
	rep.set("simnet.events_per_s", "1/s", float64(res.Events)/base.wall.Seconds())
	rep.set("simnet.events_per_tx", "count", float64(res.Events)/float64(max(res.Submitted, 1)))
	rep.set("pbft.msgs_per_tx", "count", float64(res.Messages)/float64(max(base.successes(), 1)))
	rep.set("pbft.view_changes", "count", float64(res.ViewChanges))
	rep.set("core.blocks", "count", float64(p.blocks))
	rep.set("core.tx_block_frac", "ratio", float64(p.txBlocks)/float64(max(p.blocks, 1)))
	rep.set("core.txs_per_block", "count", float64(p.blockTxs)/float64(max(p.txBlocks, 1)))
	rep.set("ledger.escrows_open", "count", float64(res.State.EscrowCount()))
	for _, st := range []struct {
		name  string
		stage metrics.Stage
	}{
		{"stage.send_ms", metrics.StageSend},
		{"stage.preprocess_ms", metrics.StagePreprocess},
		{"stage.partial_ms", metrics.StagePartial},
		{"stage.global_ms", metrics.StageGlobal},
		{"stage.reply_ms", metrics.StageReply},
	} {
		rep.set(st.name, "ms", ms(res.Breakdown.Mean(st.stage)))
	}

	ord := tr.p.orderStats()
	rep.set("order.calls", "count", float64(ord.calls))
	rep.set("order.busy_ms", "ms", ms(ord.busy))
	rep.set("order.call_p99_us", "us", float64(ord.p99)/float64(time.Microsecond))
	rep.set("order.pending_max", "count", float64(ord.pendingMax))

	late := p.genLateness()
	rep.set("cluster.gen_late_p99_ms", "ms", ms(late.Percentile(99)))
	var next time.Duration
	for _, sp := range tr.p.src.spans {
		next += time.Duration(sp.End - sp.Start)
	}
	rep.set("workload.next_us", "us", float64(next)/float64(time.Microsecond)/float64(max(len(tr.p.src.spans), 1)))

	txs := float64(max(res.Submitted, 1))
	rep.set("gc.allocs_per_tx", "count", float64(base.ms1.Mallocs-base.ms0.Mallocs)/txs)
	rep.set("gc.bytes_per_tx", "B", float64(base.ms1.TotalAlloc-base.ms0.TotalAlloc)/txs)
	rep.set("gc.cycles", "count", float64(base.ms1.NumGC-base.ms0.NumGC))
	rep.set("gc.pause_ms", "ms", float64(base.ms1.PauseTotalNs-base.ms0.PauseTotalNs)/1e6)

	minDur := 200 * time.Millisecond
	if o.smoke {
		minDur = 10 * time.Millisecond
	}
	ws, err := wireReplay(tr.p.replayed, minDur, tr.p.start)
	if err != nil {
		rep.fail("%v", err)
	}
	rep.set("wire.encode_ns_per_msg", "ns", ws.encodeNs)
	rep.set("wire.decode_ns_per_msg", "ns", ws.decodeNs)
	rep.set("wire.decode_allocs_per_msg", "count", ws.decodeAllocs)
	rep.set("wire.bytes_per_msg", "B", ws.bytes)

	if len(tr.profile) == 0 {
		return errors.New("no CPU profile: another profile was already running")
	}
	shares, err := cpuShares(tr.profile)
	if err != nil {
		return err
	}
	for _, l := range layers {
		rep.set("cpu_share."+l, "ratio", shares[l])
	}
	rep.set("trace.overhead_frac", "ratio", tr.wall.Seconds()/base.wall.Seconds()-1)

	if o.outDir == "" {
		return nil
	}
	stem := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", s.name, o.seed))
	if err := writeSpans(stem+".spans.jsonl", tr.p.spans(time.Now(), ws.span)); err != nil {
		return err
	}
	return os.WriteFile(stem+".cpu.pprof", tr.profile, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
