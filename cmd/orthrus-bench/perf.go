package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/orthrus"
	"repro/orthrus/scenariodsl"
)

// The -bench perf harness: instead of regenerating figures, it measures
// the simulator hot path itself — wall time, allocations and simulated
// events per second for a fixed (protocol, n) grid — and writes the
// BENCH_scale.json artifact (schema orthrus-bench-perf/v2) that CI runs
// in smoke mode and uploads. The base grid matches the repository's
// BenchmarkScale sub-benchmarks one-to-one (bench_test.go; -short trims
// its large cells) so go-test numbers and the artifact measure identical
// work: message-level PBFT under the NIC model for n < 32, the analytic
// SB above. Two tiers extend the base grid:
//
//   - kernel-pair cells (Orthrus n = 50, 100, message-level, NIC off,
//     short window — BenchmarkScaleParallel's grid): each is measured
//     under the serial kernel and again under the parallel kernel, and
//     the cell carries parallel_* columns including the speedup and a
//     determinism cross-check (the two runs must agree bit-for-bit, or
//     the harness errors out).
//   - F-scale cells (Orthrus n = 250, 500, 1000, analytic, pulse-damped
//     like the F-scale figure's large tier): the large-n sweep the
//     ROADMAP targets, kept seconds-scale per cell.
//   - soak cell (Orthrus n = 25, 120 s of virtual time, crash/recover
//     churn, state transfer on, live-set sampling — a shortened F-soak
//     cell): its peak_live_set / final_live_set columns are the committed
//     baseline CI's soak-smoke job gates memory growth against.

// perfSchema identifies the artifact format. v2 fields per cell: ns/op,
// allocs/op, bytes/op, sim-events and sim-events/sec, plus the measured
// throughput for context; kernel-pair cells add parallel_ns_per_op,
// parallel_workers, parallel_shards and parallel_speedup. Timing fields
// vary with the host; allocs/op and sim_events are deterministic.
const perfSchema = "orthrus-bench-perf/v2"

// perfCell is one measured (protocol, n) point. The parallel_* columns
// are only present on kernel-pair cells: the same configuration measured
// again under the parallel kernel, with the speedup as serial ns/op over
// parallel ns/op (worker counts and shard counts give it context — on a
// single-core host the speedup hovers around 1 by construction).
type perfCell struct {
	Protocol        string  `json:"protocol"`
	N               int     `json:"n"`
	Tier            string  `json:"tier,omitempty"`
	AnalyticSB      bool    `json:"analytic_sb"`
	NsPerOp         int64   `json:"ns_per_op"`
	AllocsPerOp     uint64  `json:"allocs_per_op"`
	BytesPerOp      uint64  `json:"bytes_per_op"`
	SimEvents       uint64  `json:"sim_events"`
	SimEventsPerSec float64 `json:"sim_events_per_sec"`
	TputKTPS        float64 `json:"tput_ktps"`

	ParallelNsPerOp int64   `json:"parallel_ns_per_op,omitempty"`
	ParallelWorkers int     `json:"parallel_workers,omitempty"`
	ParallelShards  int     `json:"parallel_shards,omitempty"`
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`

	// Soak-cell columns: the run's peak and final cluster-wide live-set
	// census (deterministic, like allocs/op). The soak-smoke CI gate
	// compares a freshly measured peak against the committed baseline's.
	PeakLiveSet  int `json:"peak_live_set,omitempty"`
	FinalLiveSet int `json:"final_live_set,omitempty"`
}

// perfArtifact is the document -bench writes.
type perfArtifact struct {
	Schema string     `json:"schema"`
	Cells  []perfCell `json:"cells"`
}

// perfPoint names one grid cell. tier selects the configuration family:
// "" is the BenchmarkScale base grid, "kernel" the message-level
// kernel-pair cells, "fscale" the analytic large-n tier.
type perfPoint struct {
	protocol string
	n        int
	tier     string
}

// perfGrid is the measured grid: every protocol panel cell at
// message-level sizes, the analytic large-n cells for Orthrus, the
// kernel-pair cells and the F-scale tier.
func perfGrid() []perfPoint {
	var cells []perfPoint
	for _, p := range []string{"Orthrus", "ISS", "Ladon"} {
		for _, n := range []int{4, 10, 25} {
			cells = append(cells, perfPoint{p, n, ""})
		}
	}
	for _, n := range []int{50, 100} {
		cells = append(cells, perfPoint{"Orthrus", n, ""})
	}
	for _, n := range []int{50, 100} {
		cells = append(cells, perfPoint{"Orthrus", n, "kernel"})
	}
	for _, n := range []int{250, 500, 1000} {
		cells = append(cells, perfPoint{"Orthrus", n, "fscale"})
	}
	cells = append(cells, perfPoint{"Orthrus", 25, "soak"})
	return cells
}

// perfConfig builds the cell's run configuration. The base grid ("") is
// the SDK mirror of bench_test.go's scaleBenchCfg; the kernel tier
// mirrors scaleKernelCfg (message-level, NIC off, short window — the
// regime the parallel kernel accelerates); the fscale tier mirrors the
// F-scale figure's pulse-damped large cells.
func perfConfig(protocol string, n int, tier string) orthrus.Config {
	var opts []orthrus.Option
	switch tier {
	case "kernel":
		opts = []orthrus.Option{
			orthrus.WithProtocol(protocol),
			orthrus.WithClusterSize(n),
			orthrus.WithNet(orthrus.WAN),
			orthrus.WithAccounts(4000),
			orthrus.WithLoad(500),
			orthrus.WithDuration(1 * time.Second),
			orthrus.WithWarmup(250 * time.Millisecond),
			orthrus.WithDrain(1 * time.Second),
			orthrus.WithBatching(1024, 250*time.Millisecond),
			orthrus.WithEpochLen(128),
			orthrus.WithNIC(false),
			orthrus.WithSeed(42),
		}
	case "soak":
		scn, err := scenariodsl.Preset(scenariodsl.SoakChurnPreset, n, 120*time.Second, 42)
		if err != nil {
			panic("orthrus-bench: " + err.Error()) // the preset name is fixed
		}
		opts = []orthrus.Option{
			orthrus.WithProtocol(protocol),
			orthrus.WithClusterSize(n),
			orthrus.WithNet(orthrus.WAN),
			orthrus.WithAccounts(4000),
			orthrus.WithLoad(100),
			orthrus.WithDuration(120 * time.Second),
			orthrus.WithWarmup(12 * time.Second),
			orthrus.WithDrain(30 * time.Second),
			orthrus.WithBatching(4096, 10*time.Second),
			orthrus.WithEpochLen(4),
			orthrus.WithViewTimeout(60 * time.Second),
			orthrus.WithStateTransfer(),
			orthrus.WithLiveSetSampling(5 * time.Second),
			orthrus.WithScenario(scn),
			orthrus.WithNIC(false),
			orthrus.WithSeed(42),
		}
	case "fscale":
		opts = []orthrus.Option{
			orthrus.WithProtocol(protocol),
			orthrus.WithClusterSize(n),
			orthrus.WithNet(orthrus.WAN),
			orthrus.WithAccounts(4000),
			orthrus.WithLoad(100),
			orthrus.WithDuration(2 * time.Second),
			orthrus.WithWarmup(400 * time.Millisecond),
			orthrus.WithDrain(2 * time.Second),
			orthrus.WithBatching(4096, 500*time.Millisecond),
			orthrus.WithEpochLen(1024),
			orthrus.WithAnalyticSB(),
			orthrus.WithSeed(42),
		}
	default:
		opts = []orthrus.Option{
			orthrus.WithProtocol(protocol),
			orthrus.WithClusterSize(n),
			orthrus.WithNet(orthrus.WAN),
			orthrus.WithAccounts(4000),
			orthrus.WithLoad(2000),
			orthrus.WithDuration(4 * time.Second),
			orthrus.WithWarmup(1 * time.Second),
			orthrus.WithDrain(8 * time.Second),
			orthrus.WithBatching(1024, 100*time.Millisecond),
			orthrus.WithEpochLen(128),
			orthrus.WithSeed(42),
		}
		if n >= 32 {
			opts = append(opts, orthrus.WithAnalyticSB())
		}
	}
	return orthrus.NewConfig(opts...)
}

// measureCell runs one cell once (runs are deterministic, so a single
// iteration measures the cell exactly) and reads the allocation counters
// around it. The run starts from a fresh simulator, so allocs/op counts
// the cell's own arena growth and does not depend on which cell ran
// before it. Kernel-pair cells run a second time under the parallel
// kernel; the two results must agree bit-for-bit on every measurement —
// the perf harness doubles as a deployment-level determinism check — and
// the cell records the parallel timing columns. runner is injected for
// tests.
func measureCell(p perfPoint, runner func(orthrus.Config) (*orthrus.Result, error)) (perfCell, error) {
	cfg := perfConfig(p.protocol, p.n, p.tier)
	orthrus.ReleaseSimulators()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := runner(cfg)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return perfCell{}, err
	}
	cell := perfCell{
		Protocol:    p.protocol,
		N:           p.n,
		Tier:        p.tier,
		AnalyticSB:  cfg.AnalyticSB,
		NsPerOp:     elapsed.Nanoseconds(),
		AllocsPerOp: after.Mallocs - before.Mallocs,
		BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
		SimEvents:   res.SimEvents,
		TputKTPS:    res.ThroughputTPS / 1000,
	}
	if s := elapsed.Seconds(); s > 0 {
		cell.SimEventsPerSec = float64(res.SimEvents) / s
	}
	if p.tier == "soak" {
		cell.PeakLiveSet = res.LiveSetPeak
		if n := len(res.LiveSetSamples); n > 0 {
			cell.FinalLiveSet = res.LiveSetSamples[n-1].Total
		}
	}
	if p.tier == "kernel" {
		workers := runtime.GOMAXPROCS(0)
		if workers < 2 {
			workers = 2
		}
		pcfg := cfg
		pcfg.Kernel = orthrus.KernelParallel
		pcfg.Workers = workers
		pstart := time.Now()
		pres, err := runner(pcfg)
		pelapsed := time.Since(pstart)
		if err != nil {
			return perfCell{}, err
		}
		if pres.Confirmed != res.Confirmed || pres.SimEvents != res.SimEvents ||
			pres.ThroughputTPS != res.ThroughputTPS || pres.Latency != res.Latency {
			return perfCell{}, fmt.Errorf("parallel kernel diverged from serial on %s/n=%d:\n  serial   %v\n  parallel %v",
				p.protocol, p.n, res, pres)
		}
		cell.ParallelNsPerOp = pelapsed.Nanoseconds()
		cell.ParallelWorkers = workers
		cell.ParallelShards = pres.Shards
		if pelapsed > 0 {
			cell.ParallelSpeedup = float64(cell.NsPerOp) / float64(cell.ParallelNsPerOp)
		}
	}
	return cell, nil
}

// runPerfBench measures the whole grid and writes the artifact to
// jsonPath. The table rendering goes to stdout unless quiet; comparePath,
// when set, names an older orthrus-bench-perf/v2 artifact to print a
// per-cell delta table against after the run.
func runPerfBench(stdout, stderr io.Writer, jsonPath, comparePath string, quiet bool, runner func(orthrus.Config) (*orthrus.Result, error)) error {
	if jsonPath == "" {
		jsonPath = "BENCH_scale.json"
	}
	var old *perfArtifact
	if comparePath != "" {
		// Load (and validate) the baseline up front: a typo'd path should
		// fail before minutes of measurement, not after.
		var err error
		if old, err = readPerfArtifact(comparePath); err != nil {
			return err
		}
	}
	doc := perfArtifact{Schema: perfSchema}
	if !quiet {
		fmt.Fprintf(stdout, "%-8s %5s %-7s %10s %14s %14s %16s %10s %12s\n",
			"proto", "n", "tier", "ms/op", "allocs/op", "bytes/op", "sim-events/s", "ktps", "par-speedup")
	}
	for _, c := range perfGrid() {
		cell, err := measureCell(c, runner)
		if err != nil {
			return fmt.Errorf("orthrus-bench: cell %s/n=%d: %w", c.protocol, c.n, err)
		}
		doc.Cells = append(doc.Cells, cell)
		if !quiet {
			tier := cell.Tier
			if tier == "" {
				tier = "base"
			}
			speedup := "-"
			if cell.ParallelNsPerOp > 0 {
				speedup = fmt.Sprintf("%.2fx/%dw", cell.ParallelSpeedup, cell.ParallelWorkers)
			}
			fmt.Fprintf(stdout, "%-8s %5d %-7s %10.0f %14d %14d %16.0f %10.1f %12s\n",
				cell.Protocol, cell.N, tier, float64(cell.NsPerOp)/1e6,
				cell.AllocsPerOp, cell.BytesPerOp, cell.SimEventsPerSec, cell.TputKTPS, speedup)
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s (%d cells, schema %s)\n", jsonPath, len(doc.Cells), perfSchema)
	if old != nil {
		compareArtifacts(stdout, old, &doc, comparePath)
	}
	return nil
}

// readPerfArtifact loads and schema-checks an orthrus-bench-perf/v2 file.
func readPerfArtifact(path string) (*perfArtifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("orthrus-bench: -compare: %w", err)
	}
	var doc perfArtifact
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("orthrus-bench: -compare %s: %w", path, err)
	}
	if doc.Schema != perfSchema {
		return nil, fmt.Errorf("orthrus-bench: -compare %s: schema %q, want %q", path, doc.Schema, perfSchema)
	}
	return &doc, nil
}

// compareArtifacts prints the per-cell deltas between two perf artifacts:
// ns/op, allocs/op and sim-events/s, as old -> new with the relative
// change. Cells present on only one side are flagged rather than dropped,
// so grid growth shows up in review.
func compareArtifacts(w io.Writer, old, new *perfArtifact, oldName string) {
	index := make(map[perfPoint]perfCell, len(old.Cells))
	for _, c := range old.Cells {
		index[perfPoint{c.Protocol, c.N, c.Tier}] = c
	}
	fmt.Fprintf(w, "\ndelta vs %s:\n", oldName)
	fmt.Fprintf(w, "%-8s %5s %24s %26s %26s\n", "proto", "n", "ms/op", "allocs/op", "sim-events/s")
	pct := func(new, old float64) string {
		if old == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", (new/old-1)*100)
	}
	for _, c := range new.Cells {
		o, ok := index[perfPoint{c.Protocol, c.N, c.Tier}]
		if !ok {
			fmt.Fprintf(w, "%-8s %5d   (new cell, no baseline)\n", c.Protocol, c.N)
			continue
		}
		delete(index, perfPoint{c.Protocol, c.N, c.Tier})
		fmt.Fprintf(w, "%-8s %5d %9.0f -> %-6.0f%7s %11d -> %-8d%7s %9.0fk -> %-7.0fk%7s\n",
			c.Protocol, c.N,
			float64(o.NsPerOp)/1e6, float64(c.NsPerOp)/1e6, pct(float64(c.NsPerOp), float64(o.NsPerOp)),
			o.AllocsPerOp, c.AllocsPerOp, pct(float64(c.AllocsPerOp), float64(o.AllocsPerOp)),
			o.SimEventsPerSec/1e3, c.SimEventsPerSec/1e3, pct(c.SimEventsPerSec, o.SimEventsPerSec))
	}
	for _, c := range old.Cells {
		if _, stale := index[perfPoint{c.Protocol, c.N, c.Tier}]; stale {
			fmt.Fprintf(w, "%-8s %5d   (baseline cell missing from this run)\n", c.Protocol, c.N)
		}
	}
}
