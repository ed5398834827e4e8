package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
)

// manifest is the part of BENCHMARK.json the self-tests check against.
type manifest struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSmokeEmitsEveryMetric runs a shrunken variant of every workload in
// both modes and requires exactly the metrics BENCHMARK.json names, each
// with its unit, from a run that passes every correctness check. Every
// workload BENCHMARK.json lists must be one the benchmark runs.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	m := readManifest(t)
	for _, w := range m.Workloads {
		if _, ok := lookup(w.Name, true); !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark does not run", w.Name)
		}
	}
	var names []string
	for _, s := range specs(true) {
		names = append(names, s.name)
	}
	for _, w := range names {
		for _, tc := range []struct {
			trace bool
			want  []struct{ Name, Unit string }
		}{{false, m.EndToEnd}, {true, m.PerLayer}} {
			rep, err := run(options{workload: w, seed: 7, seconds: 1, trace: tc.trace, smoke: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, tc.trace, err)
			}
			if !rep.Correct {
				t.Errorf("%s trace=%v failed checks: %v", w, tc.trace, rep.problems)
			}
			if rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d transactions failed", w, tc.trace, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(tc.want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, tc.trace, len(rep.Metrics), len(tc.want))
			}
			for _, want := range tc.want {
				got, ok := rep.Metrics[want.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: missing %s", w, tc.trace, want.Name)
				case got.Unit != want.Unit:
					t.Errorf("%s trace=%v: %s in %q, BENCHMARK.json says %q", w, tc.trace, want.Name, got.Unit, want.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w, tc.trace, want.Name, got.Value)
				}
			}
			if !tc.trace {
				continue
			}
			var sum float64
			for _, l := range layers {
				sum += rep.Metrics["cpu_share."+l].Value
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: CPU shares sum to %v", w, sum)
			}
		}
	}
}

// TestSeamsAreTransparent pins that the probe's wrapped Source,
// NewGlobal and hooks change nothing a simulated run computes.
func TestSeamsAreTransparent(t *testing.T) {
	for _, s := range specs(true) {
		if s.real {
			continue // wall-clock runs never repeat exactly
		}
		for _, traced := range []bool{false, true} {
			plain := cluster.Run(s.config(3))
			p := newProbe(s.config(3), false, traced)
			wrapped := cluster.Run(p.wire(s.config(3)))
			if p.src.n == 0 || len(p.globals) != s.config(3).N || p.blocks == 0 {
				t.Fatalf("%s: probe saw %d txs, %d orderings, %d blocks", s.name, p.src.n, len(p.globals), p.blocks)
			}
			if !reflect.DeepEqual(plain, wrapped) {
				t.Errorf("%s traced=%v: wrapped run differs from the plain run:\n%v\n%v", s.name, traced, plain, wrapped)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/simnet.(*Sim).Run":                   "simnet",
		"repro/internal/core.(*Replica).onDeliver.func1":     "core",
		"repro/internal/types.(*Transaction).ID":             "types",
		"repro/internal/crypto.Sign":                         "other",
		"repro/orthrus.Run":                                  "other",
		"main.(*probe).onBlock":                              "bench",
		"runtime.mallocgc":                                   "",
		"crypto/sha256.block":                                "",
		"repro/internal/wire.(*reader).block":                "wire",
		"repro/internal/order.(*Dynamic).Deliver":            "order",
		"repro/internal/sb.(*Instance).Port.func1":           "sb",
		"repro/internal/transport.(*Node).loop":              "transport",
		"repro/internal/cluster.RunReal.func3":               "cluster",
		"repro/internal/partition.(*Set).Assign":             "partition",
		"repro/internal/workload.(*Generator).Next":          "workload",
		"repro/internal/metrics.(*Latency).Add":              "metrics",
		"repro/internal/ledger.(*Store).Escrow":              "ledger",
		"repro/internal/pbft.(*Engine).OnMessage":            "pbft",
		"repro/internal/simnet.(*wheelQueue).insert[...]":    "simnet",
		"repro/internal/simnetx.F":                           "other",
		"repro/internal/core/sub.F":                          "core",
		"repro/internal/baseline.(*RefOrderer).PendingCount": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCPUSharesOfCheckedInProfile groups a fixed CPU profile (a traced
// sim-pulse run) and pins the per-layer sample counts, which were
// cross-checked against `go tool pprof -traces` on the same file.
func TestCPUSharesOfCheckedInProfile(t *testing.T) {
	data, err := os.ReadFile("testdata/sim-pulse.cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(data)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 || len(shares) != len(layers) {
		t.Fatalf("%d shares summing to %v", len(shares), sum)
	}
	var total int64
	for _, s := range p.samples {
		total += s.value
	}
	counts := map[string]int64{}
	for l, s := range shares {
		if c := int64(math.Round(s * float64(total))); c > 0 {
			counts[l] = c
		}
	}
	want := map[string]int64{
		"bench": 18, "cluster": 1, "core": 83, "ledger": 145, "order": 7,
		"partition": 79, "runtime": 83, "sb": 90, "simnet": 116, "types": 37,
	}
	if !reflect.DeepEqual(counts, want) {
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			t.Logf("%s: %d", k, counts[k])
		}
		t.Errorf("total %d samples grouped as %v, want %v", total, counts, want)
	}
}
