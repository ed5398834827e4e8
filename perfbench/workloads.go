package main

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// accounts is the account population of every workload.
const accounts = 4000

// spec is one benchmark workload: the cluster configuration of a measured
// run and of a warm-up run, both derived from the seed alone.
type spec struct {
	name string
	// real selects cluster.RunReal on the in-process Proc transport;
	// otherwise cluster.Run drives the discrete-event simulator, which is
	// single-threaded and runs with GOMAXPROCS 1 (see README.md).
	real bool
	// config returns the measured run's configuration. The program sees
	// the seed only through it: the generator seed and the simulator seed.
	config func(seed int64) cluster.Config
}

// warmup shortens a measured configuration into the set-up run that
// fills pools and caches before timing starts.
func (s spec) warmup(seed int64) cluster.Config {
	cfg := s.config(seed)
	cfg.Duration /= 4
	cfg.Warmup /= 4
	cfg.Drain /= 2
	return cfg
}

// specs lists the workloads in BENCHMARK.json order. smoke shrinks each
// one to a sub-second variant with the same shape, for the self-tests.
// README.md records why each workload was chosen.
func specs(smoke bool) []spec {
	return []spec{
		{name: "sim-msg", config: func(seed int64) cluster.Config {
			cfg := cluster.Config{
				N:        50,
				Protocol: core.OrthrusMode(),
				Net:      cluster.WAN,
				Workload: workload.Config{Accounts: accounts, Seed: seed},
				LoadTPS:  500,
				Duration: 3 * time.Second, Warmup: 500 * time.Millisecond, Drain: 1500 * time.Millisecond,
				BatchSize: 1024, BatchTimeout: 250 * time.Millisecond, EpochLen: 128,
				Seed: seed, CaptureState: true,
			}
			if smoke {
				cfg.N, cfg.LoadTPS, cfg.Duration = 4, 200, time.Second
			}
			return cfg
		}},
		{name: "sim-pulse", config: func(seed int64) cluster.Config {
			// n=100 rather than 250: at 250 replicas the run's ~460 MB heap
			// made its speed follow neighbouring cache and memory load on a
			// shared host (README.md, "Steadiness").
			cfg := cluster.Config{
				N:          100,
				Protocol:   core.OrthrusMode(),
				Net:        cluster.WAN,
				AnalyticSB: true,
				Workload:   workload.Config{Accounts: accounts, Seed: seed, PaymentFraction: 0.10},
				LoadTPS:    1000,
				Duration:   3 * time.Second, Warmup: 500 * time.Millisecond, Drain: 1500 * time.Millisecond,
				BatchSize: 4096, BatchTimeout: 500 * time.Millisecond, EpochLen: 1024,
				Seed: seed, CaptureState: true,
			}
			if smoke {
				cfg.N, cfg.LoadTPS, cfg.Duration = 10, 200, time.Second
			}
			return cfg
		}},
		{name: "real-proc", real: true, config: func(seed int64) cluster.Config {
			cfg := cluster.Config{
				N:        4,
				Protocol: core.OrthrusMode(),
				Net:      cluster.LAN, // a label only: RunReal injects no delay
				Workload: workload.Config{Accounts: accounts, Seed: seed},
				LoadTPS:  16000,
				Duration: 2 * time.Second, Warmup: 500 * time.Millisecond, Drain: 2 * time.Second,
				BatchSize: 1024, BatchTimeout: 20 * time.Millisecond, EpochLen: 128,
				Seed: seed, CaptureState: true,
			}
			if smoke {
				cfg.LoadTPS, cfg.Duration = 2000, time.Second
			}
			return cfg
		}},
	}
}

// lookup returns the named workload.
func lookup(name string, smoke bool) (spec, bool) {
	for _, s := range specs(smoke) {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}
