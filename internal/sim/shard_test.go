package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lacc/internal/mem"
)

// runProgramSharded executes prog on a fast-layout simulator pinned to the
// shard-parallel engine with the requested worker count (forceSharded
// bypasses shardCount's CheckValues/VictimReplication gate, so the
// deterministic single-worker configuration can be differentially compared
// with full value checking on).
func runProgramSharded(t *testing.T, cfg Config, shards int, prog [][]mem.Access) (*Simulator, *Result) {
	t.Helper()
	cfg.Shards = shards
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.forceSharded = true
	res, err := s.Run(sliceStreams(prog))
	if err != nil {
		t.Fatalf("sharded engine (%d shards): %v", shards, err)
	}
	return s, res
}

// TestEngineShardedVsGeneric is the sharded engine's equivalence property:
// with a single worker the shard scheduler — epoch barriers, the inbox
// FIFO for sync grants, deferred L1 eviction drains and the per-structure
// locking — must reproduce the generic engine bit for bit, for every
// protocol, geometry and workload shape. One worker makes the epoch
// machinery's scheduling decisions deterministic (the worker's run queue
// is the global queue), so any divergence is a real reordering or a
// tolerant path misfiring, not scheduler noise.
func TestEngineShardedVsGeneric(t *testing.T) {
	protocols := []struct {
		name string
		mut  func(*Config)
	}{
		{"adaptive", func(c *Config) {}},
		{"adaptive-timestamp", func(c *Config) { c.Protocol.UseTimestamp = true }},
		{"adaptive-victim-replication", func(c *Config) { c.VictimReplication = true }},
		{"mesi", func(c *Config) { c.ProtocolKind = ProtocolMESI }},
		{"dragon", func(c *Config) { c.ProtocolKind = ProtocolDragon }},
		{"dls", func(c *Config) { c.ProtocolKind = ProtocolDLS }},
		{"neat", func(c *Config) { c.ProtocolKind = ProtocolNeat }},
		{"hybrid", func(c *Config) { c.ProtocolKind = ProtocolHybrid }},
	}
	geometries := []struct {
		name string
		mut  func(*Config)
	}{
		{"4core-2x2", func(c *Config) {}},
		{"8core-4x2", func(c *Config) {
			c.Cores, c.MeshWidth, c.MemControllers = 8, 4, 4
		}},
		{"2core-2x1", func(c *Config) {
			c.Cores, c.MeshWidth, c.MemControllers = 2, 2, 2
		}},
		// Not a power of two: the run queue's tree carries padding leaves.
		{"12core-6x2", func(c *Config) {
			c.Cores, c.MeshWidth, c.MemControllers = 12, 6, 4
		}},
	}
	programs := []struct {
		name  string
		build func(*rand.Rand, int) [][]mem.Access
	}{
		{"mixed", buildRandomProgram},
		{"lock-heavy", buildLockHeavyProgram},
		{"barrier-heavy", buildBarrierHeavyProgram},
	}
	for _, p := range protocols {
		for _, g := range geometries {
			for _, w := range programs {
				p, g, w := p, g, w
				t.Run(p.name+"/"+g.name+"/"+w.name, func(t *testing.T) {
					t.Parallel()
					cfg := diffConfig()
					g.mut(&cfg)
					p.mut(&cfg)
					prog := w.build(rand.New(rand.NewSource(11)), cfg.Cores)

					shardedSim, shardedRes := runProgramSharded(t, cfg, 1, prog)
					genericSim, genericRes := runProgramGeneric(t, cfg, prog)
					compareStates(t, "sharded vs generic", shardedSim, shardedRes, genericSim, genericRes)
				})
			}
		}
	}
}

// TestEngineShardedEpochLengths pins that the epoch length is a pure
// scheduling knob: with one worker, any epoch granularity — including a
// pathological 1-cycle epoch that forces an advance per operation — still
// reproduces the generic engine exactly.
func TestEngineShardedEpochLengths(t *testing.T) {
	for _, epoch := range []int{1, 64, 1 << 20} {
		epoch := epoch
		t.Run(fmt.Sprintf("epoch%d", epoch), func(t *testing.T) {
			t.Parallel()
			cfg := diffConfig()
			cfg.EpochCycles = epoch
			prog := buildRandomProgram(rand.New(rand.NewSource(17)), cfg.Cores)

			shardedSim, shardedRes := runProgramSharded(t, cfg, 1, prog)
			genericSim, genericRes := runProgramGeneric(t, cfg, prog)
			compareStates(t, "sharded vs generic", shardedSim, shardedRes, genericSim, genericRes)
		})
	}
}

// TestEngineShardedParallel exercises the genuinely concurrent
// configuration (relaxed mode). Multi-worker runs are not bit-exact — home
// transactions from different shards serialize in lock-acquisition order,
// which perturbs timing — so this test asserts the bounded-divergence
// contract instead:
//
//   - the run completes without error under every protocol,
//   - program-determined counts are exact: every data access retires
//     exactly once, and instruction-fetch outcomes (per-core L1I state is
//     never shared) match the sequential run,
//   - timing and traffic stay within a generous band of the sequential
//     run (they measure the same program through the same machine; only
//     transaction interleaving differs).
//
// Run with -race in CI: this is also the data-race proof for the shard
// runtime's locking discipline.
func TestEngineShardedParallel(t *testing.T) {
	protocols := []struct {
		name string
		mut  func(*Config)
	}{
		{"adaptive", func(c *Config) {}},
		{"adaptive-timestamp", func(c *Config) { c.Protocol.UseTimestamp = true }},
		{"mesi", func(c *Config) { c.ProtocolKind = ProtocolMESI }},
		{"dragon", func(c *Config) { c.ProtocolKind = ProtocolDragon }},
		{"dls", func(c *Config) { c.ProtocolKind = ProtocolDLS }},
		{"neat", func(c *Config) { c.ProtocolKind = ProtocolNeat }},
		{"hybrid", func(c *Config) { c.ProtocolKind = ProtocolHybrid }},
	}
	programs := []struct {
		name  string
		build func(*rand.Rand, int) [][]mem.Access
	}{
		{"mixed", buildRandomProgram},
		{"lock-heavy", buildLockHeavyProgram},
		{"barrier-heavy", buildBarrierHeavyProgram},
	}
	for _, p := range protocols {
		for _, w := range programs {
			for _, shards := range []int{2, 4} {
				p, w, shards := p, w, shards
				t.Run(fmt.Sprintf("%s/%s/%dshards", p.name, w.name, shards), func(t *testing.T) {
					t.Parallel()
					cfg := diffConfig()
					cfg.Cores, cfg.MeshWidth, cfg.MemControllers = 8, 4, 4
					p.mut(&cfg)
					// Relaxed mode never runs the value checker (stale data
					// reads are expected divergence, not defects).
					cfg.CheckValues = false
					prog := w.build(rand.New(rand.NewSource(23)), cfg.Cores)

					_, seqRes := runProgram(t, cfg, false, prog)
					_, shRes := runProgramSharded(t, cfg, shards, prog)

					if shRes.DataAccesses != seqRes.DataAccesses {
						t.Errorf("DataAccesses diverged: sharded %d, sequential %d",
							shRes.DataAccesses, seqRes.DataAccesses)
					}
					if shRes.L1IHits != seqRes.L1IHits || shRes.L1IMisses != seqRes.L1IMisses {
						t.Errorf("L1I outcomes diverged: sharded %d/%d, sequential %d/%d",
							shRes.L1IHits, shRes.L1IMisses, seqRes.L1IHits, seqRes.L1IMisses)
					}
					inBand := func(name string, got, want uint64) {
						if want == 0 {
							return
						}
						if got*2 < want || got > want*2 {
							t.Errorf("%s outside divergence band: sharded %d, sequential %d",
								name, got, want)
						}
					}
					inBand("CompletionCycles", uint64(shRes.CompletionCycles), uint64(seqRes.CompletionCycles))
					inBand("LinkFlits", shRes.LinkFlits, seqRes.LinkFlits)
					inBand("DRAMReads", shRes.DRAMReads, seqRes.DRAMReads)
				})
			}
		}
	}
}

// TestShardedResetReuse pins that a simulator that ran sharded can be
// Reset and reused — sequentially or sharded again — without residue from
// the worker clones (merged counters, drained inboxes, cleared pending
// evictions, the run queue handed to and emptied by the workers), on a
// power-of-two machine and on one whose run-queue tree has padding leaves.
func TestShardedResetReuse(t *testing.T) {
	odd := diffConfig()
	odd.Cores, odd.MeshWidth, odd.MemControllers = 12, 6, 4
	for _, cfg := range []Config{diffConfig(), odd} {
		cfg := cfg
		t.Run(fmt.Sprintf("%dcores", cfg.Cores), func(t *testing.T) {
			prog := buildRandomProgram(rand.New(rand.NewSource(29)), cfg.Cores)

			freshSim, freshRes := runProgram(t, cfg, false, prog)

			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.forceSharded = true
			cfgSharded := cfg
			cfgSharded.Shards = 1
			if err := s.Reset(cfgSharded); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(sliceStreams(prog)); err != nil {
				t.Fatal(err)
			}

			// Back to the sequential engine: bit-identical to a fresh simulator.
			s.forceSharded = false
			if err := s.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(sliceStreams(prog))
			if err != nil {
				t.Fatal(err)
			}
			compareStates(t, "reset after sharded run", s, res, freshSim, freshRes)
		})
	}
}

// TestConfigLimits is the table-driven boundary test for the packed-width
// validation: core counts must fit the int16 tile ids used by directory
// owner/sharer state (and the int32 run-queue ids), shard counts must stay
// within [0, Cores], and epoch lengths must be non-negative.
func TestConfigLimits(t *testing.T) {
	valid := func(cores, width, mcs int) Config {
		cfg := Default()
		cfg.Cores, cfg.MeshWidth, cfg.MemControllers = cores, width, mcs
		return cfg
	}
	tests := []struct {
		name      string
		mut       func(*Config)
		wantErr   bool
		wantLimit bool
	}{
		// 32767 = 7 * 31 * 151, so MeshWidth 7 satisfies divisibility at the
		// exact MaxCores boundary; one more core overflows the int16 tile
		// ids packed through the directory and cache lines.
		{"max-cores-ok", func(c *Config) { *c = valid(1<<15-1, 7, 7) }, false, false},
		{"cores-overflow", func(c *Config) { *c = valid(1<<15, 8, 8) }, true, true},
		{"shards-negative", func(c *Config) { c.Shards = -1 }, true, false},
		{"shards-exceed-cores", func(c *Config) { c.Shards = c.Cores + 1 }, true, true},
		{"shards-equal-cores", func(c *Config) { c.Shards = c.Cores }, false, false},
		{"epoch-negative", func(c *Config) { c.EpochCycles = -1 }, true, false},
		{"epoch-zero-default", func(c *Config) { c.EpochCycles = 0 }, false, false},
		{"shards-with-checkvalues", func(c *Config) {
			// Accepted: the value checker forces the sequential engine, it
			// does not reject the config.
			c.Shards = 4
			c.CheckValues = true
		}, false, false},
		// Unsupported feature combos reject through the typed FeatureError
		// path (not LimitError): victim replication is adaptive-only.
		{"victim-replication-dls", func(c *Config) {
			c.ProtocolKind = ProtocolDLS
			c.VictimReplication = true
		}, true, false},
		{"victim-replication-neat", func(c *Config) {
			c.ProtocolKind = ProtocolNeat
			c.VictimReplication = true
		}, true, false},
		{"victim-replication-hybrid", func(c *Config) {
			c.ProtocolKind = ProtocolHybrid
			c.VictimReplication = true
		}, true, false},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.wantErr && err == nil {
				t.Fatal("Validate accepted an out-of-range config")
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("Validate rejected a valid config: %v", err)
			}
			var le *LimitError
			if got := errors.As(err, &le); got != tc.wantLimit {
				t.Fatalf("LimitError presence = %v, want %v (err: %v)", got, tc.wantLimit, err)
			}
			if le != nil && le.Error() == "" {
				t.Fatal("empty LimitError message")
			}
		})
	}
}

// TestShardOfPartition pins the contiguous tile-group partition: every
// core maps to exactly one shard, shards are contiguous, non-empty and
// balanced to within one core.
func TestShardOfPartition(t *testing.T) {
	for _, tc := range []struct{ cores, shards int }{
		{4, 2}, {8, 3}, {16, 4}, {7, 7}, {256, 16}, {5, 2},
	} {
		sh := &shardRuntime{n: tc.shards, cores: tc.cores}
		counts := make([]int, tc.shards)
		last := 0
		for id := 0; id < tc.cores; id++ {
			g := sh.shardOf(id)
			if g < 0 || g >= tc.shards {
				t.Fatalf("%d cores/%d shards: core %d mapped to %d", tc.cores, tc.shards, id, g)
			}
			if g < last {
				t.Fatalf("%d cores/%d shards: non-contiguous partition at core %d", tc.cores, tc.shards, id)
			}
			last = g
			counts[g]++
		}
		min, max := tc.cores, 0
		for g, n := range counts {
			if n == 0 {
				t.Fatalf("%d cores/%d shards: shard %d empty", tc.cores, tc.shards, g)
			}
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
			_ = g
		}
		if max-min > 1 {
			t.Fatalf("%d cores/%d shards: unbalanced partition %v", tc.cores, tc.shards, counts)
		}
	}
}
