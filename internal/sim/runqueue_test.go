package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"lacc/internal/mem"
)

// queueOracle is the run queue's reference model: a slice of (time, id)
// entries kept sorted by time, then id.
type queueOracle []queuedEntry

type queuedEntry struct {
	now mem.Cycle
	id  int32
}

func (o *queueOracle) push(now mem.Cycle, id int32) {
	*o = append(*o, queuedEntry{now, id})
	sort.Slice(*o, func(a, b int) bool {
		x, y := (*o)[a], (*o)[b]
		return x.now < y.now || (x.now == y.now && x.id < y.id)
	})
}

func (o *queueOracle) popTop() { *o = (*o)[1:] }

// horizon is the second entry's key, or noCore with fewer than two.
func (o queueOracle) horizon() uint64 {
	if len(o) < 2 {
		return noCore
	}
	return uint64(o[1].now)<<queueIDBits | uint64(o[1].id)
}

// TestCoreQueueMatchesOracle drives seeded random push/replaceTop/popTop
// sequences through one reused coreQueue and a sorted-slice oracle,
// comparing top, horizon and emptiness after every step. The core counts
// cover one leaf, exact powers of two and padded trees; every run starts
// with all cores queued at time 0 (an all-tie queue holding id 0 and the
// largest id) and keeps clocks in a narrow window so equal-time ties stay
// common.
func TestCoreQueueMatchesOracle(t *testing.T) {
	var q coreQueue
	for _, n := range []int{1, 2, 3, 5, 64, 100, 256, 1000, 5, 1} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*7919 + int64(n)))
			q.reset(n)
			var o queueOracle
			queued := make([]bool, n)
			clock := make([]mem.Cycle, n)
			for id := 0; id < n; id++ {
				q.push(0, int32(id))
				o.push(0, int32(id))
				queued[id] = true
			}
			check := func(step int, op string) {
				t.Helper()
				if q.empty() != (len(o) == 0) {
					t.Fatalf("n=%d seed=%d step %d (%s): empty()=%v, oracle holds %d",
						n, seed, step, op, q.empty(), len(o))
				}
				if len(o) == 0 {
					return
				}
				if got, want := q.top(), int(o[0].id); got != want {
					t.Fatalf("n=%d seed=%d step %d (%s): top()=%d, oracle %d", n, seed, step, op, got, want)
				}
				if got, want := q.topTime(), o[0].now; got != want {
					t.Fatalf("n=%d seed=%d step %d (%s): topTime()=%d, oracle %d", n, seed, step, op, got, want)
				}
				if got, want := q.horizon(), o.horizon(); got != want {
					t.Fatalf("n=%d seed=%d step %d (%s): horizon()=%#x, oracle %#x", n, seed, step, op, got, want)
				}
			}
			check(0, "initial")
			for step := 1; step <= 4000; step++ {
				var op string
				switch r := rng.Intn(10); {
				case r < 6 && len(o) > 0:
					op = "replaceTop"
					id := o[0].id
					// Mostly lockstep advances of 0-1 cycles, some jumps.
					d := mem.Cycle(rng.Intn(2))
					if rng.Intn(4) == 0 {
						d = mem.Cycle(rng.Intn(64))
					}
					clock[id] = o[0].now + d
					q.replaceTop(clock[id], id)
					o.popTop()
					o.push(clock[id], id)
				case r < 8 && len(o) > 0:
					op = "popTop"
					queued[o[0].id] = false
					clock[o[0].id] = o[0].now
					q.popTop()
					o.popTop()
				default:
					op = "push"
					id := int32(rng.Intn(n))
					if queued[id] {
						continue
					}
					// Re-queue near the current front so times tie often.
					now := clock[id]
					if len(o) > 0 && o[0].now > now {
						now = o[0].now
					}
					now += mem.Cycle(rng.Intn(3))
					queued[id] = true
					clock[id] = now
					q.push(now, id)
					o.push(now, id)
				}
				check(step, op)
			}
			// Drain: pop order must be the oracle's sorted order.
			for len(o) > 0 {
				q.popTop()
				o.popTop()
				check(-1, "drain")
			}
		}
	}
}

// TestCoreQueueExtremeKeys pins the packed-key boundaries: the largest id
// at the largest legal clock still orders below an unqueued leaf, the id
// breaks a time tie, and a clock at 2^48 panics instead of wrapping into
// an earlier key.
func TestCoreQueueExtremeKeys(t *testing.T) {
	const last = MaxCores - 1
	var q coreQueue
	q.reset(MaxCores)
	q.push(maxQueueClock-1, last)
	if q.empty() || q.top() != last || q.topTime() != maxQueueClock-1 {
		t.Fatalf("largest key lost: empty=%v top=%d", q.empty(), q.top())
	}
	if q.horizon() != noCore {
		t.Fatalf("lone core's horizon = %#x, want noCore", q.horizon())
	}
	q.push(maxQueueClock-1, 0)
	if q.top() != 0 || q.horizon() != queueKey(maxQueueClock-1, last) {
		t.Fatalf("time tie not broken by id: top=%d horizon=%#x", q.top(), q.horizon())
	}

	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"push", func() { q.push(maxQueueClock, 1) }},
		// 1<<49 would shift to key 0 and jump the queue.
		{"replaceTop", func() { q.replaceTop(1<<49, 0) }},
		{"key", func() { queueKey(^mem.Cycle(0), last) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				var qe queueClockError
				if err, ok := r.(error); !ok || !errors.As(err, &qe) {
					t.Fatalf("clock past 2^48 did not trip the guard: recovered %v", r)
				}
			}()
			tc.op()
		})
	}
	// The tripped guard left the queue untouched.
	if q.top() != 0 || q.horizon() != queueKey(maxQueueClock-1, last) {
		t.Fatalf("queue changed by a rejected key: top=%d horizon=%#x", q.top(), q.horizon())
	}
}

// BenchmarkCoreQueue times one scheduler step of the engine — read the
// root core and its horizon, then re-key it at its advanced clock — under
// the re-key distributions measured on the benchmark workloads:
//
//   - lockstep64: 64 cores, 75% of re-keys advance 0-1 cycles (L1 hits
//     keep cores in lockstep), the rest 10-300 (L2 and remote hits).
//   - missSpread256: 256 cores, 83% of re-keys jump 512-8192 cycles
//     (misses to DRAM across a 16x16 mesh), the rest 0-1.
//   - uniform1024: 1024 cores, advances uniform over 0-1023.
func BenchmarkCoreQueue(b *testing.B) {
	cases := []struct {
		name  string
		cores int
		delta func(*rand.Rand) mem.Cycle
	}{
		{"lockstep64", 64, func(r *rand.Rand) mem.Cycle {
			if r.Intn(100) < 75 {
				return mem.Cycle(r.Intn(2))
			}
			return mem.Cycle(10 + r.Intn(291))
		}},
		{"missSpread256", 256, func(r *rand.Rand) mem.Cycle {
			if r.Intn(100) < 83 {
				return mem.Cycle(512 + r.Intn(8192-512+1))
			}
			return mem.Cycle(r.Intn(2))
		}},
		{"uniform1024", 1024, func(r *rand.Rand) mem.Cycle {
			return mem.Cycle(r.Intn(1024))
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			deltas := make([]mem.Cycle, 1<<12)
			for i := range deltas {
				deltas[i] = c.delta(rng)
			}
			var q coreQueue
			q.reset(c.cores)
			now := make([]mem.Cycle, c.cores)
			for id := range now {
				q.push(0, int32(id))
			}
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := q.top()
				sink ^= q.horizon()
				now[id] += deltas[i&(len(deltas)-1)]
				q.replaceTop(now[id], int32(id))
			}
			queueBenchSink = sink
		})
	}
}

// queueBenchSink keeps the benchmark's horizon reads live.
var queueBenchSink uint64
