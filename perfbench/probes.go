package main

import (
	"math/rand/v2"
	"time"

	"lacc/internal/cache"
	"lacc/internal/coherence"
	"lacc/internal/core"
	"lacc/internal/dram"
	"lacc/internal/flatmap"
	"lacc/internal/mem"
	"lacc/internal/network"
	"lacc/internal/sim"
)

// Substrate probes time calls to the exported functions of the layers
// the simulator's run loop is built from. Each probe draws its operation
// mix from the run's seed, times probeOps operations per round, and
// reports the median round in nanoseconds per operation. The run queue
// (the engine's coreQueue) is not exported, so no probe can time it from
// outside; README.md explains the proxy used instead.

// probeOps is the operation count of one timed probe round.
const probeOps = 1 << 16

// probeRounds is how many rounds each probe times.
const probeRounds = 7

// nsPerOp times fn over probeRounds rounds of n operations each and
// returns the median nanoseconds per operation.
func nsPerOp(n int, fn func()) float64 {
	rounds := make([]float64, probeRounds)
	fn() // warm caches and lazy state outside the timed rounds
	for i := range rounds {
		t0 := time.Now()
		fn()
		rounds[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(rounds)
}

// meshProbe times XY unicast (or broadcast) on a width x width mesh
// between seeded endpoints, with control- and data-sized messages.
func meshProbe(rng *rand.Rand, width int, broadcast bool) float64 {
	m := network.New(network.Config{Width: width, Height: width, HopLatency: 2})
	tiles := width * width
	n := probeOps
	if broadcast {
		n = probeOps / 16 // a broadcast visits every tile
	}
	src := make([]int, n)
	dst := make([]int, n)
	flits := make([]int, n)
	for i := range src {
		src[i], dst[i] = rng.IntN(tiles), rng.IntN(tiles)
		flits[i] = 1
		if rng.IntN(2) == 0 {
			flits[i] = 9 // a line-carrying message
		}
	}
	buf := make([]mem.Cycle, tiles)
	var now mem.Cycle
	return nsPerOp(n, func() {
		for i := range src {
			now += 3
			if broadcast {
				m.BroadcastInto(buf, src[i], 1, now)
			} else {
				m.Unicast(src[i], dst[i], flits[i], now)
			}
		}
	})
}

// dramProbe times line reads spread over the Table 1 controllers.
func dramProbe(rng *rand.Rand) float64 {
	cfg := sim.Default()
	m := dram.New(dram.Config{
		Controllers: cfg.MemControllers, LatencyCycles: cfg.DRAMLatencyCycles,
		BytesPerCycle: cfg.DRAMBytesPerCycle,
		Tiles:         dram.DefaultTiles(cfg.MemControllers, cfg.MeshWidth, cfg.Cores/cfg.MeshWidth),
	})
	ctl := make([]int, probeOps)
	for i := range ctl {
		ctl[i] = rng.IntN(cfg.MemControllers)
	}
	var now mem.Cycle
	return nsPerOp(probeOps, func() {
		for _, c := range ctl {
			now += 20
			m.Read(c, mem.LineBytes, now)
		}
	})
}

// sharerProbe times directory sharer-set updates with p pointers over a
// machine of cores tiles: seeded sharers join and leave, and a write
// (one op in 16) clears the set as an invalidation would.
func sharerProbe(rng *rand.Rand, p, cores int) float64 {
	s := coherence.NewSharerSet(p)
	member := make([]bool, cores)
	ids := make([]int, probeOps)
	for i := range ids {
		ids[i] = rng.IntN(cores)
		if rng.IntN(16) == 0 {
			ids[i] = -1
		}
	}
	return nsPerOp(probeOps, func() {
		for _, id := range ids {
			switch {
			case id < 0:
				s.Clear()
				clear(member)
			case member[id]:
				s.Remove(id)
				member[id] = false
			default:
				s.Add(id)
				member[id] = true
			}
		}
	})
}

// cacheProbes times L1-D probes that hit resident lines, and probes that
// miss followed by the insert that fills the line, on the Table 1 L1-D.
func cacheProbes(rng *rand.Rand) (hitNs, missInsertNs float64) {
	cfg := sim.Default()
	c := cache.New(cfg.L1DSizeKB*1024, cfg.L1DWays)
	lines := cfg.L1DSizeKB * 1024 / mem.LineBytes
	resident := make([]mem.Addr, lines)
	for i := range resident {
		resident[i] = mem.Addr(i) * mem.LineBytes
		c.Insert(resident[i])
	}
	hits := make([]mem.Addr, probeOps)
	for i := range hits {
		hits[i] = resident[rng.IntN(lines)]
	}
	hitNs = nsPerOp(probeOps, func() {
		for _, a := range hits {
			if c.Probe(a) == nil {
				panic("perfbench: resident line missed")
			}
		}
	})
	// Fresh addresses far above the resident set, new for every round
	// (nsPerOp runs probeRounds+1): every probe misses and every insert
	// evicts.
	next := mem.Addr(1 << 40)
	misses := make([][]mem.Addr, probeRounds+1)
	for r := range misses {
		misses[r] = make([]mem.Addr, probeOps)
		for i := range misses[r] {
			next += mem.Addr(1+rng.IntN(64)) * mem.LineBytes
			misses[r][i] = next
		}
	}
	round := 0
	missInsertNs = nsPerOp(probeOps, func() {
		for _, a := range misses[round] {
			if c.Probe(a) == nil {
				c.Insert(a)
			}
		}
		round++
	})
	return hitNs, missInsertNs
}

// classifyProbe times the locality classifier's per-access update
// (lookup plus classification) on a Limited-3 classifier of 64 cores.
func classifyProbe(rng *rand.Rand) float64 {
	cfg := sim.Default()
	cls := core.NewClassifier(cfg.Cores, cfg.ClassifierK)
	p := cfg.Protocol
	cores := make([]int, probeOps)
	util := make([]uint32, probeOps)
	for i := range cores {
		cores[i] = rng.IntN(cfg.Cores)
		util[i] = uint32(rng.IntN(2 * p.PCT))
	}
	return nsPerOp(probeOps, func() {
		for i, c := range cores {
			core.Classify(p, core.Lookup(cls, c), util[i], i&7 == 0)
		}
	})
}

// flatmapProbe times lookups into a directory-sized table: seven in
// eight hit a resident line address.
func flatmapProbe(rng *rand.Rand) float64 {
	const entries = 1 << 15
	t := flatmap.New[uint64](entries)
	for i := uint64(0); i < entries; i++ {
		*t.Slot(i * mem.LineBytes) = i
	}
	keys := make([]uint64, probeOps)
	for i := range keys {
		keys[i] = uint64(rng.IntN(entries)) * mem.LineBytes
		if i&7 == 0 {
			keys[i] += entries * mem.LineBytes
		}
	}
	var found int
	ns := nsPerOp(probeOps, func() {
		for _, k := range keys {
			if _, ok := t.Get(k); ok {
				found++
			}
		}
	})
	if found == 0 {
		panic("perfbench: flatmap probe found nothing")
	}
	return ns
}

// substrate holds one run's probe results.
type substrate struct {
	unicast8, unicast16, broadcast16, unicastOwn float64
	dramRead                                     float64
	sharerAckwise4, sharerFullmap256             float64
	probeHit, probeMissInsert                    float64
	classify, flatmapGet                         float64
}

// probeSubstrate runs every probe with a mix drawn from seed; ownWidth is
// the workload's mesh width, timed for the network share estimate.
func probeSubstrate(tr *tracer, seed uint64, ownWidth int) substrate {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	timed := func(name string, fn func()) {
		id := tr.begin("probe", name, 0, 0)
		fn()
		tr.end(id)
	}
	var s substrate
	timed("network.unicast.8x8", func() { s.unicast8 = meshProbe(rng, 8, false) })
	timed("network.unicast.16x16", func() { s.unicast16 = meshProbe(rng, 16, false) })
	timed("network.broadcast.16x16", func() { s.broadcast16 = meshProbe(rng, 16, true) })
	switch ownWidth {
	case 8:
		s.unicastOwn = s.unicast8
	case 16:
		s.unicastOwn = s.unicast16
	default:
		timed("network.unicast.own", func() { s.unicastOwn = meshProbe(rng, ownWidth, false) })
	}
	timed("dram.read", func() { s.dramRead = dramProbe(rng) })
	timed("coherence.ackwise4", func() { s.sharerAckwise4 = sharerProbe(rng, 4, 64) })
	timed("coherence.fullmap256", func() { s.sharerFullmap256 = sharerProbe(rng, 256, 256) })
	timed("cache", func() { s.probeHit, s.probeMissInsert = cacheProbes(rng) })
	timed("core.classify", func() { s.classify = classifyProbe(rng) })
	timed("flatmap.get", func() { s.flatmapGet = flatmapProbe(rng) })
	return s
}

// put stores the probe metrics into v.
func (s substrate) put(v values) {
	v["network.unicast_ns.8x8"] = s.unicast8
	v["network.unicast_ns.16x16"] = s.unicast16
	v["network.broadcast_ns.16x16"] = s.broadcast16
	v["dram.read_ns"] = s.dramRead
	v["coherence.sharer_update_ns.ackwise4"] = s.sharerAckwise4
	v["coherence.sharer_update_ns.fullmap256"] = s.sharerFullmap256
	v["cache.probe_hit_ns"] = s.probeHit
	v["cache.probe_miss_insert_ns"] = s.probeMissInsert
	v["core.classify_ns"] = s.classify
	v["flatmap.get_ns"] = s.flatmapGet
}
