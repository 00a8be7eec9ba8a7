package sim

// Shard-parallel execution engine (Config.Shards > 1): the mesh is
// partitioned into contiguous tile groups ("shards"), each drained by its
// own worker goroutine against a private run queue, with cross-shard
// scheduling traffic (barrier releases and lock grants) flowing through
// bounded per-shard FIFOs and global time kept coherent by epoch barriers
// derived from the sequential engine's horizon machinery.
//
// Execution model. Each worker owns the cores of its shard and executes
// them in local (time, id) order, exactly like the generic engine, but only
// while the earliest core stays below the global epoch horizon `epochEnd`.
// A worker whose shard has drained up to the horizon parks; when all
// workers are parked the last one advances the epoch to
// min(all runnable keys) + epochLen and wakes everyone. Synchronization
// operations (barrier, lock, unlock) are executed on the primary simulator
// under the scheduler lock, and the cores they make runnable are routed to
// the owning shard's inbox FIFO; a worker drains its inbox into its run
// queue before every scheduling decision. The FIFOs are bounded by
// construction: a core is enqueued at most once (grants only target parked
// cores, and a granted core cannot reach another sync point before its
// worker drains it), so capacity = shard size can never overflow.
//
// Shared-state discipline. Protocol transactions remain synchronous — a
// miss walks the directory at the line's home tile under that tile's
// homeMu, touching remote L1s under their per-tile l1Mu (a strict leaf:
// nothing is acquired while an l1Mu is held, and at most one homeMu is held
// at a time, so the homeMu -> l1Mu order is cycle-free). The R-NUCA page
// table is guarded by nucaMu, the classifier pool by poolMu, and all
// scheduling state (inboxes, epoch, sync primitives) by mu. The mesh link
// and DRAM queue arrays are shared between workers through atomic
// read-max-write updates (network.Mesh.Clone, dram.Model.Clone) so every
// worker observes every other's contention; traffic counters, energy
// meters and histograms are worker-private and merged after the run.
//
// Exactness. With a single worker the engine is bit-exact with the generic
// engine: the inbox round trip preserves the run queue's key set, so the
// (time, id) pop order is identical, and the deferred L1-eviction drain
// (see l1EvictNotify) runs before the next operation of the same core with
// no other core interleaved. With Shards > 1 execution is explicitly
// RELAXED: operations whose local clocks fall in the same epoch may
// interleave in wall-clock order rather than simulated-time order, so
// timing-dependent results (completion cycles, link occupancy, LRU-driven
// eviction choices) can diverge run to run within an epoch-bounded window.
// Program-determined quantities — every core's data-access count, hit or
// miss resolution of the instruction stream once warm — remain exact; the
// bounded-divergence test pins this. Relaxed mode is therefore gated: it is
// never used when CheckValues or VictimReplication is on (shardCount falls
// back to the sequential engine), and golden-table rows are always produced
// sequentially.
//
// The relaxed interleavings admit one genuinely new protocol situation: a
// core's L1 insert evicts a victim whose home-side deregistration is
// deferred, so a concurrent transaction at that home can observe a
// registered sharer whose copy is already gone. The protocol paths that
// probe remote copies tolerate exactly this (gated by Simulator.relaxed):
// an absent copy acknowledges with a clean single-flit ack and the deferred
// eviction later deregisters it guarded by a Contains check.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lacc/internal/cache"
	"lacc/internal/energy"
	"lacc/internal/mem"
	"lacc/internal/nuca"
	"lacc/internal/stats"
)

// defaultEpochCycles is the epoch length when Config.EpochCycles is 0.
const defaultEpochCycles = 8192

// paddedMutex spaces the per-tile locks across cache lines so neighboring
// tiles' locks do not false-share.
type paddedMutex struct {
	sync.Mutex
	_ [40]byte
}

// pendingEvict is an L1 eviction whose home-side notification is deferred
// until the current operation's transaction releases its home lock.
type pendingEvict struct {
	victim cache.Line
	t      mem.Cycle
}

// shardFIFO is a bounded ring of runnable-core keys: one producer side
// (any worker executing a sync op under the scheduler lock) and one
// consumer (the owning worker draining into its run queue). Capacity is
// the shard's core count; see the boundedness argument in the package
// comment. Overflow panics — it would mean a core was enqueued twice.
type shardFIFO struct {
	buf  []uint64
	head int
	size int
}

func (f *shardFIFO) init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	f.buf = make([]uint64, capacity)
	f.head, f.size = 0, 0
}

func (f *shardFIFO) push(k uint64) {
	if f.size == len(f.buf) {
		panic("sim: shard inbox overflow")
	}
	f.buf[(f.head+f.size)%len(f.buf)] = k
	f.size++
}

func (f *shardFIFO) pop() (uint64, bool) {
	if f.size == 0 {
		return 0, false
	}
	k := f.buf[f.head]
	f.head = (f.head + 1) % len(f.buf)
	f.size--
	return k, true
}

// minKey returns the smallest run-queue key currently buffered, or noCore
// when the inbox is empty.
func (f *shardFIFO) minKey() uint64 {
	k := noCore
	for i := 0; i < f.size; i++ {
		k = min(k, f.buf[(f.head+i)%len(f.buf)])
	}
	return k
}

// shardRuntime is the shared state of one sharded run. It exists only for
// the duration of runSharded; the primary simulator and every worker clone
// point at it through Simulator.sh.
type shardRuntime struct {
	prim  *Simulator
	n     int // worker count
	cores int

	// Per-tile protocol locks: homeMu serializes directory + home-L2-slice
	// transactions at a tile, l1Mu guards a tile's L1-D array and its
	// core's miss-history table (both can grow or be mutated by remote
	// invalidations). l1Mu is a strict leaf.
	homeMu []paddedMutex
	l1Mu   []paddedMutex

	// nucaMu guards the R-NUCA page table; poolMu the classifier pool.
	nucaMu sync.Mutex
	poolMu sync.Mutex

	// mu guards everything below: the inboxes, the epoch state and the
	// synchronization primitives (barrier and lock state on prim).
	mu       sync.Mutex
	cond     *sync.Cond
	inbox    []shardFIFO
	parked   int
	gen      uint64
	epochEnd mem.Cycle
	finished bool
	err      error

	workers  []*Simulator
	epochLen mem.Cycle
	relaxed  bool

	// aborted lets workers mid-epoch notice a sibling's failure without
	// taking mu on the hot path.
	aborted atomic.Bool
}

// shardOf maps a core id to its owning shard (contiguous groups).
func (sh *shardRuntime) shardOf(id int) int { return id * sh.n / sh.cores }

// fail records the first error and wakes every worker. Must not be called
// with mu held.
func (sh *shardRuntime) fail(err error) {
	sh.aborted.Store(true)
	sh.mu.Lock()
	if sh.err == nil {
		sh.err = err
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// advanceLocked moves the epoch horizon to min(all runnable keys) +
// epochLen, or marks the run finished when no core is runnable anywhere.
// Caller holds mu with every worker parked; the advance releases the whole
// rendezvous, so parked resets to zero here — waiters must not decrement
// it again on a generation change (see runWorker).
func (sh *shardRuntime) advanceLocked() {
	sh.parked = 0
	k := noCore
	for i, w := range sh.workers {
		k = min(k, w.runQ.topKey(), sh.inbox[i].minKey())
	}
	if k == noCore {
		sh.finished = true
		sh.cond.Broadcast()
		return
	}
	sh.epochEnd = mem.Cycle(k>>queueIDBits) + sh.epochLen
	sh.gen++
	sh.cond.Broadcast()
}

// runWorker is one shard's scheduling loop: drain the inbox, run the shard
// up to the epoch horizon, park, and rendezvous to advance the epoch. The
// locked sections are deliberately free of code that can panic; the
// protocol work that can (runEpoch) runs unlocked, so the recovery path
// can always take mu.
func (sh *shardRuntime) runWorker(w *Simulator) {
	defer func() {
		if r := recover(); r != nil {
			sh.fail(fmt.Errorf("sim: shard %d: %v", w.shardIdx, r))
		}
	}()
	sh.mu.Lock()
	for {
		w.drainInbox()
		if sh.err != nil || sh.finished {
			sh.mu.Unlock()
			return
		}
		if !w.runQ.empty() && w.runQ.topTime() < sh.epochEnd {
			end := sh.epochEnd
			sh.mu.Unlock()
			err := w.runEpoch(end)
			sh.mu.Lock()
			if err != nil && sh.err == nil {
				sh.err = err
				sh.cond.Broadcast()
			}
			continue
		}
		gen := sh.gen
		sh.parked++
		if sh.parked == sh.n {
			// Last to park: advance the horizon (or finish). advanceLocked
			// resets parked for the whole rendezvous — the still-waking
			// waiters must not be double-counted when this worker parks
			// again before they re-acquire mu.
			sh.advanceLocked()
			continue
		}
		for sh.err == nil && !sh.finished && gen == sh.gen && w.inboxEmpty() {
			sh.cond.Wait()
		}
		if gen == sh.gen {
			// Left the rendezvous without an epoch advance (inbox grant,
			// failure or finish): withdraw this worker's parked count. On a
			// generation change the advancer already reset it.
			sh.parked--
		}
	}
}

// drainInbox moves granted cores from the shard's inbox into its run
// queue. Caller holds sh.mu.
func (w *Simulator) drainInbox() {
	box := &w.sh.inbox[w.shardIdx]
	for {
		k, ok := box.pop()
		if !ok {
			return
		}
		w.runQ.set(int32(k&queueIDMask), k)
	}
}

// inboxEmpty reports whether the worker's inbox is empty. Caller holds
// sh.mu.
func (w *Simulator) inboxEmpty() bool { return w.sh.inbox[w.shardIdx].size == 0 }

// runEpoch executes the worker's shard in local (time, id) order while the
// earliest core stays below the epoch horizon. It mirrors runGeneric
// operation for operation; synchronization operations and retirements can
// grant cores into the worker's own inbox, so the loop returns to the
// scheduling loop after each to keep the run queue's key set complete —
// with one worker this makes the pop order bit-identical to the generic
// engine.
func (w *Simulator) runEpoch(end mem.Cycle) error {
	sh := w.sh
	for !w.runQ.empty() {
		if w.runQ.topTime() >= end || sh.aborted.Load() {
			return nil
		}
		id := w.runQ.top()
		c := &w.cores[id]
		a, ok := c.next()
		if !ok {
			w.shardRetire(c)
			return nil
		}
		if a.Gap > 0 {
			c.now += mem.Cycle(a.Gap)
			c.bd.Compute += float64(a.Gap)
		}
		switch a.Kind {
		case mem.Read, mem.Write:
			w.instrFetch(c, a.Gap)
			w.proto.DataAccess(c, a.Kind, a.Addr)
			w.drainPendingEvicts(c)
			w.runQ.replaceTop(c.now, int32(id))
		default:
			if err := w.shardSyncOp(c, a); err != nil {
				return err
			}
			return nil
		}
	}
	return nil
}

// withSync runs fn on the primary simulator under the scheduler lock; the
// deferred unlock keeps a panicking sync primitive from wedging siblings.
func (w *Simulator) withSync(fn func(prim *Simulator)) {
	sh := w.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fn(sh.prim)
}

// shardRetire retires the shard's earliest core: its exit can complete a
// barrier, so the release runs on the primary under the scheduler lock.
func (w *Simulator) shardRetire(c *coreState) {
	w.runQ.popTop()
	w.withSync(func(prim *Simulator) {
		c.done = true
		prim.maybeReleaseBarrier()
	})
}

// shardSyncOp executes a non-data operation. The primitives mutate shared
// barrier/lock state and re-queue granted cores through enqueueRunnable,
// which routes them to the owning shard's inbox.
func (w *Simulator) shardSyncOp(c *coreState, a mem.Access) error {
	if a.Kind == mem.Barrier || a.Kind == mem.Lock {
		// Self-invalidating protocols shed state before the primitive runs
		// (see syncSelfInvalidator). The hook takes per-tile protocol locks,
		// so it must run before withSync acquires the scheduler lock.
		if si, ok := w.proto.(syncSelfInvalidator); ok {
			si.syncSelfInvalidate(c)
		}
	}
	switch a.Kind {
	case mem.Barrier:
		w.runQ.popTop()
		w.withSync(func(prim *Simulator) { prim.barrierArrive(c, a.Addr) })
	case mem.Lock:
		w.runQ.popTop() // lockAcquire re-queues the core when granted
		w.withSync(func(prim *Simulator) { prim.lockAcquire(c, uint64(a.Addr)) })
	case mem.Unlock:
		w.withSync(func(prim *Simulator) { prim.lockRelease(c, uint64(a.Addr)) })
		w.runQ.replaceTop(c.now, int32(c.id))
	default:
		return fmt.Errorf("sim: core %d emitted unknown op %v", c.id, a.Kind)
	}
	return nil
}

// shardCount returns the worker count the configuration may run with: the
// relaxed parallel engine is never used for the reference or
// forced-generic cores, under the functional checker, or with victim
// replication (whose replica paths are deliberately lock-free).
func (s *Simulator) shardCount() int {
	n := s.cfg.Shards
	if n <= 1 || s.reference || s.forceGeneric || s.cfg.CheckValues || s.cfg.VictimReplication {
		return 1
	}
	if n > s.cfg.Cores {
		n = s.cfg.Cores
	}
	return n
}

// runSharded executes the run queue with n shard workers. n == 1 is the
// deterministic degenerate case used by the differential tests.
func (s *Simulator) runSharded(n int) error {
	epochLen := mem.Cycle(s.cfg.EpochCycles)
	if epochLen == 0 {
		epochLen = defaultEpochCycles
	}
	sh := &shardRuntime{
		prim:     s,
		n:        n,
		cores:    s.cfg.Cores,
		homeMu:   make([]paddedMutex, s.cfg.Cores),
		l1Mu:     make([]paddedMutex, s.cfg.Cores),
		inbox:    make([]shardFIFO, n),
		workers:  make([]*Simulator, n),
		epochLen: epochLen,
		relaxed:  n > 1,
	}
	sh.cond = sync.NewCond(&sh.mu)

	// The primary carries the runtime pointer from here on: clones inherit
	// it, and the sync primitives executing on the primary route grants
	// through it.
	s.sh = sh
	defer func() { s.sh = nil }()

	counts := make([]int, n)
	for id := 0; id < s.cfg.Cores; id++ {
		counts[sh.shardOf(id)]++
	}
	for i := 0; i < n; i++ {
		sh.inbox[i].init(counts[i])
		sh.workers[i] = s.cloneForWorker(i)
	}
	for !s.runQ.empty() {
		id := int32(s.runQ.top())
		sh.workers[sh.shardOf(int(id))].runQ.set(id, s.runQ.topKey())
		s.runQ.popTop()
	}

	var wg sync.WaitGroup
	for _, w := range sh.workers {
		wg.Add(1)
		go func(w *Simulator) {
			defer wg.Done()
			sh.runWorker(w)
		}(w)
	}
	wg.Wait()

	for _, w := range sh.workers {
		s.mergeWorker(w)
	}
	return sh.err
}

// cloneForWorker builds one worker's view of the machine: a shallow copy
// sharing the tiles, cores, page table, locks and classifier pool, with
// private traffic counters, scratch buffers and run queue, and
// concurrency-safe handles onto the shared mesh links and DRAM queues.
func (s *Simulator) cloneForWorker(idx int) *Simulator {
	w := &Simulator{}
	*w = *s
	w.shardIdx = idx
	w.meter = energy.Meter{}
	w.invalHist = stats.UtilizationHistogram{}
	w.evictHist = stats.UtilizationHistogram{}
	w.promotions, w.demotions = 0, 0
	w.wordReads, w.wordWrites = 0, 0
	w.invalidations, w.bcastInvals = 0, 0
	w.selfInvals = 0
	w.replicaHits, w.replicaInserts, w.replicaEvictions = 0, 0, 0
	w.idScratch = nil
	w.bcastInval, w.bcastEvict = nil, nil
	w.pendEvict = nil
	w.runQ = coreQueue{} // drop the primary's tree storage before sizing
	w.runQ.reset(s.cfg.Cores)
	w.mesh = s.mesh.Clone()
	w.dram = s.dram.Clone()
	// The protocol is rebuilt bound to the worker so its counter writes hit
	// worker-private state; the adaptive factory sees the shared pool
	// pointer and keeps it.
	w.proto = newProtocol(w)
	return w
}

// mergeWorker folds a worker's private counters back into the primary.
func (s *Simulator) mergeWorker(w *Simulator) {
	s.meter.Add(w.meter)
	s.invalHist.Add(w.invalHist)
	s.evictHist.Add(w.evictHist)
	s.promotions += w.promotions
	s.demotions += w.demotions
	s.wordReads += w.wordReads
	s.wordWrites += w.wordWrites
	s.invalidations += w.invalidations
	s.bcastInvals += w.bcastInvals
	s.selfInvals += w.selfInvals
	s.replicaHits += w.replicaHits
	s.replicaInserts += w.replicaInserts
	s.replicaEvictions += w.replicaEvictions
	s.mesh.AddCounters(w.mesh)
	s.dram.AddCounters(w.dram)
	if wd, ok := w.proto.(*dragonProtocol); ok {
		if sd, ok := s.proto.(*dragonProtocol); ok {
			sd.updates += wd.updates
		}
	}
	if wh, ok := w.proto.(*hybridProtocol); ok {
		if sht, ok := s.proto.(*hybridProtocol); ok {
			sht.updates += wh.updates
		}
	}
}

// enqueueRunnable re-queues a core the synchronization primitives made
// runnable: directly onto the run queue in the sequential engines, or into
// the owning shard's inbox (waking its worker) in the sharded engine.
// Sharded callers hold sh.mu.
func (s *Simulator) enqueueRunnable(now mem.Cycle, id int32) {
	if s.sh == nil {
		s.runQ.push(now, id)
		return
	}
	s.sh.inbox[s.sh.shardOf(int(id))].push(queueKey(now, id))
	s.sh.cond.Broadcast()
}

// Lock gates. All are no-ops in the sequential engines (sh == nil), so the
// protocol code is annotated with its locking discipline at zero cost to
// the default path.

func (s *Simulator) lockHome(home int) {
	if s.sh != nil {
		s.sh.homeMu[home].Lock()
	}
}

func (s *Simulator) unlockHome(home int) {
	if s.sh != nil {
		s.sh.homeMu[home].Unlock()
	}
}

func (s *Simulator) lockL1(id int) {
	if s.sh != nil {
		s.sh.l1Mu[id].Lock()
	}
}

func (s *Simulator) unlockL1(id int) {
	if s.sh != nil {
		s.sh.l1Mu[id].Unlock()
	}
}

// relaxed reports whether the tolerant multi-worker protocol paths are
// active. False for the sequential engines and the single-worker sharded
// engine, whose execution is bit-exact and must keep the strict panics.
func (s *Simulator) relaxed() bool { return s.sh != nil && s.sh.relaxed }

// setHistory records a miss-history transition for core id under its
// history lock.
func (s *Simulator) setHistory(id int, la mem.Addr, v uint8) {
	s.lockL1(id)
	s.cores[id].history.set(la, v)
	s.unlockL1(id)
}

// dataHome is the locked R-NUCA lookup: the placement's reclassification
// scratch is shared, so it is copied into worker-private storage before
// the page-table lock is released.
func (s *Simulator) dataHome(addr mem.Addr, requester int) (int, *nuca.Reclassification) {
	if s.sh == nil {
		return s.nuca.DataHome(addr, requester)
	}
	s.sh.nucaMu.Lock()
	home, recl := s.nuca.DataHome(addr, requester)
	if recl != nil {
		s.reclScratch = *recl
		recl = &s.reclScratch
	}
	s.sh.nucaMu.Unlock()
	return home, recl
}

// l1EvictNotify dispatches a displaced L1 victim's home-side notification.
// The sequential engines run it synchronously; the sharded engine defers
// it to drainPendingEvicts, because the insert site holds the granting
// home's lock and the victim's home may be any other tile (taking a second
// homeMu would admit lock-order cycles). Deferral is behavior-preserving
// for the single-worker engine: the reply time handed to the victim
// notification is computed before the insert, and nothing between the
// insert and the drain touches the victim's home-side state.
func (s *Simulator) l1EvictNotify(p Protocol, c *coreState, victim cache.Line, t mem.Cycle) {
	if s.sh == nil {
		p.L1Evict(c, victim, t)
		return
	}
	s.pendEvict = append(s.pendEvict, pendingEvict{victim: victim, t: t})
}

// drainPendingEvicts delivers deferred eviction notifications, each under
// its victim's home lock. L1Evict implementations must not take home locks
// internally — the drain provides the one they need.
func (s *Simulator) drainPendingEvicts(c *coreState) {
	if len(s.pendEvict) == 0 {
		return
	}
	for i := 0; i < len(s.pendEvict); i++ {
		pe := s.pendEvict[i]
		home := int(pe.victim.Home)
		s.lockHome(home)
		s.proto.L1Evict(c, pe.victim, pe.t)
		s.unlockHome(home)
	}
	s.pendEvict = s.pendEvict[:0]
}
