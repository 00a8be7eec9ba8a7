package sim

// The execution engine: the run loop that drains the per-core run queue.
//
// Two formulations coexist. runGeneric is the reference: one operation per
// run-queue re-key, protocol dispatch through the Protocol interface — the loop
// as originally written, kept verbatim as the semantic baseline the
// differential tests replay against (TestEngineBatchedVsGeneric).
//
// The fast engine (runAdaptive/runMESI/runDragon/runDLS/runNeat/runHybrid)
// applies two transforms that leave the execution order provably unchanged:
//
//   - Horizon batching. The outer loop snapshots the run queue's second
//     smallest key (coreQueue.horizon: the minimum over the siblings on
//     the root core's tree path). While the root core's packed (time, id)
//     key stays strictly below that horizon it is still the global
//     minimum — nothing else touches the queue during data accesses, so
//     the other keys are frozen — and the pop/push formulation would pick
//     it again. The inner loop therefore retires an entire run of the root
//     core's accesses without touching the queue, re-keying once when the
//     core crosses the horizon. Synchronization operations (barrier, lock,
//     unlock) and stream exhaustion reshape the queue, so they end the
//     batch and fall back to the shared slow-path helpers.
//
//   - Monomorphic dispatch. Run type-switches once on the configured
//     protocol and enters a loop specialized to its concrete type, so the
//     per-access Protocol.DataAccess interface call (and the nested
//     protocolCore.missPath dispatch) become direct calls. The L1-hit fast
//     path — tag probe via the core's MRU line hint, then the shared
//     protocol-neutral hit epilogue — is inlined into the loop body;
//     anything else falls into the protocol's full missPath transaction.
//
// The six monomorphic loops are intentionally identical source text
// modulo the protocol type; keep them in sync with each other and with
// runGeneric + dataAccess (protocol.go). Externally registered protocols
// and the reference core run the generic loop.

import (
	"fmt"

	"lacc/internal/mem"
)

// runEngine drains the run queue, dispatching to the engine matching the
// configured protocol.
func (s *Simulator) runEngine() error {
	if s.forceSharded {
		n := s.cfg.Shards
		if n < 1 {
			n = 1
		}
		if n > s.cfg.Cores {
			n = s.cfg.Cores
		}
		return s.runSharded(n)
	}
	if n := s.shardCount(); n > 1 {
		return s.runSharded(n)
	}
	if s.reference || s.forceGeneric {
		return s.runGeneric()
	}
	switch p := s.proto.(type) {
	case *adaptiveProtocol:
		return s.runAdaptive(p)
	case *mesiProtocol:
		return s.runMESI(p)
	case *dragonProtocol:
		return s.runDragon(p)
	case *dlsProtocol:
		return s.runDLS(p)
	case *neatProtocol:
		return s.runNeat(p)
	case *hybridProtocol:
		return s.runHybrid(p)
	default:
		return s.runGeneric()
	}
}

// runGeneric is the reference engine: the globally earliest core executes
// one operation as an atomic transaction, then is re-keyed at its advanced
// clock. The core stays at the queue root while it executes (nothing else
// touches the queue mid-transaction), so the requeue is a replaceTop — one
// leaf write and a fixed-depth replay — instead of a pop+push pair. Keys
// are unique ((time, id) with ids distinct), so the execution order is
// identical to the pop+push formulation.
func (s *Simulator) runGeneric() error {
	for !s.runQ.empty() {
		id := s.runQ.top()
		c := &s.cores[id]
		a, ok := c.next()
		if !ok {
			s.retireTop(c)
			continue
		}
		if a.Gap > 0 {
			c.now += mem.Cycle(a.Gap)
			c.bd.Compute += float64(a.Gap)
		}
		switch a.Kind {
		case mem.Read, mem.Write:
			s.instrFetch(c, a.Gap)
			s.proto.DataAccess(c, a.Kind, a.Addr)
			s.runQ.replaceTop(c.now, int32(id))
		default:
			if err := s.syncOp(c, a); err != nil {
				return err
			}
		}
	}
	return nil
}

// retireTop marks the root core's stream exhausted and removes it,
// releasing a barrier its exit may complete.
func (s *Simulator) retireTop(c *coreState) {
	c.done = true
	s.runQ.popTop()
	s.maybeReleaseBarrier()
}

// syncSelfInvalidator is implemented by protocols that react to a core
// reaching a synchronization point (barrier arrival or lock acquisition)
// by shedding cached state — Neat's self-invalidation. The hook runs
// before the synchronization primitive, in both the sequential and the
// sharded engines, so the reaction is ordered at the core's arrival time.
type syncSelfInvalidator interface {
	syncSelfInvalidate(c *coreState)
}

// syncOp executes a non-data operation for the root core. All of them
// may reshape the run queue (parking, granting or releasing cores), so the
// batched loops end their batch after calling it.
func (s *Simulator) syncOp(c *coreState, a mem.Access) error {
	if a.Kind == mem.Barrier || a.Kind == mem.Lock {
		if si, ok := s.proto.(syncSelfInvalidator); ok {
			si.syncSelfInvalidate(c)
		}
	}
	switch a.Kind {
	case mem.Barrier:
		s.runQ.popTop()
		s.barrierArrive(c, a.Addr)
	case mem.Lock:
		s.runQ.popTop() // lockAcquire re-queues the core when granted
		s.lockAcquire(c, uint64(a.Addr))
	case mem.Unlock:
		s.lockRelease(c, uint64(a.Addr))
		s.runQ.replaceTop(c.now, int32(c.id))
	default:
		return fmt.Errorf("sim: core %d emitted unknown op %v", c.id, a.Kind)
	}
	return nil
}

// runAdaptive is the monomorphic horizon-batched engine for the paper's
// locality-aware adaptive protocol. See the package comment above for the
// invariants; the body must stay in lock-step with runMESI and runDragon.
func (s *Simulator) runAdaptive(p *adaptiveProtocol) error {
	for !s.runQ.empty() {
		id := int32(s.runQ.top())
		c := &s.cores[id]
		hz := s.runQ.horizon()
		l1 := s.tiles[id].l1d
		for {
			var a mem.Access
			if c.bufIdx < len(c.buf) {
				a = c.buf[c.bufIdx]
				c.bufIdx++
			} else {
				var ok bool
				if a, ok = c.refill(); !ok {
					s.retireTop(c)
					break
				}
			}
			if a.Gap > 0 {
				c.now += mem.Cycle(a.Gap)
				c.bd.Compute += float64(a.Gap)
			}
			if !a.Kind.IsData() {
				if err := s.syncOp(c, a); err != nil {
					return err
				}
				break
			}
			s.instrFetch(c, a.Gap)
			la := mem.LineOf(a.Addr)
			line := c.lastL1D
			if !l1.Holds(line, la) {
				line = l1.Probe(la)
			}
			if line != nil && (a.Kind == mem.Read || line.State != lineS) {
				// Inlined l1DataHit (protocol.go): the epilogue is above the
				// compiler's inlining budget, and this is the single hottest
				// block of a simulation. Keep the two in lock-step.
				c.lastL1D = line
				c.l1d.Hits++
				line.Util++
				l1.Touch(line, c.now)
				if a.Kind == mem.Write {
					s.meter.L1DWrites++
					line.State = lineM
					line.Dirty = true
					line.Version = s.goldenWrite(la)
				} else {
					s.meter.L1DReads++
					if s.cfg.CheckValues {
						s.checkVersion("L1 read hit", la, line.Version)
					}
				}
				c.now += mem.Cycle(s.cfg.L1DLatency)
			} else {
				p.missPath(c, a.Kind, a.Addr, line != nil)
			}
			if queueKey(c.now, id) < hz {
				continue
			}
			s.runQ.replaceTop(c.now, id)
			break
		}
	}
	return nil
}

// runMESI is the monomorphic horizon-batched engine for the full-map MESI
// baseline; lock-step copy of runAdaptive.
func (s *Simulator) runMESI(p *mesiProtocol) error {
	for !s.runQ.empty() {
		id := int32(s.runQ.top())
		c := &s.cores[id]
		hz := s.runQ.horizon()
		l1 := s.tiles[id].l1d
		for {
			var a mem.Access
			if c.bufIdx < len(c.buf) {
				a = c.buf[c.bufIdx]
				c.bufIdx++
			} else {
				var ok bool
				if a, ok = c.refill(); !ok {
					s.retireTop(c)
					break
				}
			}
			if a.Gap > 0 {
				c.now += mem.Cycle(a.Gap)
				c.bd.Compute += float64(a.Gap)
			}
			if !a.Kind.IsData() {
				if err := s.syncOp(c, a); err != nil {
					return err
				}
				break
			}
			s.instrFetch(c, a.Gap)
			la := mem.LineOf(a.Addr)
			line := c.lastL1D
			if !l1.Holds(line, la) {
				line = l1.Probe(la)
			}
			if line != nil && (a.Kind == mem.Read || line.State != lineS) {
				// Inlined l1DataHit (protocol.go): the epilogue is above the
				// compiler's inlining budget, and this is the single hottest
				// block of a simulation. Keep the two in lock-step.
				c.lastL1D = line
				c.l1d.Hits++
				line.Util++
				l1.Touch(line, c.now)
				if a.Kind == mem.Write {
					s.meter.L1DWrites++
					line.State = lineM
					line.Dirty = true
					line.Version = s.goldenWrite(la)
				} else {
					s.meter.L1DReads++
					if s.cfg.CheckValues {
						s.checkVersion("L1 read hit", la, line.Version)
					}
				}
				c.now += mem.Cycle(s.cfg.L1DLatency)
			} else {
				p.missPath(c, a.Kind, a.Addr, line != nil)
			}
			if queueKey(c.now, id) < hz {
				continue
			}
			s.runQ.replaceTop(c.now, id)
			break
		}
	}
	return nil
}

// runDLS is the monomorphic horizon-batched engine for the directoryless
// shared-LLC baseline; lock-step copy of runAdaptive. The L1 hit block is
// dead under DLS (no data line is ever installed), but stays verbatim so
// the loops remain textually identical.
func (s *Simulator) runDLS(p *dlsProtocol) error {
	for !s.runQ.empty() {
		id := int32(s.runQ.top())
		c := &s.cores[id]
		hz := s.runQ.horizon()
		l1 := s.tiles[id].l1d
		for {
			var a mem.Access
			if c.bufIdx < len(c.buf) {
				a = c.buf[c.bufIdx]
				c.bufIdx++
			} else {
				var ok bool
				if a, ok = c.refill(); !ok {
					s.retireTop(c)
					break
				}
			}
			if a.Gap > 0 {
				c.now += mem.Cycle(a.Gap)
				c.bd.Compute += float64(a.Gap)
			}
			if !a.Kind.IsData() {
				if err := s.syncOp(c, a); err != nil {
					return err
				}
				break
			}
			s.instrFetch(c, a.Gap)
			la := mem.LineOf(a.Addr)
			line := c.lastL1D
			if !l1.Holds(line, la) {
				line = l1.Probe(la)
			}
			if line != nil && (a.Kind == mem.Read || line.State != lineS) {
				// Inlined l1DataHit (protocol.go): the epilogue is above the
				// compiler's inlining budget, and this is the single hottest
				// block of a simulation. Keep the two in lock-step.
				c.lastL1D = line
				c.l1d.Hits++
				line.Util++
				l1.Touch(line, c.now)
				if a.Kind == mem.Write {
					s.meter.L1DWrites++
					line.State = lineM
					line.Dirty = true
					line.Version = s.goldenWrite(la)
				} else {
					s.meter.L1DReads++
					if s.cfg.CheckValues {
						s.checkVersion("L1 read hit", la, line.Version)
					}
				}
				c.now += mem.Cycle(s.cfg.L1DLatency)
			} else {
				p.missPath(c, a.Kind, a.Addr, line != nil)
			}
			if queueKey(c.now, id) < hz {
				continue
			}
			s.runQ.replaceTop(c.now, id)
			break
		}
	}
	return nil
}

// runNeat is the monomorphic horizon-batched engine for the Neat bounded
// self-invalidation baseline; lock-step copy of runAdaptive. The
// self-invalidation hook lives in syncOp, which already ends every batch.
func (s *Simulator) runNeat(p *neatProtocol) error {
	for !s.runQ.empty() {
		id := int32(s.runQ.top())
		c := &s.cores[id]
		hz := s.runQ.horizon()
		l1 := s.tiles[id].l1d
		for {
			var a mem.Access
			if c.bufIdx < len(c.buf) {
				a = c.buf[c.bufIdx]
				c.bufIdx++
			} else {
				var ok bool
				if a, ok = c.refill(); !ok {
					s.retireTop(c)
					break
				}
			}
			if a.Gap > 0 {
				c.now += mem.Cycle(a.Gap)
				c.bd.Compute += float64(a.Gap)
			}
			if !a.Kind.IsData() {
				if err := s.syncOp(c, a); err != nil {
					return err
				}
				break
			}
			s.instrFetch(c, a.Gap)
			la := mem.LineOf(a.Addr)
			line := c.lastL1D
			if !l1.Holds(line, la) {
				line = l1.Probe(la)
			}
			if line != nil && (a.Kind == mem.Read || line.State != lineS) {
				// Inlined l1DataHit (protocol.go): the epilogue is above the
				// compiler's inlining budget, and this is the single hottest
				// block of a simulation. Keep the two in lock-step.
				c.lastL1D = line
				c.l1d.Hits++
				line.Util++
				l1.Touch(line, c.now)
				if a.Kind == mem.Write {
					s.meter.L1DWrites++
					line.State = lineM
					line.Dirty = true
					line.Version = s.goldenWrite(la)
				} else {
					s.meter.L1DReads++
					if s.cfg.CheckValues {
						s.checkVersion("L1 read hit", la, line.Version)
					}
				}
				c.now += mem.Cycle(s.cfg.L1DLatency)
			} else {
				p.missPath(c, a.Kind, a.Addr, line != nil)
			}
			if queueKey(c.now, id) < hz {
				continue
			}
			s.runQ.replaceTop(c.now, id)
			break
		}
	}
	return nil
}

// runHybrid is the monomorphic horizon-batched engine for the MESI/Dragon
// switching baseline; lock-step copy of runAdaptive.
func (s *Simulator) runHybrid(p *hybridProtocol) error {
	for !s.runQ.empty() {
		id := int32(s.runQ.top())
		c := &s.cores[id]
		hz := s.runQ.horizon()
		l1 := s.tiles[id].l1d
		for {
			var a mem.Access
			if c.bufIdx < len(c.buf) {
				a = c.buf[c.bufIdx]
				c.bufIdx++
			} else {
				var ok bool
				if a, ok = c.refill(); !ok {
					s.retireTop(c)
					break
				}
			}
			if a.Gap > 0 {
				c.now += mem.Cycle(a.Gap)
				c.bd.Compute += float64(a.Gap)
			}
			if !a.Kind.IsData() {
				if err := s.syncOp(c, a); err != nil {
					return err
				}
				break
			}
			s.instrFetch(c, a.Gap)
			la := mem.LineOf(a.Addr)
			line := c.lastL1D
			if !l1.Holds(line, la) {
				line = l1.Probe(la)
			}
			if line != nil && (a.Kind == mem.Read || line.State != lineS) {
				// Inlined l1DataHit (protocol.go): the epilogue is above the
				// compiler's inlining budget, and this is the single hottest
				// block of a simulation. Keep the two in lock-step.
				c.lastL1D = line
				c.l1d.Hits++
				line.Util++
				l1.Touch(line, c.now)
				if a.Kind == mem.Write {
					s.meter.L1DWrites++
					line.State = lineM
					line.Dirty = true
					line.Version = s.goldenWrite(la)
				} else {
					s.meter.L1DReads++
					if s.cfg.CheckValues {
						s.checkVersion("L1 read hit", la, line.Version)
					}
				}
				c.now += mem.Cycle(s.cfg.L1DLatency)
			} else {
				p.missPath(c, a.Kind, a.Addr, line != nil)
			}
			if queueKey(c.now, id) < hz {
				continue
			}
			s.runQ.replaceTop(c.now, id)
			break
		}
	}
	return nil
}

// runDragon is the monomorphic horizon-batched engine for the Dragon
// write-update baseline; lock-step copy of runAdaptive.
func (s *Simulator) runDragon(p *dragonProtocol) error {
	for !s.runQ.empty() {
		id := int32(s.runQ.top())
		c := &s.cores[id]
		hz := s.runQ.horizon()
		l1 := s.tiles[id].l1d
		for {
			var a mem.Access
			if c.bufIdx < len(c.buf) {
				a = c.buf[c.bufIdx]
				c.bufIdx++
			} else {
				var ok bool
				if a, ok = c.refill(); !ok {
					s.retireTop(c)
					break
				}
			}
			if a.Gap > 0 {
				c.now += mem.Cycle(a.Gap)
				c.bd.Compute += float64(a.Gap)
			}
			if !a.Kind.IsData() {
				if err := s.syncOp(c, a); err != nil {
					return err
				}
				break
			}
			s.instrFetch(c, a.Gap)
			la := mem.LineOf(a.Addr)
			line := c.lastL1D
			if !l1.Holds(line, la) {
				line = l1.Probe(la)
			}
			if line != nil && (a.Kind == mem.Read || line.State != lineS) {
				// Inlined l1DataHit (protocol.go): the epilogue is above the
				// compiler's inlining budget, and this is the single hottest
				// block of a simulation. Keep the two in lock-step.
				c.lastL1D = line
				c.l1d.Hits++
				line.Util++
				l1.Touch(line, c.now)
				if a.Kind == mem.Write {
					s.meter.L1DWrites++
					line.State = lineM
					line.Dirty = true
					line.Version = s.goldenWrite(la)
				} else {
					s.meter.L1DReads++
					if s.cfg.CheckValues {
						s.checkVersion("L1 read hit", la, line.Version)
					}
				}
				c.now += mem.Cycle(s.cfg.L1DLatency)
			} else {
				p.missPath(c, a.Kind, a.Addr, line != nil)
			}
			if queueKey(c.now, id) < hz {
				continue
			}
			s.runQ.replaceTop(c.now, id)
			break
		}
	}
	return nil
}
