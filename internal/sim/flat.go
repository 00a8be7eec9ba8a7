package sim

// Flat, allocation-free line-metadata storage for the simulation hot path.
//
// The original core kept every per-line structure in Go maps — the
// directory (map[mem.Addr]*dirEntry per tile), the per-core miss-history
// (map[mem.Addr]uint8) and the golden/DRAM version stores
// (map[mem.Addr]uint64) — plus a freshly allocated sharer list and
// classifier per directory entry. Each data access therefore paid several
// hash-map walks and each new resident line several heap allocations.
//
// This file replaces them. The directory is a per-tile pool of dense
// entry records and a sharer-identity arena, linked from the home L2 lines
// (cache.Line.Dir), so a lookup is a field read on the L2 line the access
// already probes. The plain key-value stores are open-addressed
// internal/flatmap tables (linear probing, power-of-two capacity,
// fibonacci hashing of mem.LineKey) whose values live inline in the slot
// array. The map-based layout survives unchanged behind the same accessors
// as the reference core (newReference), which the differential tests
// replay against the flat core to prove bit-identical behavior.

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/coherence"
	"lacc/internal/flatmap"
	"lacc/internal/mem"
)

// dirPool is the fast core's per-tile directory storage. The paper's
// directory is integrated with the shared L2: an entry exists exactly
// while its home L2 line is resident. So the pool keeps only dense entry
// records and their sharer-identity arena (a fixed p-pointer segment per
// slot, handed to the slot's sharer set at allocation), and the home L2
// line names its entry through cache.Line.Dir (slot+1). There are no keys:
// every lookup starts from the L2 line the access has already probed.
//
// Slots come from a LIFO free list, else from the bump pointer used. When
// both are exhausted the pool doubles, copying the records and rebinding
// each sharer set into the new arena, up to limit — the home L2's line
// count, which bounds the live entries. Clearing is O(1): the L2's Reset
// drops every link, and a record is rewritten whole when its slot is
// handed out again.
//
// Pointer stability: entry pointers stay valid until the next alloc, which
// may grow and relocate the records; release never relocates. The
// protocol layer allocates at most once per transaction (in lookupEntry),
// before any entry pointer is retained.
type dirPool struct {
	entries []dirEntry // len is the capacity
	arena   []int16    // len(entries) * p sharer identities
	free    []int32    // released slots, reused last-in first-out
	used    int        // slots handed out since the last clear
	p       int        // sharer pointers per entry
	limit   int        // the home L2's line count
}

// dirPoolInitialSlots is the first capacity; a tile doubles from here to
// the lines its workload actually keeps resident.
const dirPoolInitialSlots = 64

func newDirPool(p, limit int) dirPool {
	n := min(dirPoolInitialSlots, limit)
	return dirPool{entries: make([]dirEntry, n), arena: make([]int16, n*p), p: p, limit: limit}
}

// backing returns slot i's segment of the identity arena, zero-length with
// capacity p.
func (d *dirPool) backing(i int) []int16 {
	base := i * d.p
	return d.arena[base : base : base+d.p]
}

// alloc links a fresh entry to the home L2 line l and returns it, zeroed
// except for the arena-backed sharer set.
func (d *dirPool) alloc(l *cache.Line) *dirEntry {
	var i int
	if n := len(d.free); n > 0 {
		i = int(d.free[n-1])
		d.free = d.free[:n-1]
	} else {
		if d.used == len(d.entries) {
			d.grow()
		}
		i = d.used
		d.used++
	}
	d.entries[i] = dirEntry{sharers: coherence.NewSharerSetBacked(d.p, d.backing(i))}
	l.Dir = int32(i + 1)
	return &d.entries[i]
}

// release frees the slot a line's Dir link names.
func (d *dirPool) release(dir int32) {
	d.entries[dir-1] = dirEntry{}
	d.free = append(d.free, dir-1)
}

// grow doubles the pool. It runs only with the free list empty, so every
// slot below used is live and is rebound into the new arena in place.
func (d *dirPool) grow() {
	n := min(2*len(d.entries), d.limit)
	if n == len(d.entries) {
		panic(fmt.Sprintf("sim: directory pool full at %d entries, the home L2's line count", n))
	}
	old := d.entries
	d.entries = make([]dirEntry, n)
	copy(d.entries, old[:d.used])
	d.arena = make([]int16, n*d.p)
	for i := range d.entries[:d.used] {
		d.entries[i].sharers.Rebind(d.backing(i))
	}
}

// reshape frees every slot, keeping the grown capacity, and re-carves the
// identity arena when the per-entry pointer count p changes, reusing the
// record array. Sweeps that flip between ACKwise-p and full-map variants
// reshape instead of rebuilding.
func (d *dirPool) reshape(p int) {
	d.used = 0
	d.free = d.free[:0]
	if p == d.p {
		return
	}
	d.p = p
	if need := len(d.entries) * p; cap(d.arena) >= need {
		d.arena = d.arena[:need]
	} else {
		d.arena = make([]int16, need)
	}
}

// tileDir is the per-tile directory handle: the L2-linked pool in the fast
// core, a plain Go map keyed by line address in the reference core.
// Exactly one of the two representations is active; the pool's p is the
// per-entry pointer count either way.
type tileDir struct {
	dirPool
	ref map[mem.Addr]*dirEntry
}

func newTileDir(p, l2Lines int, reference bool) tileDir {
	if reference {
		return tileDir{dirPool: dirPool{p: p}, ref: make(map[mem.Addr]*dirEntry)}
	}
	return tileDir{dirPool: newDirPool(p, l2Lines)}
}

// entry returns the directory entry of the home L2 line l, or nil when the
// line has none (an instruction line or a replica).
func (d *tileDir) entry(l *cache.Line) *dirEntry {
	if d.ref != nil {
		return d.ref[l.Addr]
	}
	if l.Dir == 0 {
		return nil
	}
	return &d.entries[l.Dir-1]
}

// insert creates the entry of the home L2 line l, which must have none.
func (d *tileDir) insert(l *cache.Line) *dirEntry {
	if d.ref != nil {
		e := &dirEntry{sharers: coherence.NewSharerSet(d.p)}
		d.ref[l.Addr] = e
		return e
	}
	return d.alloc(l)
}

// remove drops the entry of l: the home L2 line or, for an L2 victim, the
// copy Insert returned of it.
func (d *tileDir) remove(l *cache.Line) {
	if d.ref != nil {
		delete(d.ref, l.Addr)
		return
	}
	d.release(l.Dir)
	l.Dir = 0
}

// reshape empties the directory for simulator reuse (Simulator.Reset) and
// adopts the per-entry pointer count p, reusing storage where the
// representation allows (see dirPool.reshape).
func (d *tileDir) reshape(p int) {
	if d.ref != nil {
		d.p = p
		clear(d.ref)
		return
	}
	d.dirPool.reshape(p)
}

// forEachEntry visits every directory entry of the tile: through the home
// L2 lines' links in the fast core, through the map in the reference core.
func (t *tile) forEachEntry(fn func(la mem.Addr, e *dirEntry)) {
	if t.dir.ref != nil {
		for la, e := range t.dir.ref {
			fn(la, e)
		}
		return
	}
	t.l2.ForEach(func(l *cache.Line) {
		if l.Dir != 0 {
			fn(l.Addr, &t.dir.entries[l.Dir-1])
		}
	})
}

// The per-core miss-classification history and the golden/DRAM version
// stores are flatmap.Tables keyed by mem.LineKey: absent lines read as the
// zero value, matching the reference maps' semantics.

// histInitialSlots is the per-core history's first capacity. Tables grow
// to a core's footprint and keep it across Reset; starting small spares a
// 256-core machine 15 MB of history it fills only as lines are touched.
const histInitialSlots = 256

const verInitialSlots = 4096

// histStore is the per-core history handle: flat table or reference map.
type histStore struct {
	flat *flatmap.Table[uint8]
	ref  map[mem.Addr]uint8
}

func newHistStore(reference bool) histStore {
	if reference {
		return histStore{ref: make(map[mem.Addr]uint8, histInitialSlots)}
	}
	return histStore{flat: flatmap.New[uint8](histInitialSlots)}
}

func (h *histStore) get(la mem.Addr) uint8 {
	if h.ref != nil {
		return h.ref[la]
	}
	v, _ := h.flat.Get(mem.LineKey(la))
	return v
}

func (h *histStore) set(la mem.Addr, v uint8) {
	if h.ref != nil {
		h.ref[la] = v
		return
	}
	*h.flat.Slot(mem.LineKey(la)) = v
}

// clear empties the history for core-state reuse across runs.
func (h *histStore) clear() {
	if h.ref != nil {
		clear(h.ref)
		return
	}
	h.flat.Clear()
}

// verStore is a version-store handle: flat table or reference map.
type verStore struct {
	flat *flatmap.Table[uint64]
	ref  map[mem.Addr]uint64
}

func newVerStore(reference bool) verStore {
	if reference {
		return verStore{ref: make(map[mem.Addr]uint64)}
	}
	return verStore{flat: flatmap.New[uint64](verInitialSlots)}
}

func (v *verStore) get(la mem.Addr) uint64 {
	if v.ref != nil {
		return v.ref[la]
	}
	val, _ := v.flat.Get(mem.LineKey(la))
	return val
}

func (v *verStore) set(la mem.Addr, val uint64) {
	if v.ref != nil {
		v.ref[la] = val
		return
	}
	*v.flat.Slot(mem.LineKey(la)) = val
}

// clear empties the store for simulator reuse (Simulator.Reset).
func (v *verStore) clear() {
	if v.ref != nil {
		clear(v.ref)
		return
	}
	v.flat.Clear()
}

// bump increments la's version and returns the new value.
func (v *verStore) bump(la mem.Addr) uint64 {
	if v.ref != nil {
		v.ref[la]++
		return v.ref[la]
	}
	p := v.flat.Slot(mem.LineKey(la))
	*p++
	return *p
}

// forEach visits every line with a non-zero recorded version (test and
// differential-snapshot helper; zero-version entries created by Slot are
// indistinguishable from absent lines, matching map semantics where reads
// never materialize entries).
func (v *verStore) forEach(fn func(la mem.Addr, val uint64)) {
	if v.ref != nil {
		for la, val := range v.ref {
			if val != 0 {
				fn(la, val)
			}
		}
		return
	}
	v.flat.ForEach(func(key uint64, val uint64) {
		if val != 0 {
			fn(mem.Addr((key-1)<<mem.LineShift), val)
		}
	})
}
