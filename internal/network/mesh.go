// Package network models the electrical 2-D mesh interconnect of Table 1:
// XY dimension-ordered routing, 2-cycle hop latency (1 router + 1 link),
// 64-bit flits, and a contention model that considers only link contention
// with infinite input buffers, exactly as the paper specifies.
//
// The mesh also supports broadcast: a message is replicated along an
// XY tree (east/west along the source row, then north/south down every
// column) so that all tiles are reached with a single injection, mirroring
// the broadcast support ACKwise relies on (Section 3.1).
//
// Every XY route is at most two straight segments, so the link state is
// laid out by direction and line (see Mesh): each segment a message
// crosses is one contiguous run of link words, walked by one loop.
package network

import (
	"fmt"
	"sync/atomic"

	"lacc/internal/mem"
)

// Config describes the mesh geometry and timing.
type Config struct {
	Width  int // tiles per row
	Height int // tiles per column
	// HopLatency is the per-hop head latency in cycles (Table 1: 2 = 1
	// router + 1 link).
	HopLatency int
}

// Mesh is a W×H mesh with per-directed-link next-free times. The times
// live in one slice of four W*H blocks, one per direction, indexed so
// that a message moving in that direction visits consecutive words:
//
//	East  y*W + x          West  W*H + y*W + (W-1-x)
//	South 2*W*H + x*H + y  North 3*W*H + x*H + (H-1-y)
//
// where (x, y) is the tile the link leaves. A row or column segment of
// an XY route is therefore one subslice (xRun, yRun).
//
// A Mesh built by New is not safe for concurrent use; the simulator
// serializes transactions. Clone returns handles that share the link
// times through atomic read-max-write updates, so the sharded engine's
// workers observe each other's contention (see Clone).
type Mesh struct {
	cfg      Config
	linkFree []uint64    // next-free cycle per directed link, laid out as above
	rowTime  []mem.Cycle // broadcast scratch: head arrival per column
	heads    []mem.Cycle // walk scratch: head arrival past each link of a run

	// concurrent switches link updates to atomic compare-and-swap loops.
	// Set only on clones; a sequential mesh keeps the plain loads/stores.
	concurrent bool

	// RouterFlits and LinkFlits count flit traversals for the energy model
	// (each flit is counted once per router and once per link it crosses).
	RouterFlits uint64
	LinkFlits   uint64
	// Messages counts injected messages (unicast or broadcast).
	Messages uint64
}

// New returns a mesh for the given configuration.
func New(cfg Config) *Mesh {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("network: bad mesh %dx%d", cfg.Width, cfg.Height))
	}
	if cfg.HopLatency <= 0 {
		cfg.HopLatency = 2
	}
	m := &Mesh{cfg: cfg, linkFree: make([]uint64, 4*cfg.Width*cfg.Height)}
	m.allocScratch()
	return m
}

// allocScratch carves rowTime and heads from one allocation.
func (m *Mesh) allocScratch() {
	w := m.cfg.Width
	buf := make([]mem.Cycle, w+max(w, m.cfg.Height))
	m.rowTime, m.heads = buf[:w:w], buf[w:]
}

// Clone returns a handle onto the same mesh for one concurrent worker: the
// link next-free slice is shared (every worker observes every other's
// contention) while the traffic counters and walk scratch are private,
// so workers accumulate counters without synchronization and the owner
// merges them afterwards with AddCounters. The clone crosses each route
// segment with an atomic compare-and-swap per link (walkShared); the
// original must stay quiescent while clones are live.
func (m *Mesh) Clone() *Mesh {
	c := &Mesh{cfg: m.cfg, linkFree: m.linkFree, concurrent: true}
	c.allocScratch()
	return c
}

// AddCounters folds a clone's private traffic counters into m.
func (m *Mesh) AddCounters(o *Mesh) {
	m.RouterFlits += o.RouterFlits
	m.LinkFlits += o.LinkFlits
	m.Messages += o.Messages
}

// Reset frees every link and zeroes the traffic counters, returning the
// mesh to its post-New state for the same geometry.
func (m *Mesh) Reset() {
	clear(m.linkFree)
	m.RouterFlits, m.LinkFlits, m.Messages = 0, 0, 0
}

// Matches reports whether the mesh was built for exactly cfg (after New's
// HopLatency defaulting), so callers can reuse it across runs.
func (m *Mesh) Matches(cfg Config) bool {
	if cfg.HopLatency <= 0 {
		cfg.HopLatency = 2
	}
	return m.cfg == cfg
}

// Tiles returns the number of tiles.
func (m *Mesh) Tiles() int { return m.cfg.Width * m.cfg.Height }

// XY returns tile's mesh coordinates.
func (m *Mesh) XY(tile int) (x, y int) { return tile % m.cfg.Width, tile / m.cfg.Width }

// TileAt returns the tile id at (x, y).
func (m *Mesh) TileAt(x, y int) int { return y*m.cfg.Width + x }

// Hops returns the Manhattan distance between two tiles.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := m.XY(src)
	dx, dy := m.XY(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// Diameter returns the mesh diameter in hops.
func (m *Mesh) Diameter() int { return m.cfg.Width + m.cfg.Height - 2 }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// xRun returns the links of row y crossed, in order, by a head moving
// from column sx to column dx (empty when sx == dx).
func (m *Mesh) xRun(y, sx, dx int) []uint64 {
	row := y * m.cfg.Width
	if sx <= dx {
		return m.linkFree[row+sx : row+dx]
	}
	west := m.Tiles() + row + m.cfg.Width - 1
	return m.linkFree[west-sx : west-dx]
}

// yRun returns the links of column x crossed, in order, by a head moving
// from row sy to row dy (empty when sy == dy).
func (m *Mesh) yRun(x, sy, dy int) []uint64 {
	col := 2*m.Tiles() + x*m.cfg.Height
	if sy <= dy {
		return m.linkFree[col+sy : col+dy]
	}
	north := m.Tiles() + col + m.cfg.Height - 1
	return m.linkFree[north-sy : north-dy]
}

// walk crosses the links of run in order, applying link contention: the
// head, entering at t, waits for each link to free, holds it for flits
// cycles and reaches the next router hop cycles later. heads[i] receives
// the head's arrival past run[i]; walk returns the arrival past the last.
func walk(run []uint64, heads []mem.Cycle, t, hop, flits mem.Cycle) mem.Cycle {
	heads = heads[:len(run)]
	for i, free := range run {
		t = max(t, mem.Cycle(free))
		run[i] = uint64(t + flits)
		t += hop
		heads[i] = t
	}
	return t
}

// walkShared is walk for clones: each link's wait-then-occupy update is
// an atomic read-max-write on the shared word, so concurrent workers
// crossing the same link serialize on it.
func walkShared(run []uint64, heads []mem.Cycle, t, hop, flits mem.Cycle) mem.Cycle {
	heads = heads[:len(run)]
	for i := range run {
		for {
			free := atomic.LoadUint64(&run[i])
			head := max(t, mem.Cycle(free))
			if atomic.CompareAndSwapUint64(&run[i], free, uint64(head+flits)) {
				t = head + hop
				break
			}
		}
		heads[i] = t
	}
	return t
}

// cross crosses one route segment with the kernel this handle uses.
func (m *Mesh) cross(run []uint64, heads []mem.Cycle, t mem.Cycle, flits int) mem.Cycle {
	hop, fl := mem.Cycle(m.cfg.HopLatency), mem.Cycle(flits)
	if m.concurrent {
		return walkShared(run, heads, t, hop, fl)
	}
	return walk(run, heads, t, hop, fl)
}

// count adds a message crossing `links` links to the traffic counters.
func (m *Mesh) count(links, flits int) {
	m.Messages++
	m.LinkFlits += uint64(links * flits)
	m.RouterFlits += uint64(links * flits)
}

// Unicast routes a message of `flits` flits from src to dst using XY
// routing, departing at `depart`. It returns the cycle at which the full
// message (tail flit) has arrived at dst. A message to the local tile takes
// zero network time.
func (m *Mesh) Unicast(src, dst int, flits int, depart mem.Cycle) mem.Cycle {
	if flits <= 0 {
		panic("network: message needs at least one flit")
	}
	if src == dst {
		return depart
	}
	sx, sy := m.XY(src)
	dx, dy := m.XY(dst)
	xr, yr := m.xRun(sy, sx, dx), m.yRun(dx, sy, dy) // X first, then Y
	m.count(len(xr)+len(yr), flits)
	hop, fl := mem.Cycle(m.cfg.HopLatency), mem.Cycle(flits)
	var t mem.Cycle
	if m.concurrent {
		t = walkShared(yr, m.heads, walkShared(xr, m.heads, depart, hop, fl), hop, fl)
	} else {
		t = walk(yr, m.heads, walk(xr, m.heads, depart, hop, fl), hop, fl)
	}
	// Tail flit arrives flits-1 cycles after the head.
	return t + fl - 1
}

// Broadcast injects a message of `flits` flits at src and replicates it
// along an XY tree so every tile receives exactly one copy. It returns the
// arrival cycle (tail flit) at every tile; the source's own entry is the
// departure time.
func (m *Mesh) Broadcast(src int, flits int, depart mem.Cycle) []mem.Cycle {
	return m.BroadcastInto(nil, src, flits, depart)
}

// BroadcastInto is Broadcast writing the arrival times into dst when it has
// capacity for one entry per tile (allocating otherwise), so hot callers
// can reuse one buffer across broadcasts. Every entry is overwritten.
func (m *Mesh) BroadcastInto(dst []mem.Cycle, src int, flits int, depart mem.Cycle) []mem.Cycle {
	if flits <= 0 {
		panic("network: message needs at least one flit")
	}
	w, h := m.cfg.Width, m.cfg.Height
	m.count(m.Tiles()-1, flits) // the tree spans every tile
	var arrive []mem.Cycle
	if cap(dst) >= m.Tiles() {
		arrive = dst[:m.Tiles()]
	} else {
		arrive = make([]mem.Cycle, m.Tiles())
	}
	sx, sy := m.XY(src)
	tail := mem.Cycle(flits - 1)

	// Phase 1: spread along the source row, recording the head arrival at
	// every column; the westward walk yields columns sx-1 down to 0.
	rowTime := m.rowTime
	rowTime[sx] = depart
	m.cross(m.xRun(sy, sx, w-1), rowTime[sx+1:], depart, flits)
	west := m.heads[:sx]
	m.cross(m.xRun(sy, sx, 0), west, depart, flits)
	for i, t := range west {
		rowTime[sx-1-i] = t
	}
	// Phase 2: from every tile of the source row, spread down each column.
	for x, t := range rowTime {
		arrive[sy*w+x] = t + tail
		south := m.heads[:h-1-sy]
		m.cross(m.yRun(x, sy, h-1), south, t, flits)
		for i, at := range south {
			arrive[(sy+1+i)*w+x] = at + tail
		}
		north := m.heads[:sy]
		m.cross(m.yRun(x, sy, 0), north, t, flits)
		for i, at := range north {
			arrive[(sy-1-i)*w+x] = at + tail
		}
	}
	arrive[src] = depart
	return arrive
}

// UncontendedLatency returns the latency of a flits-long message over h hops
// with no contention; exposed for analytical checks and lock modelling.
func (m *Mesh) UncontendedLatency(h, flits int) mem.Cycle {
	if h == 0 {
		return 0
	}
	return mem.Cycle(h*m.cfg.HopLatency + flits - 1)
}
