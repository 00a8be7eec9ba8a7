package network

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"lacc/internal/mem"
)

// refMesh is the per-hop mesh model the run layout replaced, kept as a
// test oracle: one next-free word per (tile, direction), every hop a
// separate link crossing with its coordinates recomputed.
type refMesh struct {
	w, h, hop   int
	linkFree    []mem.Cycle // [tile*4+dir]
	routerFlits uint64
	linkFlits   uint64
	messages    uint64
}

const (
	refEast = iota
	refWest
	refNorth
	refSouth
)

func newRefMesh(cfg Config) *refMesh {
	return &refMesh{w: cfg.Width, h: cfg.Height, hop: cfg.HopLatency,
		linkFree: make([]mem.Cycle, 4*cfg.Width*cfg.Height)}
}

func (r *refMesh) reset() {
	clear(r.linkFree)
	r.routerFlits, r.linkFlits, r.messages = 0, 0, 0
}

// step crosses the link leaving tile in direction d and returns the next
// tile and the head's arrival there.
func (r *refMesh) step(tile, d int, t mem.Cycle, flits int) (int, mem.Cycle) {
	r.linkFlits += uint64(flits)
	r.routerFlits += uint64(flits)
	link := tile*4 + d
	t = max(t, r.linkFree[link])
	r.linkFree[link] = t + mem.Cycle(flits)
	switch d {
	case refEast:
		tile++
	case refWest:
		tile--
	case refNorth:
		tile -= r.w
	case refSouth:
		tile += r.w
	}
	return tile, t + mem.Cycle(r.hop)
}

func (r *refMesh) unicast(src, dst, flits int, depart mem.Cycle) mem.Cycle {
	if src == dst {
		return depart
	}
	r.messages++
	t, cur := depart, src
	for cur%r.w < dst%r.w {
		cur, t = r.step(cur, refEast, t, flits)
	}
	for cur%r.w > dst%r.w {
		cur, t = r.step(cur, refWest, t, flits)
	}
	for cur/r.w < dst/r.w {
		cur, t = r.step(cur, refSouth, t, flits)
	}
	for cur/r.w > dst/r.w {
		cur, t = r.step(cur, refNorth, t, flits)
	}
	return t + mem.Cycle(flits-1)
}

func (r *refMesh) broadcast(src, flits int, depart mem.Cycle) []mem.Cycle {
	r.messages++
	arrive := make([]mem.Cycle, r.w*r.h)
	rowTime := make([]mem.Cycle, r.w)
	sx, sy := src%r.w, src/r.w
	rowTime[sx] = depart
	cur, t := src, depart
	for x := sx; x < r.w-1; x++ {
		cur, t = r.step(cur, refEast, t, flits)
		rowTime[x+1] = t
	}
	cur, t = src, depart
	for x := sx; x > 0; x-- {
		cur, t = r.step(cur, refWest, t, flits)
		rowTime[x-1] = t
	}
	tail := mem.Cycle(flits - 1)
	for x := 0; x < r.w; x++ {
		base := sy*r.w + x
		arrive[base] = rowTime[x] + tail
		cur, t = base, rowTime[x]
		for y := sy; y < r.h-1; y++ {
			cur, t = r.step(cur, refSouth, t, flits)
			arrive[cur] = t + tail
		}
		cur, t = base, rowTime[x]
		for y := sy; y > 0; y-- {
			cur, t = r.step(cur, refNorth, t, flits)
			arrive[cur] = t + tail
		}
	}
	arrive[src] = depart
	return arrive
}

// meshOp is one message of a comparison stream.
type meshOp struct {
	broadcast bool
	src, dst  int
	flits     int
	depart    mem.Cycle
}

func (op meshOp) String() string {
	if op.broadcast {
		return fmt.Sprintf("broadcast(%d, %d flits, t=%d)", op.src, op.flits, op.depart)
	}
	return fmt.Sprintf("unicast(%d->%d, %d flits, t=%d)", op.src, op.dst, op.flits, op.depart)
}

// compareMesh replays ops on m and on the per-hop oracle and reports the
// first disagreement in an arrival, a broadcast vector or a counter.
func compareMesh(t *testing.T, cfg Config, m *Mesh, ops []meshOp) {
	t.Helper()
	ref := newRefMesh(cfg)
	buf := make([]mem.Cycle, m.Tiles())
	for i, op := range ops {
		if op.broadcast {
			want := ref.broadcast(op.src, op.flits, op.depart)
			if got := m.BroadcastInto(buf, op.src, op.flits, op.depart); !slices.Equal(got, want) {
				t.Fatalf("%dx%d op %d %v: arrivals\n got %v\nwant %v", cfg.Width, cfg.Height, i, op, got, want)
			}
		} else {
			want := ref.unicast(op.src, op.dst, op.flits, op.depart)
			if got := m.Unicast(op.src, op.dst, op.flits, op.depart); got != want {
				t.Fatalf("%dx%d op %d %v: arrival %d, want %d", cfg.Width, cfg.Height, i, op, got, want)
			}
		}
		if m.RouterFlits != ref.routerFlits || m.LinkFlits != ref.linkFlits || m.Messages != ref.messages {
			t.Fatalf("%dx%d op %d %v: counters router/link/msgs %d/%d/%d, want %d/%d/%d", cfg.Width, cfg.Height, i, op,
				m.RouterFlits, m.LinkFlits, m.Messages, ref.routerFlits, ref.linkFlits, ref.messages)
		}
	}
}

// meshOps draws n messages: mixed 1/3/9-flit sizes, about one broadcast
// in eight, departures that stay put (repeated) or advance by up to 40
// cycles so that links are often still busy.
func meshOps(rng *rand.Rand, tiles, n int) []meshOp {
	ops := make([]meshOp, n)
	var now mem.Cycle
	for i := range ops {
		if rng.IntN(3) != 0 {
			now += mem.Cycle(rng.IntN(40))
		}
		ops[i] = meshOp{
			broadcast: rng.IntN(8) == 0,
			src:       rng.IntN(tiles),
			dst:       rng.IntN(tiles),
			flits:     []int{1, 3, 9}[rng.IntN(3)],
			depart:    now,
		}
	}
	return ops
}

func TestMeshMatchesPerHop(t *testing.T) {
	geoms := [][2]int{{1, 1}, {1, 8}, {8, 1}, {3, 5}, {4, 3}, {8, 8}, {16, 16}}
	for _, g := range geoms {
		for hop := 1; hop <= 3; hop++ {
			cfg := Config{Width: g[0], Height: g[1], HopLatency: hop}
			rng := rand.New(rand.NewPCG(uint64(g[0]*100+g[1]), uint64(hop)))
			ops := meshOps(rng, g[0]*g[1], 2000)
			t.Run(fmt.Sprintf("%dx%d/hop%d", g[0], g[1], hop), func(t *testing.T) {
				m := New(cfg)
				compareMesh(t, cfg, m, ops)
				m.Reset()
				compareMesh(t, cfg, m, ops) // a reset mesh behaves as new
			})
			t.Run(fmt.Sprintf("%dx%d/hop%d/clone", g[0], g[1], hop), func(t *testing.T) {
				compareMesh(t, cfg, New(cfg).Clone(), ops)
			})
		}
	}
}

// FuzzMeshMatchesPerHop decodes a geometry, a hop latency and a message
// stream from the input (three bytes per message) and checks the mesh and
// a clone against the per-hop oracle.
func FuzzMeshMatchesPerHop(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(2), []byte{0, 63, 9, 27, 0, 0x81, 63, 0, 3})
	f.Add(uint8(4), uint8(3), uint8(1), []byte{5, 6, 0x83, 11, 0, 9, 0, 11, 1})
	f.Add(uint8(1), uint8(8), uint8(3), []byte{0, 7, 1, 7, 0, 0x89})
	f.Fuzz(func(t *testing.T, w, h, hop uint8, data []byte) {
		cfg := Config{Width: int(w%16) + 1, Height: int(h%16) + 1, HopLatency: int(hop%3) + 1}
		tiles := cfg.Width * cfg.Height
		var ops []meshOp
		var now mem.Cycle
		for i := 0; i+2 < len(data); i += 3 {
			a, b, c := data[i], data[i+1], data[i+2]
			now += mem.Cycle(c >> 4 & 7) // bits 4-6 advance the clock
			ops = append(ops, meshOp{
				broadcast: c&0x80 != 0,
				src:       int(a) % tiles,
				dst:       int(b) % tiles,
				flits:     int(c&0xf)%9 + 1,
				depart:    now,
			})
		}
		compareMesh(t, cfg, New(cfg), ops)
		compareMesh(t, cfg, New(cfg).Clone(), ops)
	})
}
