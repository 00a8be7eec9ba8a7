package network

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"lacc/internal/mem"
)

func newTestMesh() *Mesh { return New(Config{Width: 8, Height: 8, HopLatency: 2}) }

func TestGeometry(t *testing.T) {
	m := newTestMesh()
	if m.Tiles() != 64 {
		t.Fatalf("tiles = %d", m.Tiles())
	}
	if m.Diameter() != 14 {
		t.Fatalf("diameter = %d", m.Diameter())
	}
	x, y := m.XY(0)
	if x != 0 || y != 0 {
		t.Fatalf("XY(0) = %d,%d", x, y)
	}
	x, y = m.XY(63)
	if x != 7 || y != 7 {
		t.Fatalf("XY(63) = %d,%d", x, y)
	}
	if m.TileAt(7, 7) != 63 {
		t.Fatalf("TileAt(7,7) = %d", m.TileAt(7, 7))
	}
}

func TestHops(t *testing.T) {
	m := newTestMesh()
	cases := []struct{ src, dst, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 8, 1},
		{0, 9, 2},
		{0, 63, 14},
		{63, 0, 14},
		{7, 56, 14},
	}
	for _, c := range cases {
		if got := m.Hops(c.src, c.dst); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestUnicastLatencyNoContention(t *testing.T) {
	m := newTestMesh()
	// Table 1: hop = 2 cycles. 1-flit message over 1 hop: 2 cycles.
	if got := m.Unicast(0, 1, 1, 100); got != 102 {
		t.Fatalf("1 hop 1 flit arrive = %d, want 102", got)
	}
	// 9-flit (line) message over 14 hops: 14*2 + 8 = 36 cycles.
	m2 := newTestMesh()
	if got := m2.Unicast(0, 63, 9, 0); got != 36 {
		t.Fatalf("14 hop 9 flit arrive = %d, want 36", got)
	}
	// Local delivery takes no time.
	if got := m2.Unicast(5, 5, 9, 77); got != 77 {
		t.Fatalf("local arrive = %d, want 77", got)
	}
}

func TestUnicastMatchesUncontended(t *testing.T) {
	m := newTestMesh()
	for _, c := range []struct{ src, dst, flits int }{{0, 63, 9}, {3, 42, 2}, {10, 17, 1}} {
		fresh := newTestMesh()
		got := fresh.Unicast(c.src, c.dst, c.flits, 1000)
		want := 1000 + fresh.UncontendedLatency(m.Hops(c.src, c.dst), c.flits)
		if got != want {
			t.Errorf("Unicast(%d->%d,%d flits) = %d, want %d", c.src, c.dst, c.flits, got, want)
		}
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	m := newTestMesh()
	// Two 9-flit messages over the same link, same departure: the second
	// head must wait for the first message's 9 flit-cycles.
	a := m.Unicast(0, 1, 9, 0)
	b := m.Unicast(0, 1, 9, 0)
	if a != 10 { // 2 + 8
		t.Fatalf("first arrive = %d, want 10", a)
	}
	if b != 19 { // wait 9, then 2 + 8
		t.Fatalf("second arrive = %d, want 19", b)
	}
	// A message on a different link is unaffected.
	c := m.Unicast(8, 9, 1, 0)
	if c != 2 {
		t.Fatalf("independent link arrive = %d, want 2", c)
	}
}

func TestXYRoutingIsDeterministicPath(t *testing.T) {
	// Messages 0->9 (X then Y) and 1->8 must not share links under XY:
	// 0->9 uses link 0E then 1S; 1->8 uses 1W then 0S.
	m := newTestMesh()
	m.Unicast(0, 9, 9, 0)
	before := m.LinkFlits
	got := m.Unicast(1, 8, 1, 0)
	if got != 4 {
		t.Fatalf("1->8 arrive = %d, want 4 (no contention)", got)
	}
	if m.LinkFlits != before+2 {
		t.Fatalf("link flits delta = %d, want 2", m.LinkFlits-before)
	}
}

func TestFlitAccounting(t *testing.T) {
	m := newTestMesh()
	m.Unicast(0, 2, 3, 0) // 2 hops, 3 flits => 6 link-flits, 6 router-flits
	if m.LinkFlits != 6 || m.RouterFlits != 6 {
		t.Fatalf("flits = %d/%d, want 6/6", m.LinkFlits, m.RouterFlits)
	}
	if m.Messages != 1 {
		t.Fatalf("messages = %d", m.Messages)
	}
}

func TestBroadcastReachesAllTiles(t *testing.T) {
	m := newTestMesh()
	arrive := m.Broadcast(27, 1, 50)
	if len(arrive) != 64 {
		t.Fatalf("arrivals = %d", len(arrive))
	}
	if arrive[27] != 50 {
		t.Fatalf("source arrival = %d, want 50", arrive[27])
	}
	for tile, at := range arrive {
		if tile == 27 {
			continue
		}
		if at <= 50 {
			t.Errorf("tile %d arrival %d not after departure", tile, at)
		}
		// Arrival must be at least the uncontended latency away.
		min := 50 + m.UncontendedLatency(m.Hops(27, tile), 1)
		if at < min {
			t.Errorf("tile %d arrival %d before physical minimum %d", tile, at, min)
		}
	}
}

func TestBroadcastFlitAccounting(t *testing.T) {
	m := newTestMesh()
	m.Broadcast(0, 1, 0)
	// The broadcast tree spans all 64 tiles => exactly 63 link traversals.
	if m.LinkFlits != 63 {
		t.Fatalf("broadcast link flits = %d, want 63", m.LinkFlits)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero width did not panic")
		}
	}()
	New(Config{Width: 0, Height: 8})
}

func TestZeroFlitPanics(t *testing.T) {
	m := newTestMesh()
	defer func() {
		if recover() == nil {
			t.Fatal("Unicast with 0 flits did not panic")
		}
	}()
	m.Unicast(0, 1, 0, 0)
}

// Property: unicast arrival is never earlier than the uncontended latency,
// and arrivals on a shared mesh are monotone with repeated sends (the link
// only gets busier).
func TestUnicastProperties(t *testing.T) {
	f := func(pairs []uint16, flitSel []bool) bool {
		m := newTestMesh()
		last := map[[2]int]mem.Cycle{}
		for i, p := range pairs {
			src := int(p) % 64
			dst := int(p>>8) % 64
			flits := 1
			if i < len(flitSel) && flitSel[i] {
				flits = 9
			}
			got := m.Unicast(src, dst, flits, 0)
			min := m.UncontendedLatency(m.Hops(src, dst), flits)
			if src == dst {
				min = 0
			}
			if got < min {
				return false
			}
			key := [2]int{src, dst}
			if prev, ok := last[key]; ok && got < prev {
				return false // same route, later message cannot arrive earlier
			}
			last[key] = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: broadcast covers every tile exactly once with a spanning tree:
// link flit count for a b-flit broadcast is (tiles-1)*b.
func TestBroadcastTreeProperty(t *testing.T) {
	f := func(srcSel uint8, flitSel bool) bool {
		m := newTestMesh()
		flits := 1
		if flitSel {
			flits = 9
		}
		m.Broadcast(int(srcSel)%64, flits, 0)
		return m.LinkFlits == uint64(63*flits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// BenchmarkMesh times seeded XY traffic as the repository benchmark's
// network probes draw it: uniform endpoints, unicasts half 1-flit and half
// 9-flit (a line), 1-flit broadcasts, departures 3 cycles apart. ns/op is
// per message.
func BenchmarkMesh(b *testing.B) {
	for _, c := range []struct {
		name      string
		width     int
		broadcast bool
	}{
		{"unicast/8x8", 8, false},
		{"unicast/16x16", 16, false},
		{"broadcast/8x8", 8, true},
		{"broadcast/16x16", 16, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := New(Config{Width: c.width, Height: c.width, HopLatency: 2})
			tiles := m.Tiles()
			rng := rand.New(rand.NewPCG(1, uint64(c.width)))
			const n = 4096
			var src, dst, flits [n]int
			for i := range src {
				src[i], dst[i], flits[i] = rng.IntN(tiles), rng.IntN(tiles), 1
				if rng.IntN(2) == 0 {
					flits[i] = 9
				}
			}
			buf := make([]mem.Cycle, tiles)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % n
				if c.broadcast {
					m.BroadcastInto(buf, src[k], 1, mem.Cycle(3*i))
				} else {
					m.Unicast(src[k], dst[k], flits[k], mem.Cycle(3*i))
				}
			}
		})
	}
}
