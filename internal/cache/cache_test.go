package cache

import (
	"testing"
	"unsafe"

	"lacc/internal/mem"
)

func TestGeometry(t *testing.T) {
	// Table 1 L1-D: 32 KB 4-way => 128 sets.
	c := New(32*1024, 4)
	if c.Sets() != 128 || c.Ways() != 4 {
		t.Fatalf("got %d sets %d ways", c.Sets(), c.Ways())
	}
	// Table 1 L2 slice: 256 KB 8-way => 512 sets.
	c2 := New(256*1024, 8)
	if c2.Sets() != 512 {
		t.Fatalf("L2 sets = %d", c2.Sets())
	}
	// Table 1 L1-I: 16 KB 4-way => 64 sets.
	c3 := New(16*1024, 4)
	if c3.Sets() != 64 {
		t.Fatalf("L1I sets = %d", c3.Sets())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []struct{ size, ways int }{
		{0, 4},          // zero size
		{1024, 0},       // zero ways
		{64 * 3, 2},     // lines not divisible by ways
		{64 * 3 * 2, 2}, // 3 sets: not a power of two
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.size, c.ways)
				}
			}()
			New(c.size, c.ways)
		}()
	}
}

func TestProbeInsertInvalidate(t *testing.T) {
	c := New(4*64*2, 2) // 4 sets, 2 ways
	a := mem.Addr(0x1000)
	if c.Probe(a) != nil {
		t.Fatal("probe of empty cache hit")
	}
	l, _, ev := c.Insert(a)
	if ev {
		t.Fatal("insert into empty set evicted")
	}
	if !l.Valid || l.Addr != mem.LineOf(a) {
		t.Fatalf("inserted line wrong: %+v", l)
	}
	if got := c.Probe(a + 63); got != l {
		t.Fatal("probe within same line missed")
	}
	if got := c.Probe(a + 64); got != nil {
		t.Fatal("probe of next line hit")
	}
	old, ok := c.Invalidate(a)
	if !ok || old.Addr != mem.LineOf(a) {
		t.Fatalf("invalidate: ok=%v line=%+v", ok, old)
	}
	if c.Probe(a) != nil {
		t.Fatal("line survived invalidation")
	}
	if _, ok := c.Invalidate(a); ok {
		t.Fatal("double invalidation succeeded")
	}
}

func TestInsertResidentPanics(t *testing.T) {
	c := New(2*64*2, 2)
	c.Insert(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of resident line did not panic")
		}
	}()
	c.Insert(0)
}

func TestLRUVictimSelection(t *testing.T) {
	c := New(1*64*2, 2) // 1 set, 2 ways
	l0, _, _ := c.Insert(0x000)
	c.Touch(l0, 10)
	l1, _, _ := c.Insert(0x040)
	c.Touch(l1, 20)
	// Re-touch line 0 so line 1 becomes LRU.
	c.Touch(c.Probe(0x000), 30)
	_, victim, ev := c.Insert(0x080)
	if !ev {
		t.Fatal("expected eviction from full set")
	}
	if victim.Addr != 0x040 {
		t.Fatalf("victim = %#x, want 0x40 (LRU)", victim.Addr)
	}
	if c.Evictions != 1 {
		t.Fatalf("Evictions = %d", c.Evictions)
	}
}

func TestHasInvalidWayAndMinLastAccess(t *testing.T) {
	c := New(1*64*2, 2)
	if !c.HasInvalidWay(0) {
		t.Fatal("empty set must have invalid way")
	}
	min, full := c.MinLastAccess(0)
	if full || min != 0 {
		t.Fatalf("empty set: min=%d full=%v", min, full)
	}
	l0, _, _ := c.Insert(0x000)
	c.Touch(l0, 100)
	if !c.HasInvalidWay(0) {
		t.Fatal("half-full set must have invalid way")
	}
	l1, _, _ := c.Insert(0x040)
	c.Touch(l1, 50)
	if c.HasInvalidWay(0) {
		t.Fatal("full set reported invalid way")
	}
	min, full = c.MinLastAccess(0)
	if !full || min != 50 {
		t.Fatalf("full set: min=%d full=%v, want 50 true", min, full)
	}
}

func TestSetMapping(t *testing.T) {
	c := New(4*64*1, 1) // 4 sets, direct-mapped
	// Consecutive lines must map to consecutive sets.
	for i := 0; i < 8; i++ {
		a := mem.Addr(i * 64)
		if got, want := c.SetOf(a), i%4; got != want {
			t.Errorf("SetOf(%#x) = %d, want %d", a, got, want)
		}
	}
	// Same line, different byte offsets: same set.
	if c.SetOf(0x40) != c.SetOf(0x7f) {
		t.Error("offsets within a line map to different sets")
	}
}

func TestForEachAndCountValid(t *testing.T) {
	c := New(4*64*2, 2)
	addrs := []mem.Addr{0x000, 0x040, 0x080, 0x100}
	for _, a := range addrs {
		l, _, _ := c.Insert(a)
		l.Util = 7
	}
	if got := c.CountValid(); got != len(addrs) {
		t.Fatalf("CountValid = %d, want %d", got, len(addrs))
	}
	seen := map[mem.Addr]bool{}
	c.ForEach(func(l *Line) {
		seen[l.Addr] = true
		if l.Util != 7 {
			t.Errorf("line %#x lost Util", l.Addr)
		}
	})
	if len(seen) != len(addrs) {
		t.Fatalf("ForEach visited %d lines", len(seen))
	}
}

// TestLineSize pins the packed Line layout: the tag arrays are the bulk of
// a simulator's memory, so a field that spills past the padding costs
// every way of every cache of every tile.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 48 {
		t.Fatalf("cache.Line is %d bytes, want 48", got)
	}
}
