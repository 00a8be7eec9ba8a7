package sim

import (
	"strings"
	"testing"

	"lacc/internal/cache"
	"lacc/internal/coherence"
	"lacc/internal/mem"
	"lacc/internal/trace"
)

// runTiny executes a two-access trace on a 2-core machine and returns the
// simulator for white-box inspection.
func runTiny(t *testing.T) *Simulator {
	t.Helper()
	cfg := Default()
	cfg.Cores = 2
	cfg.MeshWidth = 2
	cfg.MemControllers = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const base mem.Addr = 1 << 22
	_, err = s.Run([]trace.Stream{
		trace.FromSlice([]mem.Access{{Kind: mem.Read, Addr: base}}),
		trace.FromSlice([]mem.Access{{Kind: mem.Read, Addr: base + mem.PageBytes}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// corrupt locates the first directory entry and applies fn to it.
func corrupt(t *testing.T, s *Simulator, fn func(la mem.Addr, e *dirEntry)) {
	t.Helper()
	done := false
	for i := range s.tiles {
		s.tiles[i].forEachEntry(func(la mem.Addr, e *dirEntry) {
			if done {
				return
			}
			fn(la, e)
			done = true
		})
		if done {
			return
		}
	}
	t.Fatal("no directory entries to corrupt")
}

func TestAuditDetectsPhantomSharer(t *testing.T) {
	s := runTiny(t)
	if err := s.Audit(); err != nil {
		t.Fatalf("clean state failed audit: %v", err)
	}
	corrupt(t, s, func(la mem.Addr, e *dirEntry) {
		// Claim a sharer that holds no copy.
		e.state = coherence.SharedState
		e.owner = -1
		e.sharers.Clear()
		e.sharers.Add(0)
		e.sharers.Add(1)
	})
	err := s.Audit()
	if err == nil || !strings.Contains(err.Error(), "audit") {
		t.Fatalf("phantom sharer not detected: %v", err)
	}
}

func TestAuditDetectsWrongOwner(t *testing.T) {
	s := runTiny(t)
	corrupt(t, s, func(la mem.Addr, e *dirEntry) {
		if e.state == coherence.ExclusiveState {
			e.owner = 1 - e.owner // flip to the non-holding core
		} else {
			e.state = coherence.ModifiedState
			e.owner = 1
		}
	})
	if err := s.Audit(); err == nil {
		t.Fatal("wrong owner not detected")
	}
}

// runLinked runs core 0 over four lines of one private page, so its home
// tile (tile 0) ends with four linked directory entries, and returns the
// simulator with those lines' L2 records.
func runLinked(t *testing.T) (*Simulator, []*cache.Line) {
	t.Helper()
	cfg := Default()
	cfg.Cores = 2
	cfg.MeshWidth = 2
	cfg.MemControllers = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const base mem.Addr = 1 << 22
	var prog []mem.Access
	for i := 0; i < 4; i++ {
		prog = append(prog, mem.Access{Kind: mem.Read, Addr: base + mem.Addr(i*mem.LineBytes)})
	}
	if _, err := s.Run([]trace.Stream{trace.FromSlice(prog), trace.FromSlice(nil)}); err != nil {
		t.Fatal(err)
	}
	var lines []*cache.Line
	for i := 0; i < 4; i++ {
		l := s.tiles[0].l2.Probe(base + mem.Addr(i*mem.LineBytes))
		if l == nil || l.Dir == 0 {
			t.Fatalf("line %d: no linked home L2 line at tile 0", i)
		}
		lines = append(lines, l)
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("clean state failed audit: %v", err)
	}
	return s, lines
}

// TestAuditDetectsLinkCorruption breaks the directory pool's link
// invariant — every slot handed out is linked from exactly one resident
// home L2 line, and no line links a free slot — one way per case, and
// requires Audit to name the break.
func TestAuditDetectsLinkCorruption(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(s *Simulator, lines []*cache.Line)
	}{
		// Dropping the home L2 line strands its live entry.
		{"unlinked-slot", "no L2 line links it", func(s *Simulator, lines []*cache.Line) {
			s.tiles[0].l2.Invalidate(lines[1].Addr)
		}},
		{"doubly-linked-slot", "already linked from another line", func(s *Simulator, lines []*cache.Line) {
			lines[2].Dir = lines[1].Dir
		}},
		// Free the slot behind the pool's back, leaving the line's link.
		{"link-to-free-slot", "links free slot", func(s *Simulator, lines []*cache.Line) {
			s.tiles[0].dir.release(lines[3].Dir)
		}},
		{"link-outside-pool", "outside the", func(s *Simulator, lines []*cache.Line) {
			lines[0].Dir = int32(s.tiles[0].dir.used + 1)
		}},
		{"link-from-replica", "no home data line", func(s *Simulator, lines []*cache.Line) {
			lines[0].State = lineReplica
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, lines := runLinked(t)
			tc.corrupt(s, lines)
			err := s.Audit()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
