package sim

import (
	"fmt"

	"lacc/internal/cache"
	"lacc/internal/coherence"
	"lacc/internal/mem"
)

// Audit verifies the structural invariants of the final machine state and
// returns the first violation found. It runs automatically at the end of
// every simulation when CheckValues is enabled, complementing the golden
// store's data checks with directory/cache cross-validation:
//
//   - the directory is integrated with the L2 tags: in the fast core every
//     entry handed out is linked (cache.Line.Dir) from exactly one resident
//     home L2 line and no line links a free slot (auditLinks); in the
//     reference core every entry's home L2 slice still holds the line,
//   - an Uncached entry has no private copies anywhere,
//   - a Shared entry's exact sharer count equals the number of tiles
//     holding the line (L1 copy or, under victim replication, a replica),
//     and every identified sharer actually holds it,
//   - an Exclusive/Modified entry has exactly one copy, held by the
//     registered owner (possibly as a clean replica under VR),
//   - inclusivity: every valid L1-D line has a directory entry at its
//     recorded home.
//
// When CheckValues is on, Audit also enforces the data-value invariant at
// quiescence: every valid L1-D copy carries the latest committed version,
// and an Uncached or Shared home line is current in the L2 (Exclusive is
// exempt — a silent E→M upgrade leaves the home stale by design until the
// owner is fetched). These checks complement checkVersion, which fires
// only when a stale value is actually read; Audit catches stale copies
// that a short run never touches again, which is what lets model-checker
// counterexamples fail deterministically when replayed as traces.
func (s *Simulator) Audit() error {
	// Directory-side checks.
	for home := range s.tiles {
		if err := s.auditLinks(home); err != nil {
			return err
		}
		var fail error
		s.tiles[home].forEachEntry(func(la mem.Addr, entry *dirEntry) {
			if fail != nil {
				return
			}
			fail = s.auditEntry(home, la, entry)
		})
		if fail != nil {
			return fail
		}
	}
	// Cache-side inclusivity checks.
	for id := range s.tiles {
		if err := s.auditL1(id); err != nil {
			return err
		}
	}
	// Dirless home lines (DLS): an L2 data line with no directory entry is
	// the single authoritative copy and must be current. Inert for the
	// directory protocols, where every data line in an L2 slice has an
	// integrated directory entry.
	if s.cfg.CheckValues {
		for home := range s.tiles {
			if err := s.auditDirlessL2(home); err != nil {
				return err
			}
		}
	}
	return nil
}

// Slot claims recorded by auditLinks.
const (
	slotUnclaimed uint8 = iota
	slotFree
	slotLinked
)

// auditLinks checks the fast core's directory pool at tile home against the
// L2 lines that link into it: each slot handed out since the last clear is
// either on the free list once or linked from exactly one resident home
// data line, and no line links a free slot or one never handed out. The
// reference core keys its map by address and has no links to check.
func (s *Simulator) auditLinks(home int) error {
	ht := &s.tiles[home]
	d := &ht.dir
	if d.ref != nil {
		return nil
	}
	if cap(s.auditSlots) < d.used {
		s.auditSlots = make([]uint8, d.used)
	}
	claims := s.auditSlots[:d.used]
	clear(claims)
	for _, i := range d.free {
		if i < 0 || int(i) >= d.used {
			return fmt.Errorf("sim: audit: tile %d free list holds slot %d, outside the %d handed out", home, i, d.used)
		}
		if claims[i] != slotUnclaimed {
			return fmt.Errorf("sim: audit: tile %d frees slot %d twice", home, i)
		}
		claims[i] = slotFree
	}
	var fail error
	ht.l2.ForEach(func(l *cache.Line) {
		if fail != nil || l.Dir == 0 {
			return
		}
		i := int(l.Dir) - 1
		switch {
		case l.State == lineReplica || l.Addr >= codeBase:
			fail = fmt.Errorf("sim: audit: L2 line %#x at tile %d is no home data line but links slot %d", l.Addr, home, i)
		case i < 0 || i >= d.used:
			fail = fmt.Errorf("sim: audit: L2 line %#x at tile %d links slot %d, outside the %d handed out", l.Addr, home, i, d.used)
		case claims[i] == slotFree:
			fail = fmt.Errorf("sim: audit: L2 line %#x at tile %d links free slot %d", l.Addr, home, i)
		case claims[i] == slotLinked:
			fail = fmt.Errorf("sim: audit: L2 line %#x at tile %d links slot %d, already linked from another line", l.Addr, home, i)
		default:
			claims[i] = slotLinked
		}
	})
	if fail != nil {
		return fail
	}
	for i, c := range claims {
		if c == slotUnclaimed {
			return fmt.Errorf("sim: audit: directory slot %d at tile %d is live but no L2 line links it", i, home)
		}
	}
	return nil
}

// auditDirlessL2 enforces the data-value invariant on home L2 lines that
// have no directory entry (the DLS single point of coherence).
func (s *Simulator) auditDirlessL2(home int) error {
	ht := &s.tiles[home]
	var fail error
	ht.l2.ForEach(func(l *cache.Line) {
		if fail != nil || l.Addr >= codeBase || l.State == lineReplica {
			return
		}
		if ht.dir.entry(l) != nil {
			return
		}
		if want := s.golden.get(l.Addr); l.Version != want {
			fail = fmt.Errorf("sim: audit: dirless home line %#x at tile %d version %d, golden %d",
				l.Addr, home, l.Version, want)
		}
	})
	return fail
}

// auditEntry checks one directory entry against the caches.
func (s *Simulator) auditEntry(home int, la mem.Addr, entry *dirEntry) error {
	l2line := s.tiles[home].l2.Probe(la)
	if l2line == nil {
		return fmt.Errorf("sim: audit: directory entry %#x at tile %d without L2 line", la, home)
	}
	if s.cfg.CheckValues &&
		(entry.state == coherence.Uncached || entry.state == coherence.SharedState) {
		if want := s.golden.get(la); l2line.Version != want {
			return fmt.Errorf("sim: audit: %v home line %#x at tile %d version %d, golden %d",
				entry.state, la, home, l2line.Version, want)
		}
	}
	holders := 0
	for id := range s.tiles {
		if s.tileHasCopy(id, la) {
			holders++
		}
	}
	switch entry.state {
	case coherence.Uncached:
		if holders != 0 {
			return fmt.Errorf("sim: audit: uncached line %#x has %d copies", la, holders)
		}
	case coherence.SharedState:
		if holders != entry.sharers.Count() {
			return fmt.Errorf("sim: audit: line %#x tracks %d sharers, found %d copies",
				la, entry.sharers.Count(), holders)
		}
		for _, id := range entry.sharers.Identified() {
			if !s.tileHasCopy(int(id), la) {
				return fmt.Errorf("sim: audit: line %#x lists sharer %d without a copy", la, id)
			}
		}
	case coherence.ExclusiveState, coherence.ModifiedState:
		if holders != 1 {
			return fmt.Errorf("sim: audit: owned line %#x has %d copies", la, holders)
		}
		if !s.tileHasCopy(int(entry.owner), la) {
			return fmt.Errorf("sim: audit: line %#x owner %d holds no copy", la, entry.owner)
		}
	default:
		return fmt.Errorf("sim: audit: line %#x in unknown state %v", la, entry.state)
	}
	return nil
}

// auditL1 checks every valid L1-D line against its home directory.
func (s *Simulator) auditL1(id int) error {
	var fail error
	s.tiles[id].l1d.ForEach(func(l *cache.Line) {
		if fail != nil {
			return
		}
		_, entry := s.homeEntry(int(l.Home), l.Addr)
		if entry == nil {
			fail = fmt.Errorf("sim: audit: L1 line %#x at core %d has no directory entry at home %d",
				l.Addr, id, l.Home)
			return
		}
		if s.cfg.CheckValues {
			if want := s.golden.get(l.Addr); l.Version != want {
				fail = fmt.Errorf("sim: audit: L1 copy of %#x at core %d version %d, golden %d",
					l.Addr, id, l.Version, want)
				return
			}
		}
		switch l.State {
		case lineS:
			if entry.state != coherence.SharedState &&
				entry.state != coherence.ExclusiveState { // clean-E reinstall under VR
				fail = fmt.Errorf("sim: audit: L1 S copy of %#x at core %d but home state %v",
					l.Addr, id, entry.state)
			}
		case lineE, lineM:
			if entry.state != coherence.ExclusiveState && entry.state != coherence.ModifiedState {
				fail = fmt.Errorf("sim: audit: L1 %d copy of %#x at core %d but home state %v",
					l.State, l.Addr, id, entry.state)
			} else if int(entry.owner) != id {
				fail = fmt.Errorf("sim: audit: L1 owned copy of %#x at core %d but registered owner %d",
					l.Addr, id, entry.owner)
			}
		}
	})
	return fail
}
