// Package coherence provides the MESI state machine vocabulary and the
// ACKwise-p limited-directory sharer tracking of Kurian et al. (PACT 2010),
// which the paper uses as its baseline directory protocol (Section 3.1).
//
// A SharerSet tracks up to p sharer identities exactly; once the sharer
// count exceeds p the additional identities are dropped and only the count
// is maintained. An exclusive request must then broadcast the invalidation
// but needs acknowledgements only from the actual sharers (the count).
// A full-map directory is the special case p >= number of cores.
package coherence

import "fmt"

// State is a cache line's directory-visible coherence state.
type State uint8

// MESI directory states. Uncached means no private L1 copy exists (the data
// may still be resident in the shared L2). Exclusive covers a clean owner
// copy (E) which may silently transition to Modified in the owner's L1.
const (
	Uncached State = iota
	SharedState
	ExclusiveState
	ModifiedState
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Uncached:
		return "U"
	case SharedState:
		return "S"
	case ExclusiveState:
		return "E"
	case ModifiedState:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Inline membership-bitmap geometry: core ids below bitmapCores get O(1)
// Contains/Add via the bitmap; larger ids fall back to scanning the identity
// list (correct for any machine size, fast for every configuration the
// paper evaluates).
const (
	bitmapWords = 4
	bitmapCores = bitmapWords * 64
)

// SharerSet is an ACKwise-p sharer list: at most p identified sharers plus a
// count of unidentified ones. The zero value is unusable; construct with
// NewSharerSet (self-allocating) or NewSharerSetBacked (caller-provided
// identity storage, used by the simulator's arena-backed flat directory).
//
// The identity list preserves insertion order with swap-removal, exactly
// like the legacy ListSharerSet: the simulator's mesh contention model is
// order-sensitive, so sharer iteration order is part of the simulation's
// deterministic behavior and must not change with the representation. An
// inline bitmap (ids < 256) accelerates membership tests to O(1); for a
// full-map directory (p >= cores) that turns the per-access Add/Contains
// path from an O(cores) scan into a word operation.
type SharerSet struct {
	ids     []int16             // insertion-ordered identified sharers, cap p
	bits    [bitmapWords]uint64 // membership bitmap of identified ids < bitmapCores
	unknown int32
	p       int32
}

// NewSharerSet returns a sharer set with p hardware pointers. For a full-map
// directory pass p = number of cores.
func NewSharerSet(p int) SharerSet {
	if p <= 0 {
		panic("coherence: sharer set needs at least one pointer")
	}
	return SharerSet{ids: make([]int16, 0, p), p: int32(p)}
}

// NewSharerSetBacked returns a sharer set with p hardware pointers whose
// identity list lives in backing (cap(backing) must be at least p). The
// simulator's flat directory hands out arena slices here so directory
// entries allocate nothing.
func NewSharerSetBacked(p int, backing []int16) SharerSet {
	if p <= 0 {
		panic("coherence: sharer set needs at least one pointer")
	}
	if cap(backing) < p {
		panic(fmt.Sprintf("coherence: backing capacity %d below %d pointers", cap(backing), p))
	}
	return SharerSet{ids: backing[:0], p: int32(p)}
}

// Rebind moves the identity list into backing (cap(backing) must be at
// least p), preserving contents. The flat directory uses it when a pool
// grow relocates an entry to a new arena slot.
func (s *SharerSet) Rebind(backing []int16) {
	if cap(backing) < int(s.p) {
		panic(fmt.Sprintf("coherence: backing capacity %d below %d pointers", cap(backing), s.p))
	}
	n := len(s.ids)
	nb := backing[:n]
	copy(nb, s.ids)
	s.ids = nb
}

// Pointers returns the number of hardware pointers p.
func (s *SharerSet) Pointers() int { return int(s.p) }

// Add records core as a sharer. The protocol layer must only add cores that
// are not already sharers (an L1 miss implies no copy). When all p pointers
// are in use the identity is dropped and only the count grows.
func (s *SharerSet) Add(core int) {
	if s.Contains(core) {
		panic(fmt.Sprintf("coherence: Add of existing sharer %d", core))
	}
	if len(s.ids) < int(s.p) {
		s.ids = append(s.ids, int16(core))
		if core < bitmapCores {
			BitSet(s.bits[:]).Add(core)
		}
		return
	}
	s.unknown++
}

// Remove drops core from the set (e.g., on an L1 eviction notification). If
// the core was not an identified sharer it must be one of the unidentified
// ones, so the count is decremented.
func (s *SharerSet) Remove(core int) {
	if s.Contains(core) {
		for i, id := range s.ids {
			if id == int16(core) {
				s.ids[i] = s.ids[len(s.ids)-1]
				s.ids = s.ids[:len(s.ids)-1]
				break
			}
		}
		if core < bitmapCores {
			BitSet(s.bits[:]).Remove(core)
		}
		return
	}
	if s.unknown > 0 {
		s.unknown--
		return
	}
	panic(fmt.Sprintf("coherence: Remove of non-sharer %d", core))
}

// Contains reports whether core is an identified sharer. With overflow the
// answer for unidentified sharers is unknown; callers needing membership
// must consult MaybeSharer.
func (s *SharerSet) Contains(core int) bool {
	if core >= 0 && core < bitmapCores {
		return BitSet(s.bits[:]).Test(core)
	}
	for _, id := range s.ids {
		if id == int16(core) {
			return true
		}
	}
	return false
}

// MaybeSharer reports whether core could be a sharer (true for any core once
// the set has overflowed).
func (s *SharerSet) MaybeSharer(core int) bool {
	return s.unknown > 0 || s.Contains(core)
}

// Count returns the exact number of sharers (identified + unidentified).
// ACKwise always tracks the count so that broadcast invalidations can wait
// for exactly this many acknowledgements.
func (s *SharerSet) Count() int { return len(s.ids) + int(s.unknown) }

// Overflowed reports whether identities have been dropped; an exclusive
// request must broadcast rather than multicast.
func (s *SharerSet) Overflowed() bool { return s.unknown > 0 }

// Identified returns the identified sharer IDs (shared backing array; do not
// mutate).
func (s *SharerSet) Identified() []int16 { return s.ids }

// Clear empties the set (after a full invalidation completes).
func (s *SharerSet) Clear() {
	s.ids = s.ids[:0]
	BitSet(s.bits[:]).Clear()
	s.unknown = 0
}

// ListSharerSet is the legacy slice-scanning sharer set: a plain []int16
// identity list with linear membership tests. It is retained as the simple
// reference implementation that the bitmap-accelerated SharerSet is
// fuzz-checked against (see sharerset_fuzz_test.go); the simulator itself
// uses SharerSet.
type ListSharerSet struct {
	ids     []int16
	unknown int32
	p       int
}

// NewListSharerSet returns a legacy sharer set with p hardware pointers.
func NewListSharerSet(p int) ListSharerSet {
	if p <= 0 {
		panic("coherence: sharer set needs at least one pointer")
	}
	return ListSharerSet{ids: make([]int16, 0, p), p: p}
}

// Pointers returns the number of hardware pointers p.
func (s *ListSharerSet) Pointers() int { return s.p }

// Add records core as a sharer, dropping the identity once all p pointers
// are in use.
func (s *ListSharerSet) Add(core int) {
	if s.Contains(core) {
		panic(fmt.Sprintf("coherence: Add of existing sharer %d", core))
	}
	if len(s.ids) < s.p {
		s.ids = append(s.ids, int16(core))
		return
	}
	s.unknown++
}

// Remove drops core from the set.
func (s *ListSharerSet) Remove(core int) {
	for i, id := range s.ids {
		if id == int16(core) {
			s.ids[i] = s.ids[len(s.ids)-1]
			s.ids = s.ids[:len(s.ids)-1]
			return
		}
	}
	if s.unknown > 0 {
		s.unknown--
		return
	}
	panic(fmt.Sprintf("coherence: Remove of non-sharer %d", core))
}

// Contains reports whether core is an identified sharer.
func (s *ListSharerSet) Contains(core int) bool {
	for _, id := range s.ids {
		if id == int16(core) {
			return true
		}
	}
	return false
}

// MaybeSharer reports whether core could be a sharer.
func (s *ListSharerSet) MaybeSharer(core int) bool {
	return s.unknown > 0 || s.Contains(core)
}

// Count returns the exact number of sharers.
func (s *ListSharerSet) Count() int { return len(s.ids) + int(s.unknown) }

// Overflowed reports whether identities have been dropped.
func (s *ListSharerSet) Overflowed() bool { return s.unknown > 0 }

// Identified returns the identified sharer IDs.
func (s *ListSharerSet) Identified() []int16 { return s.ids }

// Clear empties the set.
func (s *ListSharerSet) Clear() {
	s.ids = s.ids[:0]
	s.unknown = 0
}
