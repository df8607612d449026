package mem

// Binary codec for the mem snapshots, built on internal/wire. These
// feed the sim.MachineState codec: snapshot fields are private, so
// each package serializes its own. Encodings are canonical — map keys
// are emitted in sorted order — so encoding the same state twice
// yields identical bytes, and decode validates every structural
// invariant (page alignment, ordering, count bounds) so a corrupted
// snapshot surfaces as an error from the decoder, never a panic or a
// malformed Memory downstream.

import (
	"fmt"
	"slices"

	"memfwd/internal/wire"
)

// pageEncBytes is the encoded size of one page record: page number +
// words + fbit bitmap. Used as the Count element bound.
const pageEncBytes = 8 + PageWords*8 + PageWords/8

// EncodeWire appends the snapshot's canonical encoding to w.
func (s *MemorySnapshot) EncodeWire(w *wire.Writer) {
	w.Grow(4 + len(s.pages)*pageEncBytes + 8)
	w.U32(uint32(len(s.pages)))
	for i := range s.pages {
		sp := &s.pages[i]
		w.U64(uint64(sp.pn))
		for _, word := range sp.p.words {
			w.U64(word)
		}
		for _, fb := range sp.p.fbits {
			w.U8(fb)
		}
	}
	// PagesTouched always equals the page count; it stays in the
	// encoding so the format is unchanged.
	w.Int(len(s.pages))
}

// DecodeMemorySnapshot reads a snapshot encoded by EncodeWire. Errors
// latch on r; the returned snapshot is only valid if r reports no
// error.
func DecodeMemorySnapshot(r *wire.Reader) *MemorySnapshot {
	n := r.Count(pageEncBytes)
	s := &MemorySnapshot{pages: make([]snapPage, n)}
	for i := 0; i < n; i++ {
		sp := &s.pages[i]
		sp.pn = Addr(r.U64())
		if r.Err() != nil {
			s.pages = s.pages[:i]
			return s
		}
		if i > 0 && sp.pn <= s.pages[i-1].pn {
			r.Failf("mem: page numbers out of order (%#x after %#x)", sp.pn, s.pages[i-1].pn)
			s.pages = s.pages[:i]
			return s
		}
		for j := range sp.p.words {
			sp.p.words[j] = r.U64()
		}
		for j := range sp.p.fbits {
			sp.p.fbits[j] = r.U8()
		}
	}
	// PagesTouched counts materialized pages and pages are never
	// unmapped, so it must equal the page count exactly.
	if touched := r.Int(); r.Err() == nil && touched != n {
		r.Failf("mem: pagesTouched %d != %d pages", touched, n)
	}
	return s
}

// EncodeWire appends the allocator snapshot's canonical encoding to w.
func (s *AllocatorSnapshot) EncodeWire(w *wire.Writer) {
	w.U64(uint64(s.base))
	w.U64(uint64(s.brk))
	w.U64(uint64(s.end))
	w.U64(s.headerBytes)

	// Free stacks: sorted by size class; each stack kept in order —
	// LIFO reuse determines every future Alloc address.
	sizes := make([]uint64, 0, len(s.free))
	for size := range s.free {
		sizes = append(sizes, size)
	}
	slices.Sort(sizes)
	w.U32(uint32(len(sizes)))
	for _, size := range sizes {
		stack := s.free[size]
		w.U64(size)
		w.U32(uint32(len(stack)))
		for _, a := range stack {
			w.U64(uint64(a))
		}
	}

	lives := make([]Addr, 0, len(s.live))
	for a := range s.live {
		lives = append(lives, a)
	}
	slices.Sort(lives)
	w.U32(uint32(len(lives)))
	for _, a := range lives {
		w.U64(uint64(a))
		w.U64(s.live[a])
	}

	pins := make([]Addr, 0, len(s.pinned))
	for a := range s.pinned {
		pins = append(pins, a)
	}
	slices.Sort(pins)
	w.U32(uint32(len(pins)))
	for _, a := range pins {
		w.U64(uint64(a))
		w.Bool(s.pinned[a])
	}

	w.U64(s.bytesAllocated)
	w.U64(s.bytesLive)
	w.U64(s.peakLive)
}

// DecodeAllocatorSnapshot reads a snapshot encoded by EncodeWire.
func DecodeAllocatorSnapshot(r *wire.Reader) *AllocatorSnapshot {
	s := &AllocatorSnapshot{
		base:        Addr(r.U64()),
		brk:         Addr(r.U64()),
		end:         Addr(r.U64()),
		headerBytes: r.U64(),
	}
	if r.Err() == nil && (s.base&WordMask != 0 || s.brk < s.base || s.end < s.brk) {
		r.Failf("mem: allocator range base=%#x brk=%#x end=%#x invalid", s.base, s.brk, s.end)
		return s
	}

	nSizes := r.Count(12)
	s.free = make(map[uint64][]Addr, nSizes)
	prevSize := uint64(0)
	for i := 0; i < nSizes; i++ {
		size := r.U64()
		if r.Err() != nil {
			return s
		}
		if i > 0 && size <= prevSize {
			r.Failf("mem: free size classes out of order (%d after %d)", size, prevSize)
			return s
		}
		prevSize = size
		nStack := r.Count(8)
		stack := make([]Addr, 0, nStack)
		for j := 0; j < nStack; j++ {
			stack = append(stack, Addr(r.U64()))
		}
		s.free[size] = stack
	}

	nLive := r.Count(16)
	s.live = make(map[Addr]uint64, nLive)
	prevA := Addr(0)
	for i := 0; i < nLive; i++ {
		a := Addr(r.U64())
		if r.Err() != nil {
			return s
		}
		if i > 0 && a <= prevA {
			r.Failf("mem: live addresses out of order (%#x after %#x)", a, prevA)
			return s
		}
		prevA = a
		s.live[a] = r.U64()
	}

	nPin := r.Count(9)
	s.pinned = make(map[Addr]bool, nPin)
	prevA = 0
	for i := 0; i < nPin; i++ {
		a := Addr(r.U64())
		if r.Err() != nil {
			return s
		}
		if i > 0 && a <= prevA {
			r.Failf("mem: pinned addresses out of order (%#x after %#x)", a, prevA)
			return s
		}
		prevA = a
		s.pinned[a] = r.Bool()
	}

	s.bytesAllocated = r.U64()
	s.bytesLive = r.U64()
	s.peakLive = r.U64()
	return s
}

// ValidateTierConfig checks cfg against the exact conditions NewTiers
// panics on, returning an error instead — the decode path must be able
// to reject a corrupted tier config without building it.
func ValidateTierConfig(cfg *TierConfig) error {
	n := len(cfg.Latencies)
	if n < 2 {
		return errTierf("a tiered memory needs at least 2 tiers, got %d", n)
	}
	if len(cfg.Capacities) != n {
		return errTierf("%d latencies but %d capacities", n, len(cfg.Capacities))
	}
	for i := 0; i < n; i++ {
		if cfg.Latencies[i] <= 0 {
			return errTierf("tier %d latency %d must be positive", i, cfg.Latencies[i])
		}
		if i > 0 && cfg.Latencies[i] < cfg.Latencies[i-1] {
			return errTierf("latencies must be non-decreasing (tier %d: %d < %d)",
				i, cfg.Latencies[i], cfg.Latencies[i-1])
		}
		if c := cfg.Capacities[i]; c == 0 || c&WordMask != 0 || c > maxTierCapacity {
			return errTierf("tier %d capacity %#x must be word-aligned, nonzero, and at most %#x",
				i, c, maxTierCapacity)
		}
	}
	return nil
}

func errTierf(format string, args ...any) error {
	return fmt.Errorf("mem: tier config: "+format, args...)
}
