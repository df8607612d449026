package mem

import "memfwd/internal/pagetab"

// Snapshot/Restore for the functional memory state. A snapshot is a
// deep, process-local copy of the architectural state — materialized
// pages (words + fbit bitmaps) for Memory, and the full heap map
// (free/live/pinned + brk + accounting) for Allocator. It is a handle,
// not a serialized encoding: memfwd-serve migrates sessions between
// shards inside one process, so an in-memory deep copy is both the
// simplest and the fastest faithful format (DESIGN.md §10).
//
// Snapshots are immutable once taken and reusable: Restore deep-copies
// out of the snapshot again, so one snapshot can seed any number of
// target machines (e.g. a control replay plus a migration target).

// MemorySnapshot is a deep copy of a Memory's architectural state:
// every materialized page, including the per-word forwarding-bit
// bitmap, in ascending address order.
type MemorySnapshot struct {
	pages []snapPage // ascending pn
}

type snapPage struct {
	pn Addr
	p  page
}

// Snapshot captures a deep copy of the memory's architectural state.
func (m *Memory) Snapshot() *MemorySnapshot {
	s := &MemorySnapshot{pages: make([]snapPage, 0, m.pages.Len())}
	m.pages.Walk(func(pn uint64, p *page) bool {
		s.pages = append(s.pages, snapPage{Addr(pn), *p}) // page is two arrays; value copy is a deep copy
		return true
	})
	return s
}

// Restore replaces m's pages and accounting with a deep copy of the
// snapshot. The writeFault hook is left alone: fault injection is
// wiring of the target machine, not memory state.
func (m *Memory) Restore(s *MemorySnapshot) {
	m.pages = pagetab.Table[page]{}
	for i := range s.pages {
		p, _ := m.pages.Ensure(uint64(s.pages[i].pn))
		*p = s.pages[i].p
	}
	m.PagesTouched = len(s.pages)
}

// Pages returns the number of materialized pages in the snapshot.
func (s *MemorySnapshot) Pages() int { return len(s.pages) }

// AllocatorSnapshot is a deep copy of an Allocator's heap state. The
// per-size free stacks are copied slice-by-slice so LIFO reuse order —
// which determines every future Alloc address — survives the round
// trip exactly.
type AllocatorSnapshot struct {
	base, brk, end Addr
	headerBytes    uint64
	free           map[uint64][]Addr
	live           map[Addr]uint64
	pinned         map[Addr]bool
	bytesAllocated uint64
	bytesLive      uint64
	peakLive       uint64
}

// Snapshot captures a deep copy of the allocator's state.
func (al *Allocator) Snapshot() *AllocatorSnapshot {
	s := &AllocatorSnapshot{
		base:           al.base,
		brk:            al.brk,
		end:            al.end,
		headerBytes:    al.HeaderBytes,
		free:           make(map[uint64][]Addr, len(al.free)),
		live:           make(map[Addr]uint64, len(al.live)),
		pinned:         make(map[Addr]bool, len(al.pinned)),
		bytesAllocated: al.BytesAllocated,
		bytesLive:      al.BytesLive,
		peakLive:       al.PeakLive,
	}
	for size, stack := range al.free {
		s.free[size] = append([]Addr(nil), stack...)
	}
	for a, n := range al.live {
		s.live[a] = n
	}
	for a, p := range al.pinned {
		s.pinned[a] = p
	}
	return s
}

// Restore replaces the allocator's heap state with a deep copy of the
// snapshot, including the reserved range and brk: a restored session
// must hand out the exact addresses the source would have. The backing
// Memory reference and the OnEvent hook belong to the target and are
// preserved.
func (al *Allocator) Restore(s *AllocatorSnapshot) {
	al.base, al.brk, al.end = s.base, s.brk, s.end
	al.HeaderBytes = s.headerBytes
	al.free = make(map[uint64][]Addr, len(s.free))
	for size, stack := range s.free {
		al.free[size] = append([]Addr(nil), stack...)
	}
	al.live = make(map[Addr]uint64, len(s.live))
	for a, n := range s.live {
		al.live[a] = n
	}
	al.pinned = make(map[Addr]bool, len(s.pinned))
	for a, p := range s.pinned {
		al.pinned[a] = p
	}
	al.BytesAllocated = s.bytesAllocated
	al.BytesLive = s.bytesLive
	al.PeakLive = s.peakLive
}
