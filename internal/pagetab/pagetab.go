// Package pagetab is a direct-indexed page table: a map from 64-bit
// page numbers to per-page records that takes no hashing and walks its
// pages in ascending page-number order.
//
// The simulated address space is sparse but clustered: the guest heap
// sits below 2^31, serve shard arenas at 0x4_0000_0000·(shard+1), tier
// windows from 2^40. The table therefore has three levels: a short
// sorted list of regions (one per 16 MB of address space that holds
// any page), a directory of leaves per region, and leaves of page
// pointers. A lookup searches the region list (a handful of entries in
// practice) and loads three arrays. Storage is allocated on first touch
// only: an empty table costs nothing, and each
// region in use costs a 512-byte directory plus a 512-byte leaf per
// 256 KB touched. The nodes are kept that small because a session
// server holds hundreds of small memories at once, each touching a few
// pages in two or three regions.
//
// Entries are never removed: every user (mem's pages, the heat map's
// word slots, the tiering daemon's base index) keeps a page once it
// exists and clears its contents instead. Lookups and walks do not
// write the table; adding a page must not run concurrently with either.
package pagetab

import "sort"

const (
	leafBits  = 6 // pages per leaf: 64 × 4 KB pages = 256 KB
	dirBits   = 6 // leaves per region: 64 × 256 KB = 16 MB
	leafMask  = 1<<leafBits - 1
	dirMask   = 1<<dirBits - 1
	keyShift  = leafBits + dirBits
	leafSlots = 1 << leafBits
	dirSlots  = 1 << dirBits
)

type leaf[P any] [leafSlots]*P

type region[P any] struct {
	key uint64 // page number >> keyShift
	dir *[dirSlots]*leaf[P]
}

// Table maps page numbers to *P. The zero value is an empty table.
type Table[P any] struct {
	regions []region[P] // ascending key
	n       int
}

// Len returns the number of pages present.
func (t *Table[P]) Len() int { return t.n }

// Get returns page pn, or nil if it is not present.
func (t *Table[P]) Get(pn uint64) *P {
	r := t.find(pn >> keyShift)
	if r == nil {
		return nil
	}
	l := r.dir[(pn>>leafBits)&dirMask]
	if l == nil {
		return nil
	}
	return l[pn&leafMask]
}

// Ensure returns page pn, allocating a zero *P first if it is not
// present. The second result reports whether the page was created.
func (t *Table[P]) Ensure(pn uint64) (*P, bool) {
	if p := t.Get(pn); p != nil {
		return p, false
	}
	r := t.find(pn >> keyShift)
	if r == nil {
		r = t.insert(pn >> keyShift)
	}
	li := (pn >> leafBits) & dirMask
	l := r.dir[li]
	if l == nil {
		l = new(leaf[P])
		r.dir[li] = l
	}
	p := new(P)
	l[pn&leafMask] = p
	t.n++
	return p, true
}

// Walk calls fn for every present page in ascending page-number order
// and stops early when fn returns false.
func (t *Table[P]) Walk(fn func(pn uint64, p *P) bool) {
	for i := range t.regions {
		r := &t.regions[i]
		for li, l := range r.dir {
			if l == nil {
				continue
			}
			base := r.key<<keyShift | uint64(li)<<leafBits
			for pi, p := range l {
				if p != nil && !fn(base|uint64(pi), p) {
					return
				}
			}
		}
	}
}

// find returns the region with key k, or nil.
func (t *Table[P]) find(k uint64) *region[P] {
	rs := t.regions
	// Linear for the usual handful of regions, binary beyond.
	if len(rs) <= 8 {
		for i := range rs {
			if rs[i].key == k {
				return &rs[i]
			}
		}
		return nil
	}
	i := sort.Search(len(rs), func(i int) bool { return rs[i].key >= k })
	if i < len(rs) && rs[i].key == k {
		return &rs[i]
	}
	return nil
}

// insert adds an empty region with key k in sorted position.
func (t *Table[P]) insert(k uint64) *region[P] {
	i := sort.Search(len(t.regions), func(i int) bool { return t.regions[i].key >= k })
	t.regions = append(t.regions, region[P]{})
	copy(t.regions[i+1:], t.regions[i:])
	t.regions[i] = region[P]{key: k, dir: new([dirSlots]*leaf[P])}
	return &t.regions[i]
}
