package obs

import (
	"cmp"
	"fmt"
	"slices"

	"memfwd/internal/pagetab"
	"memfwd/internal/report"
)

// HeatObject is the accumulated access profile of one allocation block.
// Counters decay by halving every epoch so the map tracks current heat,
// not lifetime totals; Loads/Stores therefore approximate a
// recency-weighted access rate rather than an exact count.
type HeatObject struct {
	Base  uint64 `json:"base"`  // allocation base address
	Bytes uint64 `json:"bytes"` // allocation size
	Live  bool   `json:"live"`  // false once freed

	Loads     uint64 `json:"loads"`
	Stores    uint64 `json:"stores"`
	Forwarded uint64 `json:"forwarded"` // accesses that took >= 1 hop
	Hops      uint64 `json:"hops"`      // total hops across accesses
	MaxHops   int    `json:"maxHops"`   // longest chain ever walked here
	Traps     uint64 `json:"traps"`
	TrapCyc   uint64 `json:"trapCycles"` // cycles spent in trap handling
}

// heat returns the eviction/ranking temperature of an object.
func (o *HeatObject) heat() uint64 { return o.Loads + o.Stores }

// HeatSnapshot is an immutable reading of a HeatMap, safe to hand to
// another goroutine (the HTTP telemetry plane publishes these).
type HeatSnapshot struct {
	Objects   int          `json:"objects"`
	Live      int          `json:"live"`
	Evicted   uint64       `json:"evicted"`
	Untracked uint64       `json:"untracked"`
	Epochs    uint64       `json:"epochs"`
	Hottest   []HeatObject `json:"hottest"`
	Chains    []HeatObject `json:"chains"`
}

// Heat map defaults.
const (
	// DefaultHeatObjects bounds the table; at capacity the coldest
	// (preferring already-freed) entry is evicted.
	DefaultHeatObjects = 4096
	// DefaultHeatEpoch is how many recorded accesses pass between decay
	// epochs (each epoch halves every counter).
	DefaultHeatEpoch = 1 << 20
)

// HeatMap is a bounded, epoch-decayed per-object access profile keyed
// by allocation block identity — the promote/demote input an online
// tiering optimizer needs. It is fed from the machine's existing hook
// points (Malloc/Free/Load/Store/trap) behind nil checks, so a machine
// without one attached pays a single predictable branch and zero
// allocations per access.
//
// Tracked objects, live and freed, sit in a dense list that whole-map
// passes (decay epochs, eviction, rankings) iterate. Lookups go through
// a page table (internal/pagetab) of per-page word slots, so resolving
// an address or a base is a table walk and an array load, with no
// hashing. A word's slot holds the object that last covered it (objects
// are word-aligned, so every word belongs to at most one live block)
// and resolves only while that object is live: freeing, replacing or
// evicting an object clears no slots. Accesses to words outside any
// tracked block (stack, globals, evicted blocks) count in Untracked.
//
// Like the Machine it instruments, a HeatMap is not safe for concurrent
// use; concurrent readers get Snapshot copies.
type HeatMap struct {
	pages pagetab.Table[heatPage]
	objs  []*HeatObject // tracked objects, live and freed

	maxObjects int
	epochEvery uint64
	sinceEpoch uint64

	epochs    uint64
	evicted   uint64
	untracked uint64
}

// heatPageWords is the number of word slots per 4 KB page.
const heatPageWords = 1 << (12 - 3)

// heatPage holds one page's slots: word[i] is the object that last
// covered word i, and base[i] is one plus the objs position of the
// tracked object (live or freed) whose base is word i, or 0.
type heatPage struct {
	word [heatPageWords]*HeatObject
	base [heatPageWords]int32
}

func slot(addr uint64) uint64 { return (addr >> 3) & (heatPageWords - 1) }

// NewHeatMap builds a heat map bounded to maxObjects entries with a
// decay epoch every epochEvery accesses (<= 0 takes the defaults).
func NewHeatMap(maxObjects int, epochEvery uint64) *HeatMap {
	if maxObjects <= 0 {
		maxObjects = DefaultHeatObjects
	}
	if epochEvery == 0 {
		epochEvery = DefaultHeatEpoch
	}
	return &HeatMap{maxObjects: maxObjects, epochEvery: epochEvery}
}

// at returns the tracked object whose base is base, or nil.
func (h *HeatMap) at(base uint64) *HeatObject {
	p := h.pages.Get(base >> 12)
	if p == nil || p.base[slot(base)] == 0 {
		return nil
	}
	return h.objs[p.base[slot(base)]-1]
}

// OnAlloc registers a new allocation block (nil-safe). Reusing a base
// address replaces the previous (necessarily dead) entry.
func (h *HeatMap) OnAlloc(base, bytes uint64) {
	if h == nil {
		return
	}
	o := &HeatObject{Base: base, Bytes: bytes, Live: true}
	p, _ := h.pages.Ensure(base >> 12)
	if i := p.base[slot(base)]; i != 0 {
		// The allocator reused an address; the old block is gone.
		h.objs[i-1].Live = false
		h.objs[i-1] = o
	} else {
		if len(h.objs) >= h.maxObjects {
			h.evictColdest()
		}
		h.objs = append(h.objs, o)
		p.base[slot(base)] = int32(len(h.objs))
	}
	h.index(o)
}

// remove stops tracking objs[i], moving the last object into its place.
func (h *HeatMap) remove(i int) {
	o, last := h.objs[i], h.objs[len(h.objs)-1]
	h.pages.Get(last.Base >> 12).base[slot(last.Base)] = int32(i + 1)
	h.pages.Get(o.Base >> 12).base[slot(o.Base)] = 0
	h.objs[i] = last
	h.objs[len(h.objs)-1] = nil
	h.objs = h.objs[:len(h.objs)-1]
}

// index points every word slot of o's extent at o.
func (h *HeatMap) index(o *HeatObject) {
	var p *heatPage
	for w, end := o.Base>>3, (o.Base+o.Bytes+7)>>3; w < end; w++ {
		if p == nil || w%heatPageWords == 0 {
			p, _ = h.pages.Ensure(w / heatPageWords)
		}
		p.word[w%heatPageWords] = o
	}
}

// OnFree marks a block dead (nil-safe). The profile is retained — a
// dead-but-hot object is still interesting to Top queries — but its
// words no longer resolve and it is first in line for eviction.
func (h *HeatMap) OnFree(base uint64) {
	if h == nil {
		return
	}
	if o := h.at(base); o != nil {
		o.Live = false
	}
}

// evictColdest removes the lowest-heat entry, preferring dead blocks:
// a freed object is evicted before any live one regardless of heat.
func (h *HeatMap) evictColdest() {
	v := -1
	for i, o := range h.objs {
		if v < 0 {
			v = i
			continue
		}
		victim := h.objs[v]
		switch {
		case victim.Live && !o.Live:
			v = i
		case victim.Live == o.Live &&
			(o.heat() < victim.heat() ||
				(o.heat() == victim.heat() && o.Base < victim.Base)):
			v = i
		}
	}
	if v < 0 {
		return
	}
	h.objs[v].Live = false // its words stop resolving
	h.remove(v)
	h.evicted++
}

// lookup resolves a word address to its tracked object, if any.
func (h *HeatMap) lookup(addr uint64) *HeatObject {
	p := h.pages.Get(addr >> 12)
	if p == nil {
		return nil
	}
	if o := p.word[slot(addr)]; o != nil && o.Live {
		return o
	}
	return nil
}

// Resolve maps an address to the base of the tracked allocation block
// containing it (nil-safe). The attribution profiler uses this to key
// trap profiles by object identity rather than raw address.
func (h *HeatMap) Resolve(addr uint64) (base uint64, ok bool) {
	if h == nil {
		return 0, false
	}
	o := h.lookup(addr)
	if o == nil {
		return 0, false
	}
	return o.Base, true
}

// Get returns a copy of the tracked profile for the block at base
// (nil-safe).
func (h *HeatMap) Get(base uint64) (HeatObject, bool) {
	if o := h.Object(base); o != nil {
		return *o, true
	}
	return HeatObject{}, false
}

// Object returns the tracked profile for the block at base, live or
// freed, or nil (nil-safe). The pointer stays valid while the block is
// tracked and must not be written through; the tiering daemon reads
// the current decayed heat of every live block through it on each wake
// without copying the profile.
func (h *HeatMap) Object(base uint64) *HeatObject {
	if h == nil {
		return nil
	}
	return h.at(base)
}

// RecordAccess attributes one load or store (nil-safe). initial is the
// address the program issued (object identity follows the original
// location so heat survives relocation until the chain is collapsed);
// hops is the forwarding chain length walked (0 = direct).
func (h *HeatMap) RecordAccess(initial, final uint64, store bool, hops int) {
	if h == nil {
		return
	}
	o := h.lookup(initial)
	if o == nil && final != initial {
		// Relocated object whose source block was never tracked (or
		// evicted): fall back to the data's current home.
		o = h.lookup(final)
	}
	if o == nil {
		h.untracked++
		return
	}
	if store {
		o.Stores++
	} else {
		o.Loads++
	}
	if hops > 0 {
		o.Forwarded++
		o.Hops += uint64(hops)
		if hops > o.MaxHops {
			o.MaxHops = hops
		}
	}
	h.tick()
}

// RecordTrap attributes one forwarding trap and its handling cost.
func (h *HeatMap) RecordTrap(initial uint64, cycles int64) {
	if h == nil {
		return
	}
	o := h.lookup(initial)
	if o == nil {
		h.untracked++
		return
	}
	o.Traps++
	if cycles > 0 {
		o.TrapCyc += uint64(cycles)
	}
}

// tick advances the epoch clock; every epochEvery recorded accesses the
// counters halve, and dead entries that decay to zero heat are dropped.
func (h *HeatMap) tick() {
	h.sinceEpoch++
	if h.sinceEpoch < h.epochEvery {
		return
	}
	h.sinceEpoch = 0
	h.epochs++
	// Backwards, so remove's swap only moves already-visited objects.
	for i := len(h.objs) - 1; i >= 0; i-- {
		o := h.objs[i]
		o.Loads >>= 1
		o.Stores >>= 1
		o.Forwarded >>= 1
		o.Hops >>= 1
		o.Traps >>= 1
		o.TrapCyc >>= 1
		if !o.Live && o.heat() == 0 {
			h.remove(i)
		}
	}
}

// Len returns the number of tracked objects.
func (h *HeatMap) Len() int {
	if h == nil {
		return 0
	}
	return len(h.objs)
}

// Untracked returns the count of accesses that resolved to no tracked
// object.
func (h *HeatMap) Untracked() uint64 {
	if h == nil {
		return 0
	}
	return h.untracked
}

// top returns up to k object copies sorted by less (ties broken by
// ascending base for determinism), skipping entries where skip is true.
func (h *HeatMap) top(k int, skip func(*HeatObject) bool, less func(a, b *HeatObject) bool) []HeatObject {
	if h == nil || k <= 0 {
		return nil
	}
	objs := make([]*HeatObject, 0, len(h.objs))
	for _, o := range h.objs {
		if skip != nil && skip(o) {
			continue
		}
		objs = append(objs, o)
	}
	slices.SortFunc(objs, func(a, b *HeatObject) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return cmp.Compare(a.Base, b.Base)
	})
	if len(objs) > k {
		objs = objs[:k]
	}
	out := make([]HeatObject, len(objs))
	for i, o := range objs {
		out[i] = *o
	}
	return out
}

// Top returns the k hottest objects (loads+stores, decayed) hottest
// first.
func (h *HeatMap) Top(k int) []HeatObject {
	return h.top(k, nil, func(a, b *HeatObject) bool { return a.heat() > b.heat() })
}

// LongestChains returns the k live objects with the longest observed
// forwarding chains, longest first — the demotion/collapse candidates.
func (h *HeatMap) LongestChains(k int) []HeatObject {
	return h.top(k,
		func(o *HeatObject) bool { return !o.Live || o.MaxHops == 0 },
		func(a, b *HeatObject) bool { return a.MaxHops > b.MaxHops })
}

// Snapshot returns an immutable digest with the top-k rankings.
func (h *HeatMap) Snapshot(k int) HeatSnapshot {
	if h == nil {
		return HeatSnapshot{}
	}
	live := 0
	for _, o := range h.objs {
		if o.Live {
			live++
		}
	}
	return HeatSnapshot{
		Objects:   len(h.objs),
		Live:      live,
		Evicted:   h.evicted,
		Untracked: h.untracked,
		Epochs:    h.epochs,
		Hottest:   h.Top(k),
		Chains:    h.LongestChains(k),
	}
}

// RegisterMetrics attaches the heat map's own accounting to a registry.
func (h *HeatMap) RegisterMetrics(r *Registry) {
	r.GaugeFunc("heat.objects", func() float64 { return float64(len(h.objs)) })
	r.GaugeFunc("heat.evicted", func() float64 { return float64(h.evicted) })
	r.GaugeFunc("heat.untracked", func() float64 { return float64(h.untracked) })
	r.GaugeFunc("heat.epochs", func() float64 { return float64(h.epochs) })
}

// Report renders the top-k hottest objects as a table.
func (h *HeatMap) Report(k int) *report.Table {
	t := report.New(fmt.Sprintf("Heat map (top %d objects by decayed loads+stores)", k),
		"base", "bytes", "live", "loads", "stores", "fwd", "hops(max)", "traps", "trapCyc")
	for _, o := range h.Top(k) {
		live := "yes"
		if !o.Live {
			live = "no"
		}
		t.Add(fmt.Sprintf("0x%x", o.Base), fmt.Sprint(o.Bytes), live,
			fmt.Sprint(o.Loads), fmt.Sprint(o.Stores), fmt.Sprint(o.Forwarded),
			fmt.Sprintf("%d(%d)", o.Hops, o.MaxHops),
			fmt.Sprint(o.Traps), fmt.Sprint(o.TrapCyc))
	}
	return t
}
