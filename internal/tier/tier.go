// Package tier implements the online adaptive memory-tiering daemon —
// the OBASE direction applied to the paper's mechanism. The paper's
// guarantee is that relocation is always safe; tiering is the modern
// payoff: if an object can be moved at any time, its *placement* in a
// latency-tiered physical address space can be re-decided continuously,
// online, instead of once by an offline pass.
//
// Geometry: the guest heap is NEAR memory (tier 0) — data is born
// fast, as in a DRAM-plus-CXL system — and tiers 1..N-1 are far
// windows. Near memory is finite: the daemon holds near residency to a
// budget (FastFrac of live heap bytes, floored at MinBudget) with two
// levers. First, *demotion*: cold near-resident objects are relocated
// into the far window through the production opt.TryRelocate two-phase
// commit, so the forwarding chain keeps them reachable while their
// bytes stop competing for near capacity. Second, *spill placement*:
// when near memory is over budget anyway, the daemon's mem.Allocator
// Place hook routes new allocations straight into the far window — a
// direct address with no forwarding chain at all. Demotion is the
// lever that matters because of how forwarding is priced in this
// machine: every access to a relocated object walks its chain through
// the cache starting at the *original* address, so moving a hot object
// never beats leaving it (the chain walk re-touches the old location),
// while moving a cold object costs almost nothing and buys headroom
// that lets the allocator keep placing new, hot data near. Promotion
// (hauling a far-resident object into tier 0's near-latency window)
// exists as a mechanism and fires only for objects that turn
// decisively hot (PromoteMin), precisely because of that chain-walk
// price.
//
// The Daemon wraps an app.Machine (the same interception pattern as
// the chaos Relocator): it delegates every guest operation, counts
// guest operations as its clock — no wall time anywhere, so runs are
// deterministic and replay from a seed — and wakes every ~Every
// operations to re-rank objects. Ranking input is an obs.HeatMap
// (decayed per-object loads/stores plus the trap attribution the fprof
// profiler keys off the same map) — either the machine's own map,
// shared in, or a private map the daemon feeds from its interception
// point.
//
// Every migration goes through the production opt.TryRelocate
// two-phase commit, so online tiering inherits the whole safety story
// for free: Figure 4(a) chain-append legality, journaling through any
// installed fault injector, and fault.Scavenge roll-forward — a crash
// induced mid-migration is recovered and the move completes, exactly
// as the crash-consistency harness proves for offline relocation. The
// differential and chaos harnesses run unchanged with the daemon
// enabled: a migrator that changed what the program computes would be
// a safety-claim violation, and the tests treat it as one.
package tier

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"memfwd/internal/apps/app"
	"memfwd/internal/core"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/opt"
	"memfwd/internal/pagetab"
)

// Config parameterizes a Daemon. Tiers is required; everything else
// has workable defaults.
type Config struct {
	// Tiers is the tier geometry spec (shared with the machine's
	// sim.Config.Tiers so daemon and timing model agree on every
	// address's tier).
	Tiers *mem.TierConfig

	// Seed drives the wake jitter; runs replay deterministically.
	Seed int64

	// Every is the mean number of guest operations between wakes
	// (default 4096).
	Every int

	// FastFrac is the near-memory residency budget as a fraction of
	// the allocator's live heap bytes (default 0.25).
	FastFrac float64

	// MinBudget floors the near budget in bytes (default 64KB), so a
	// small or starting workload is not forced far by a near-zero
	// fraction of its near-zero live bytes.
	MinBudget uint64

	// Headroom is the fraction of the near budget the daemon keeps
	// free by demoting cold data (default 0.25). This is what makes
	// the daemon *adaptive*: new allocations are hot by recency, so
	// each wake demotes the coldest near residents until that much of
	// the budget is free, and the next phase's data lands near instead
	// of spilling. Spill placement itself only fires at the full
	// budget; headroom is purely the demotion target.
	Headroom float64

	// MaxMoves bounds demotions per wake (default 64); promotions get
	// the same budget again. The safety gates (idle patience, spill
	// pressure, heat-map evidence) pick the victims; this only spreads
	// the move work across wakes. Demotion benefit accrues solely to
	// allocations made after the budget is freed, so draining the idle
	// pool too slowly forfeits most of it.
	MaxMoves int

	// MaxObjectBytes bounds what the daemon will move or spill
	// (default 1MB).
	MaxObjectBytes uint64

	// TopK is the demotion cap for a OneShot pass (default 64), which
	// gets one chance to move everything worth moving.
	TopK int

	// PromoteMin is the access-delta bar a far-resident object must
	// clear between two wakes before the daemon hauls it back near
	// (default 1024, a quarter of the default Every — promotion pays
	// the chain-walk price forever, so the bar is high). 0 disables
	// promotion entirely.
	PromoteMin uint64

	// IdleWakes is how many consecutive zero-delta wakes a block must
	// sit through before it is demotable (default 16). Data traversed
	// on a cycle longer than one wake window looks momentarily cold;
	// patience separates "between touches" from "never coming back".
	// This is only the starting patience: each wake the daemon counts
	// demoted blocks that turned hot again (remorse) and doubles its
	// working patience while mistakes keep surfacing, relaxing back
	// one wake at a time when they stop.
	IdleWakes int

	// OneShot makes the daemon a paper-style static optimizer: the
	// first wake runs one big demotion pass over the heat observed so
	// far (moves capped by TopK, not MaxMoves), then the policy goes
	// quiet forever. The spill placement hook stays live — near
	// capacity is physics, not policy — but residency is never
	// re-decided, which is exactly what the adaptive daemon fixes.
	OneShot bool

	// Heat, when non-nil, is an external heat map to consume (normally
	// the machine's own, which then also carries full trap-cost and
	// hop attribution). When nil the daemon feeds a private map from
	// its own interception point.
	Heat *obs.HeatMap
}

// Stats is the daemon's accounting, exposed to /metrics gauges and the
// figure pipeline.
type Stats struct {
	Wakes         uint64
	Promotions    uint64
	Demotions     uint64
	PromotedBytes uint64
	DemotedBytes  uint64

	// Placed counts allocations the Place hook carved from the tier-0
	// near window (the tiered allocator's default home for guest
	// data); Spills counts the ones routed to the far window instead
	// because near memory was over budget.
	Placed       uint64
	PlacedBytes  uint64
	Spills       uint64
	SpilledBytes uint64

	// Aborted counts migrations TryRelocate refused (error without an
	// injector armed); the heap stays consistent — phase-1 copies are
	// invisible until planted — but the arena bytes are wasted.
	Aborted uint64
	// Repaired counts migrations torn by an injected fault and rolled
	// forward from their journal by fault.Scavenge.
	Repaired uint64

	SkippedBudget uint64 // promotion candidates past the near budget
	SkippedArena  uint64 // window exhausted

	// Remorse counts demoted blocks later caught with fresh accesses —
	// demotions the policy now knows were mistakes. Each remorseful
	// wake doubles the daemon's working idle patience.
	Remorse uint64

	// Accesses counts intercepted guest loads+stores by the tier the
	// touched object currently resides in (unattributed accesses count
	// as tier 0: untracked data lives on the near heap).
	Accesses []uint64
}

// HitRate returns the fraction of attributed accesses that landed in
// tier i.
func (s *Stats) HitRate(i int) float64 {
	var total uint64
	for _, n := range s.Accesses {
		total += n
	}
	if total == 0 || i >= len(s.Accesses) {
		return 0
	}
	return float64(s.Accesses[i]) / float64(total)
}

// block is the daemon's state for one allocation block, kept from the
// allocator's alloc and free events rather than rebuilt on each wake.
type block struct {
	base   mem.Addr
	size   uint64 // rounded usable size, as the allocator reports it
	pinned bool
	used   bool // the slab slot holds a block
	dead   bool // freed; finalized at the next wake (see Daemon.dead)

	// Residency: the window the data currently lives in (spilled,
	// demoted, or promoted back), with its word-rounded bytes matching
	// Take/Release accounting. Bases are object identity — TryRelocate
	// leaves the base forwarding, and a spilled block's base is its
	// window address — so residency stays valid across any number of
	// moves.
	resident bool
	tier     int
	resBytes uint64
	moved    int // migrations of this block, bounding promote/demote thrash

	// Ranking state carried between wakes: the cumulative heatKey at
	// the previous wake (so each wake can take a delta), an exponential
	// moving average of those deltas, which is the score policy
	// actually ranks on, and the count of consecutive zero-delta wakes.
	// Cumulative totals invert the signal (a long-lived object on its
	// way out ranks hotter than a just-born hot one); a raw
	// single-window delta overcorrects (an object mid-way through a
	// traversal cycle longer than one wake scores zero and gets demoted
	// while still hot). The EWMA — halved each wake, then bumped by the
	// fresh delta — is the middle ground: recency-weighted with a few
	// wakes of memory.
	last  uint64
	score uint64
	idle  int
	known bool // the heat map tracked the block at the last wake: its score is evidence, not absence
}

func (b *block) far() bool { return b.resident && b.tier > 0 }

// basePage maps each word of a 4 KB page to the block based there: its
// slab index plus one, or 0.
type basePage [mem.PageWords]int32

// Daemon is the migrator. Like the machine it wraps, it is not safe
// for concurrent use; in the session server it lives under the same
// gate that serializes the machine.
//
// Per-block state lives in a slab (blocks) indexed by base address
// through a page table (index), both maintained from the allocator's
// events. A wake is one linear pass over the slab, one heat lookup per
// block, plus an address-order walk of the index when it demotes — no
// sort of the heap, no map, no hashing. Its decisions are exactly those
// of a full rescan of the allocator's sorted live set: DESIGN.md §11
// gives the invariant.
type Daemon struct {
	inner app.Machine
	al    *mem.Allocator
	tiers *mem.Tiers
	cfg   Config
	rng   *rand.Rand

	countdown int
	inWake    bool
	inMalloc  bool // a timed guest Malloc is on the stack: spill placement may apply
	fired     bool // OneShot policy completed

	heat    *obs.HeatMap
	ownHeat bool

	guestTrap core.TrapHandler
	tap       core.TrapHandler // d.trapTap, bound once: taking a method value allocates

	// hooked is the allocator whose event hook feeds the daemon.
	hooked *mem.Allocator

	blocks []block
	free   []int32 // unused slab slots
	index  pagetab.Table[basePage]
	nlive  int // live blocks; must equal the allocator's count at a wake
	nmoved int // blocks with moved > 0: while 0, geometry alone attributes accesses
	pins   int // the allocator's pin count when block pin flags were last read

	// dead lists blocks freed since the last wake. Their state is kept
	// until that wake, exactly as a full rescan of the allocator's live
	// set would first notice them there: a base the allocator reuses in
	// between inherits the previous block's ranking and residency.
	dead []int32

	// placedAt is the window address the Place hook just carved (in
	// placedTier, placedBytes of window): the allocator's alloc event
	// for it claims that residency.
	placedAt    mem.Addr
	placedTier  int
	placedBytes uint64

	// farBytes is the rounded total of resident bytes in tiers >= 1,
	// so nearLive is O(1) on the allocation path.
	farBytes uint64

	// patience is the working idle-wake bar for demotion, seeded from
	// cfg.IdleWakes and self-tuned: doubled while demoted blocks keep
	// turning hot again (remorse), relaxed by one when they don't.
	patience int

	// lastSpills is Stats.Spills at the previous wake; the difference
	// is current allocation pressure, which gates demotion.
	lastSpills uint64

	promos []promo // scratch: a wake's promotion candidates

	stats Stats
}

type promo struct {
	score uint64
	base  mem.Addr
	i     int32
}

var _ app.Machine = (*Daemon)(nil)

const maxObjectMoves = 32

// daemonHeatObjects sizes the daemon's private heat map when the
// caller shares none: large enough to track every live block of the
// workloads this simulator runs, because residency decisions refuse to
// act on untracked blocks.
const daemonHeatObjects = 1 << 16

// maxPatience caps the self-tuned idle bar; past this the daemon has
// effectively concluded the workload never goes idle and stops
// demoting for the rest of a typical run.
const maxPatience = 1 << 12

// New wraps inner with a tiering daemon and installs its spill
// placement hook and its event listener on inner's allocator (after
// any listener already there, such as the machine's heat map, which
// must therefore be attached first). The wrapped machine — not inner —
// must be handed to the guest, or the daemon never ticks.
func New(inner app.Machine, cfg Config) *Daemon {
	if cfg.Tiers == nil {
		panic("tier: Config.Tiers is required")
	}
	if cfg.Every <= 0 {
		cfg.Every = 4096
	}
	if cfg.FastFrac <= 0 || cfg.FastFrac > 1 {
		cfg.FastFrac = 0.25
	}
	if cfg.MinBudget == 0 {
		cfg.MinBudget = 64 << 10
	}
	if cfg.Headroom <= 0 || cfg.Headroom >= 1 {
		cfg.Headroom = 0.25
	}
	if cfg.MaxMoves <= 0 {
		cfg.MaxMoves = 64
	}
	if cfg.MaxObjectBytes == 0 {
		cfg.MaxObjectBytes = 1 << 20
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 64
	}
	if cfg.PromoteMin == 0 {
		cfg.PromoteMin = 1024
	}
	if cfg.IdleWakes <= 0 {
		cfg.IdleWakes = 16
	}
	d := &Daemon{
		inner:    inner,
		tiers:    mem.NewTiers(cfg.Tiers),
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		heat:     cfg.Heat,
		patience: cfg.IdleWakes,
	}
	if d.heat == nil {
		// Sized for whole-heap coverage: residency policy treats an
		// untracked block as unknowable, so a telemetry-sized table
		// (DefaultHeatObjects) would leave most of a list-heavy heap
		// unmanageable.
		d.heat = obs.NewHeatMap(daemonHeatObjects, 0)
		d.ownHeat = true
	}
	// Install the trap tap so trap attribution flows into a private
	// heat map even if the guest never installs a handler.
	d.tap = d.trapTap
	if d.ownHeat {
		inner.SetTrap(d.tap)
	}
	d.Rebind()
	d.reload()
	return d
}

// Tiers returns the daemon's realized tier geometry (same spec, hence
// same geometry, as the wrapped machine's). The daemon's instance is
// the single carver of window space; the machine's own copy only
// answers latency lookups.
func (d *Daemon) Tiers() *mem.Tiers { return d.tiers }

// Rebind re-caches the wrapped machine's allocator and re-installs the
// placement hook and event listener on it. For hosts that swap the
// underlying machine out from under the interception chain (the
// session server's live migration): the daemon — per-block residency
// and ranking state, window cursors — is host state and persists
// across the swap, but the allocator is machine state and does not.
// Call with the machine quiesced, after the swap (and after attaching
// the new machine's heat map).
func (d *Daemon) Rebind() {
	d.al = d.inner.Allocator()
	d.al.Place = d.place
	if d.hooked != d.al {
		al, prev := d.al, d.al.OnEvent
		al.OnEvent = func(op string, a mem.Addr, size uint64) {
			if prev != nil {
				prev(op, a, size)
			}
			if al == d.al {
				d.onEvent(op, a, size)
			}
		}
		d.hooked = al
	}
	// Reconcile with the allocator's live set: a block it no longer
	// holds is freed, one it holds that the daemon lacks is allocated.
	for i := range d.blocks {
		if b := &d.blocks[i]; b.used && !b.dead && !d.al.Live(b.base) {
			d.onEvent("free", b.base, b.size)
		}
	}
	for _, base := range d.al.LiveBlocks() {
		size, _ := d.al.SizeOf(base)
		d.allocated(base, size)
	}
	d.pins = -1
}

// Stats returns a copy of the daemon's accounting.
func (d *Daemon) Stats() Stats {
	s := d.stats
	s.Accesses = append([]uint64(nil), d.stats.Accesses...)
	return s
}

// Heat returns the heat map the daemon consumes.
func (d *Daemon) Heat() *obs.HeatMap { return d.heat }

// NearLive returns the bytes of live heap data currently resident in
// near memory (tier 0).
func (d *Daemon) NearLive() uint64 { return d.nearLive() }

// FarLive returns the bytes of live heap data currently resident in
// far windows (tiers >= 1).
func (d *Daemon) FarLive() uint64 { return d.farBytes }

// RegisterMetrics exposes the daemon's accounting as gauges.
func (d *Daemon) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("tier.wakes", func() float64 { return float64(d.stats.Wakes) })
	r.GaugeFunc("tier.promotions", func() float64 { return float64(d.stats.Promotions) })
	r.GaugeFunc("tier.demotions", func() float64 { return float64(d.stats.Demotions) })
	r.GaugeFunc("tier.spills", func() float64 { return float64(d.stats.Spills) })
	r.GaugeFunc("tier.near.bytesLive", func() float64 { return float64(d.nearLive()) })
	r.GaugeFunc("tier.far.bytesLive", func() float64 { return float64(d.farBytes) })
	r.GaugeFunc("tier.near.hitRate", func() float64 {
		s := d.stats
		return s.HitRate(0)
	})
}

func (d *Daemon) reload() { d.countdown = 1 + d.rng.Intn(2*d.cfg.Every) }

// budget is the near-memory residency target in bytes.
func (d *Daemon) budget() uint64 {
	b := uint64(float64(d.al.BytesLive) * d.cfg.FastFrac)
	if b < d.cfg.MinBudget {
		b = d.cfg.MinBudget
	}
	return b
}

// nearLive is the live heap bytes resident in near memory: everything
// the allocator carries minus what lives in far windows.
func (d *Daemon) nearLive() uint64 {
	if d.farBytes >= d.al.BytesLive {
		return 0
	}
	return d.al.BytesLive - d.farBytes
}

// place is the allocator's Place hook — the tiered allocator itself.
// Every timed guest allocation is carved from a tier arena: the tier-0
// window while near memory has budget room, the far window once it is
// over budget (a direct far address, no forwarding chain — "spilled").
// Placement physics is identical for the static and adaptive arms;
// what the adaptive daemon changes is how much budget is free when an
// allocation arrives. Untimed allocations (arena carving, heap
// pre-aging) always stay on the legacy heap: they are experiment
// scaffolding, not guest data the daemon is entitled to place.
func (d *Daemon) place(size uint64) mem.Addr {
	if !d.inMalloc || d.inWake || size > d.cfg.MaxObjectBytes {
		return 0
	}
	// Pad like the heap does: the windows are served by the same
	// malloc, so a placed block must not be denser than a heap block —
	// otherwise placement would smuggle in a layout optimization
	// instead of modeling tier residency.
	take := roundUp(size + d.al.HeaderBytes)
	tier := 0
	if d.nearLive()+size > d.budget() {
		tier = d.tiers.Slowest()
	}
	a := d.tiers.Take(tier, take)
	if a == 0 {
		d.stats.SkippedArena++
		return 0
	}
	d.placedAt, d.placedTier, d.placedBytes = a, tier, take
	if tier > 0 {
		d.farBytes += take
		d.stats.Spills++
		d.stats.SpilledBytes += size
	} else {
		d.stats.Placed++
		d.stats.PlacedBytes += size
	}
	return a
}

// trapTap records trap attribution into the private heat map and
// forwards to the guest's handler.
func (d *Daemon) trapTap(ev core.Event) {
	d.heat.RecordTrap(uint64(ev.Initial), 0)
	if d.guestTrap != nil {
		d.guestTrap(ev)
	}
}

// tick is the daemon's clock: one call per intercepted guest
// operation, a wake when the countdown expires.
func (d *Daemon) tick() {
	if d.inWake {
		return
	}
	d.countdown--
	if d.countdown > 0 {
		return
	}
	d.reload()
	d.wake()
}

// record attributes one guest access to the tier the touched data
// currently resides in, and feeds the private heat map when the daemon
// owns it.
func (d *Daemon) record(a mem.Addr, store bool) {
	if d.ownHeat {
		d.heat.RecordAccess(uint64(a), uint64(a), store, 0)
	}
	if d.stats.Accesses == nil {
		d.stats.Accesses = make([]uint64, d.tiers.N())
	}
	// Geometry answers for direct addresses (heap and spilled blocks);
	// residency corrects for relocated objects, whose guest address is
	// the near base but whose data lives where it was moved. Object
	// identity is the heat map's, as in ranking: a block it does not
	// track is attributed by geometry. Only migrated blocks can differ
	// from geometry, so while there are none the lookup is skipped.
	t := d.tiers.TierOf(a)
	if d.nmoved > 0 {
		if base, ok := d.heat.Resolve(uint64(a)); ok {
			if i := d.blockAt(mem.Addr(base)); i >= 0 && d.blocks[i].resident {
				t = d.blocks[i].tier
			}
		}
	}
	d.stats.Accesses[t]++
}

// heatKey ranks a candidate: decayed loads+stores plus the trap count
// the profiler attributed to the object. Forwarding traps are paid on
// the access path, so a trap-heavy object is exactly as worth keeping
// near as a load-heavy one.
func heatKey(o *obs.HeatObject) uint64 { return o.Loads + o.Stores + o.Traps }

// wake runs one policy pass: finalize blocks freed since the last
// wake, re-rank every live block, demote the coldest near-resident
// objects while near memory is over budget, then haul back any
// far-resident object that turned decisively hot. Guest traps are
// masked for the duration — the daemon models an agent outside the
// program, and its migrations must not invoke guest trap code.
func (d *Daemon) wake() {
	if d.cfg.OneShot && d.fired {
		return
	}
	d.fired = true
	d.inWake = true
	d.inner.SetTrap(nil)
	defer func() {
		if d.ownHeat {
			d.inner.SetTrap(d.tap)
		} else {
			d.inner.SetTrap(d.guestTrap)
		}
		d.inWake = false
	}()
	d.stats.Wakes++
	if n := d.al.Blocks(); n != d.nlive {
		panic(fmt.Sprintf("tier: daemon tracks %d live blocks, allocator has %d "+
			"(allocator event hook replaced after tier.New?)", d.nlive, n))
	}

	// Blocks freed since the last wake release their residency and
	// ranking state now; the allocator is the authority on liveness.
	for _, i := range d.dead {
		if b := &d.blocks[i]; b.used && b.dead {
			d.dropResidency(b)
			d.release(i)
		}
	}
	d.dead = d.dead[:0]
	// Pinning is not an allocator event; arenas pin their backing block
	// right after carving it, and a pinned block is never freed, so the
	// flags need re-reading only when the allocator's pin count moved.
	if n := d.al.Pins(); n != d.pins {
		for i := range d.blocks {
			if b := &d.blocks[i]; b.used {
				b.pinned = d.al.Pinned(b.base)
			}
		}
		d.pins = n
	}

	budget := d.budget()
	maxMoves := d.cfg.MaxMoves
	if d.cfg.OneShot {
		maxMoves = d.cfg.TopK
	}

	// Rank every live block by its access delta since the last wake (a
	// OneShot pass sees lifetime totals — all it can know), and list the
	// far-resident ones hot enough to promote. The slab's order is
	// immaterial: victims and promotions are ordered below.
	var remorse int
	d.promos = d.promos[:0]
	for i := range d.blocks {
		b := &d.blocks[i]
		if !b.used || b.dead {
			continue
		}
		delta := d.rank(b)
		if !d.movable(b) {
			continue
		}
		// A block the daemon itself demoted (spills have moved == 0)
		// showing fresh accesses is a caught mistake: it now pays a
		// chain walk per touch that leaving it alone would not have.
		if delta > 0 && b.far() && b.moved > 0 {
			remorse++
		}
		if d.cfg.PromoteMin > 0 && b.far() && b.moved < maxObjectMoves && b.score >= d.cfg.PromoteMin {
			d.promos = append(d.promos, promo{b.score, b.base, int32(i)})
		}
	}

	// Self-tuning patience: while demotion mistakes keep surfacing,
	// back off aggressively (the workload's re-touch cycle is longer
	// than the current bar); when they stop, relax one wake at a time
	// toward the configured floor.
	if remorse > 0 {
		d.stats.Remorse += uint64(remorse)
		d.patience *= 2
		if d.patience > maxPatience {
			d.patience = maxPatience
		}
	} else if d.patience > d.cfg.IdleWakes {
		d.patience--
	}

	// Demote: only blocks whose EWMA has decayed to zero — confirmed
	// idle for several consecutive wakes, not merely quiet in one
	// window. Demoting anything still warm is pure loss (the move cost
	// plus a forwarding hop on every later access, versus a freed
	// budget slice that near memory never needed — latency here is
	// per-address, not per-occupancy). Demoting the truly idle is the
	// adaptive lever: it frees budget so the next phase's allocations
	// are born near instead of spilling far, which a one-shot pass
	// cannot do once its moment has passed.
	// Demotion is worth its move cost only if the freed budget gets
	// used: when no allocation spilled since the last wake, nothing is
	// asking for near memory and a demotion would buy headroom nobody
	// spends (near latency is per-address — unoccupied budget earns
	// nothing). A OneShot pass is exempt: it is the one chance to act
	// on whatever pressure the whole warmup showed.
	pressure := d.stats.Spills - d.lastSpills
	d.lastSpills = d.stats.Spills

	target := budget - uint64(float64(budget)*d.cfg.Headroom)
	if d.nearLive() > target && (pressure > 0 || d.cfg.OneShot) {
		// Victims go coldest first; every victim's score is zero, so
		// that is ascending address order — the table walk's order. A
		// block the heat map does not track is unknown, not cold — an
		// evicted-but-hot block demoted on absence of evidence would
		// pay a chain walk on every later access.
		moves := 0
		slow := d.tiers.Slowest()
		d.walk(func(i int32) bool {
			if d.nearLive() <= target || moves >= maxMoves {
				return false
			}
			b := &d.blocks[i]
			if b.far() || !b.known || !d.movable(b) || b.moved >= maxObjectMoves ||
				b.score != 0 || b.idle < d.patience {
				return true
			}
			if !d.migrate(i, slow) {
				return false // window exhausted; no point trying further victims
			}
			moves++
			return true
		})
	}

	// Promote: a far-resident object hot enough to clear PromoteMin
	// since the last wake earns near-latency space from tier 0's
	// window — if the budget has room for it. Hottest first, ties by
	// address.
	slices.SortFunc(d.promos, func(x, y promo) int {
		if x.score != y.score {
			return cmp.Compare(y.score, x.score)
		}
		return cmp.Compare(x.base, y.base)
	})
	moves := 0
	for _, p := range d.promos {
		if moves >= maxMoves {
			break
		}
		if d.nearLive()+roundUp(d.blocks[p.i].size) > budget {
			d.stats.SkippedBudget++
			continue
		}
		if !d.migrate(p.i, 0) {
			break
		}
		moves++
	}
}

// rank applies this wake's access delta to block b's ranking state.
func (d *Daemon) rank(b *block) (delta uint64) {
	var cur uint64
	o := d.heat.Object(uint64(b.base))
	b.known = o != nil
	if b.known {
		cur = heatKey(o)
	}
	delta = cur - b.last
	if cur < b.last {
		// Decay epoch or identity reuse shrank the counter; the
		// current value is the freshest signal there is.
		delta = cur
	}
	if delta == 0 {
		b.idle++
	} else {
		b.idle = 0
	}
	b.score = b.score/2 + delta
	b.last = cur
	return delta
}

// movable reports whether policy may move block b at all.
func (d *Daemon) movable(b *block) bool {
	return !b.pinned && b.size != 0 && b.size <= d.cfg.MaxObjectBytes
}

// quiet reports whether the policy will never wake again (a OneShot
// pass is done): ranking state is moot, and only residency, which
// placement and Free still use, is kept.
func (d *Daemon) quiet() bool { return d.cfg.OneShot && d.fired }

func roundUp(n uint64) uint64 { return (n + mem.WordSize - 1) &^ uint64(mem.WordSize-1) }

// vacate releases block b's window accounting.
func (d *Daemon) vacate(b *block) {
	if !b.resident {
		return
	}
	d.tiers.Release(b.tier, b.resBytes)
	if b.tier > 0 {
		d.farBytes -= b.resBytes
	}
	b.resident, b.tier, b.resBytes = false, 0, 0
}

// dropResidency releases block b's window accounting and move count.
func (d *Daemon) dropResidency(b *block) {
	d.vacate(b)
	if b.moved > 0 {
		d.nmoved--
		b.moved = 0
	}
}

// migrate moves block i into tier's window through the production
// two-phase commit, inheriting journaling and roll-forward when a fault
// injector is installed. Returns false when the window is exhausted
// (the caller's signal to stop for this wake).
func (d *Daemon) migrate(i int32, tier int) bool {
	base, size := d.blocks[i].base, d.blocks[i].size
	words := int(size / mem.WordSize)
	if words == 0 {
		return true
	}
	tgt := d.tiers.Take(tier, size)
	if tgt == 0 {
		d.stats.SkippedArena++
		return false
	}
	if err := d.tryRelocate(base, tgt, words); err != nil {
		// A refused relocation is clean: phase-1 copies are invisible
		// until planted, so the heap is untouched; only window bytes
		// are wasted.
		d.tiers.Release(tier, roundUp(size))
		d.stats.Aborted++
		return true
	}
	// The relocation may have run guest-side scheduling points whose
	// allocator events grew the slab: re-take the block.
	b := &d.blocks[i]
	d.vacate(b)
	b.resident, b.tier, b.resBytes = true, tier, roundUp(size)
	if tier > 0 {
		d.farBytes += roundUp(size)
	}
	if b.moved == 0 {
		d.nmoved++
	}
	b.moved++
	if tier == 0 {
		d.stats.Promotions++
		d.stats.PromotedBytes += size
	} else {
		d.stats.Demotions++
		d.stats.DemotedBytes += size
	}
	return true
}

// --- base index -------------------------------------------------------

// slot returns the index word for base, creating its page if asked.
func (d *Daemon) slot(base mem.Addr, create bool) *int32 {
	pn := uint64(base >> mem.PageShift)
	p := d.index.Get(pn)
	if p == nil {
		if !create {
			return nil
		}
		p, _ = d.index.Ensure(pn)
	}
	return &p[(base&(mem.PageBytes-1))>>mem.WordShift]
}

// blockAt returns the slab index of the block based at base, or -1.
func (d *Daemon) blockAt(base mem.Addr) int32 {
	if s := d.slot(base, false); s != nil {
		return *s - 1
	}
	return -1
}

// walk calls fn with each block's slab index in ascending address
// order, stopping when fn returns false.
func (d *Daemon) walk(fn func(i int32) bool) {
	d.index.Walk(func(_ uint64, p *basePage) bool {
		for _, v := range p {
			if v != 0 && !fn(v-1) {
				return false
			}
		}
		return true
	})
}

// onEvent is the allocator's event hook: the single identity channel
// for every block, timed or untimed.
func (d *Daemon) onEvent(op string, a mem.Addr, size uint64) {
	switch op {
	case "alloc":
		i := d.allocated(a, size)
		if a == d.placedAt {
			b := &d.blocks[i]
			b.resident, b.tier, b.resBytes = true, d.placedTier, d.placedBytes
			d.placedAt = 0
		}
	case "free":
		if i := d.blockAt(a); i >= 0 && !d.blocks[i].dead {
			b := &d.blocks[i]
			b.dead = true
			d.nlive--
			switch {
			case !d.quiet():
				d.dead = append(d.dead, i)
			case !b.resident:
				// No wake will rank or finalize it, and it holds no
				// residency a reuse of its base could inherit.
				d.release(i)
			}
		}
	}
}

// allocated records a live block at base and returns its slab index:
// a new block, or a freed one whose base the allocator reused before
// the next wake, which keeps its ranking and residency state exactly
// as a rescan of the live set would.
func (d *Daemon) allocated(base mem.Addr, size uint64) int32 {
	s := d.slot(base, true)
	if i := *s - 1; i >= 0 {
		b := &d.blocks[i]
		if b.dead {
			b.dead = false
			d.nlive++
		}
		b.size = size
		return i
	}
	var i int32
	if n := len(d.free); n > 0 {
		i = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		d.blocks = append(d.blocks, block{})
		i = int32(len(d.blocks) - 1)
	}
	d.blocks[i] = block{base: base, size: size, used: true}
	*s = i + 1
	d.nlive++
	return i
}

// release retires slab slot i and its index word.
func (d *Daemon) release(i int32) {
	*d.slot(d.blocks[i].base, false) = 0
	d.blocks[i] = block{}
	d.free = append(d.free, i)
}

// tryRelocate runs the two-phase commit; with a fault injector
// installed, an induced crash is recovered and the torn move rolled
// forward from its journal — the crash-consistency guarantee applied
// to online migration.
func (d *Daemon) tryRelocate(base, tgt mem.Addr, words int) error {
	inj := d.inner.FaultInjector()
	if inj == nil {
		return opt.TryRelocate(d.inner, base, tgt, words)
	}
	err := func() (err error) {
		defer fault.RecoverCrash(&err)
		return opt.TryRelocate(d.inner, base, tgt, words)
	}()
	if err == nil {
		return nil
	}
	if _, serr := fault.Scavenge(d.inner.Memory(), d.inner.Forwarder(), &inj.Journal, inj); serr != nil {
		panic(fmt.Sprintf("tier: scavenge of %#x after %q: %v", base, err, serr))
	}
	d.stats.Repaired++
	return nil // rolled forward: the migration completed
}

// --- app.Machine interception ---------------------------------------

// Inst delegates (timing only; does not advance the daemon clock).
func (d *Daemon) Inst(n int) { d.inner.Inst(n) }

// Load intercepts a load: clock tick, heat/residency attribution,
// delegate.
func (d *Daemon) Load(a mem.Addr, size uint) uint64 {
	d.tick()
	d.record(a, false)
	return d.inner.Load(a, size)
}

// Store intercepts a store symmetrically.
func (d *Daemon) Store(a mem.Addr, v uint64, size uint) {
	d.tick()
	d.record(a, true)
	d.inner.Store(a, v, size)
}

// LoadWord routes through Load.
func (d *Daemon) LoadWord(a mem.Addr) uint64 { return d.Load(a, 8) }

// StoreWord routes through Store.
func (d *Daemon) StoreWord(a mem.Addr, v uint64) { d.Store(a, v, 8) }

// LoadPtr routes through Load.
func (d *Daemon) LoadPtr(a mem.Addr) mem.Addr { return mem.Addr(d.Load(a, 8)) }

// StorePtr routes through Store.
func (d *Daemon) StorePtr(a, p mem.Addr) { d.Store(a, uint64(p), 8) }

// Load32 routes through Load.
func (d *Daemon) Load32(a mem.Addr) uint32 { return uint32(d.Load(a, 4)) }

// Store32 routes through Store.
func (d *Daemon) Store32(a mem.Addr, v uint32) { d.Store(a, uint64(v), 4) }

// Load16 routes through Load.
func (d *Daemon) Load16(a mem.Addr) uint16 { return uint16(d.Load(a, 2)) }

// Store16 routes through Store.
func (d *Daemon) Store16(a mem.Addr, v uint16) { d.Store(a, uint64(v), 2) }

// Load8 routes through Load.
func (d *Daemon) Load8(a mem.Addr) uint8 { return uint8(d.Load(a, 1)) }

// Store8 routes through Store.
func (d *Daemon) Store8(a mem.Addr, v uint8) { d.Store(a, uint64(v), 1) }

// Prefetch delegates.
func (d *Daemon) Prefetch(a mem.Addr, lines int) { d.inner.Prefetch(a, lines) }

// ReadFBit delegates.
func (d *Daemon) ReadFBit(a mem.Addr) bool { return d.inner.ReadFBit(a) }

// UnforwardedRead delegates.
func (d *Daemon) UnforwardedRead(a mem.Addr) (uint64, bool) { return d.inner.UnforwardedRead(a) }

// UnforwardedWrite delegates.
func (d *Daemon) UnforwardedWrite(a mem.Addr, v uint64, fbit bool) {
	d.inner.UnforwardedWrite(a, v, fbit)
}

// FinalAddr delegates.
func (d *Daemon) FinalAddr(a mem.Addr) mem.Addr { return d.inner.FinalAddr(a) }

// PtrEqual delegates.
func (d *Daemon) PtrEqual(a, b mem.Addr) bool { return d.inner.PtrEqual(a, b) }

// SetTrap records the guest handler (so wakes can mask it and the trap
// tap can chain to it) and delegates — through the tap when the daemon
// feeds its own heat map.
func (d *Daemon) SetTrap(h core.TrapHandler) {
	d.guestTrap = h
	if d.ownHeat {
		d.inner.SetTrap(d.tap)
		return
	}
	d.inner.SetTrap(h)
}

// FaultInjector delegates.
func (d *Daemon) FaultInjector() *fault.Injector { return d.inner.FaultInjector() }

// SetFaultInjector delegates.
func (d *Daemon) SetFaultInjector(in *fault.Injector) { d.inner.SetFaultInjector(in) }

// Malloc intercepts an allocation: clock tick, delegate with the spill
// placement hook armed, feed the private heat map.
func (d *Daemon) Malloc(n uint64) mem.Addr {
	d.tick()
	d.inMalloc = true
	a := d.inner.Malloc(n)
	d.inMalloc = false
	if d.ownHeat {
		d.heat.OnAlloc(uint64(a), n)
	}
	return a
}

// Free intercepts a deallocation: release residency and ranking
// history, tick, delegate. A freed base may be recycled before the next
// wake; stale heat history must not be charged to the newcomer.
func (d *Daemon) Free(a mem.Addr) {
	if i := d.blockAt(a); i >= 0 {
		b := &d.blocks[i]
		d.dropResidency(b)
		b.last, b.score, b.idle = 0, 0, 0
	}
	d.tick()
	d.inner.Free(a)
	if d.ownHeat {
		d.heat.OnFree(uint64(a))
	}
}

// Allocator delegates.
func (d *Daemon) Allocator() *mem.Allocator { return d.inner.Allocator() }

// Memory delegates.
func (d *Daemon) Memory() *mem.Memory { return d.inner.Memory() }

// Forwarder delegates.
func (d *Daemon) Forwarder() *core.Forwarder { return d.inner.Forwarder() }

// LineSize delegates.
func (d *Daemon) LineSize() int { return d.inner.LineSize() }

// Site delegates.
func (d *Daemon) Site(name string) int { return d.inner.Site(name) }

// SetSite delegates.
func (d *Daemon) SetSite(id int) { d.inner.SetSite(id) }

// PhaseBegin delegates.
func (d *Daemon) PhaseBegin(name string) { d.inner.PhaseBegin(name) }

// PhaseEnd delegates.
func (d *Daemon) PhaseEnd(name string) { d.inner.PhaseEnd(name) }

// TraceRelocate delegates.
func (d *Daemon) TraceRelocate(src, tgt mem.Addr, nWords int) {
	d.inner.TraceRelocate(src, tgt, nWords)
}

// RelocationBarrier forwards opt.TryRelocate's concurrency barrier
// inward, so a multi-hart scheduling group (internal/sched) beneath the
// daemon drains conflicting in-flight relocations before a guest-level
// relocation pass touches shared relocation state. The daemon's own
// migrations call TryRelocate on d.inner and hit the group directly.
func (d *Daemon) RelocationBarrier(src mem.Addr) {
	if b, ok := d.inner.(interface{ RelocationBarrier(mem.Addr) }); ok {
		b.RelocationBarrier(src)
	}
}
