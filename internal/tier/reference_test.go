package tier

import (
	"math/rand"
	"sort"

	"memfwd/internal/apps/app"
	"memfwd/internal/core"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
)

// refDaemon is the full-scan tiering policy the Daemon replaced, kept
// as the differential reference for it: per-block state in hash maps
// keyed by base, and a wake that re-reads the allocator's sorted live
// set, rebuilds the ranking map and sorts its candidates every time.
// It carries only what decisions depend on — clock, placement,
// residency, ranking, migration — and migrates through the Daemon's
// own tryRelocate on its own machine.
type refDaemon struct {
	inner app.Machine
	al    *mem.Allocator
	tiers *mem.Tiers
	cfg   Config
	rng   *rand.Rand

	countdown int
	inWake    bool
	inMalloc  bool
	fired     bool

	heat    *obs.HeatMap
	ownHeat bool

	resident   map[mem.Addr]refResidency
	farBytes   uint64
	moved      map[mem.Addr]int
	patience   int
	lastSpills uint64
	track      map[mem.Addr]refTracker

	mig   *Daemon // supplies tryRelocate against inner
	stats Stats
}

type refResidency struct {
	tier  int
	bytes uint64
}

type refTracker struct {
	last  uint64
	score uint64
	idle  int
}

// newRefDaemon wraps inner with the reference policy under cfg, which
// must already carry New's defaults.
func newRefDaemon(inner app.Machine, cfg Config) *refDaemon {
	d := &refDaemon{
		inner:    inner,
		al:       inner.Allocator(),
		tiers:    mem.NewTiers(cfg.Tiers),
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		heat:     cfg.Heat,
		resident: make(map[mem.Addr]refResidency),
		moved:    make(map[mem.Addr]int),
		track:    make(map[mem.Addr]refTracker),
		patience: cfg.IdleWakes,
	}
	if d.heat == nil {
		d.heat = obs.NewHeatMap(daemonHeatObjects, 0)
		d.ownHeat = true
	}
	d.mig = &Daemon{inner: inner, tiers: d.tiers}
	if d.ownHeat {
		inner.SetTrap(d.trapTap)
	}
	d.al.Place = d.place
	d.reload()
	return d
}

func (d *refDaemon) reload() { d.countdown = 1 + d.rng.Intn(2*d.cfg.Every) }

func (d *refDaemon) budget() uint64 {
	b := uint64(float64(d.al.BytesLive) * d.cfg.FastFrac)
	if b < d.cfg.MinBudget {
		b = d.cfg.MinBudget
	}
	return b
}

func (d *refDaemon) nearLive() uint64 {
	if d.farBytes >= d.al.BytesLive {
		return 0
	}
	return d.al.BytesLive - d.farBytes
}

func (d *refDaemon) place(size uint64) mem.Addr {
	if !d.inMalloc || d.inWake || size > d.cfg.MaxObjectBytes {
		return 0
	}
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
	d.resident[a] = refResidency{tier: tier, bytes: take}
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

func (d *refDaemon) trapTap(ev core.Event) { d.heat.RecordTrap(uint64(ev.Initial), 0) }

func (d *refDaemon) tick() {
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

func (d *refDaemon) record(a mem.Addr, store bool) {
	if d.ownHeat {
		d.heat.RecordAccess(uint64(a), uint64(a), store, 0)
	}
	if d.stats.Accesses == nil {
		d.stats.Accesses = make([]uint64, d.tiers.N())
	}
	t := d.tiers.TierOf(a)
	if base, ok := d.heat.Resolve(uint64(a)); ok {
		if r, ok := d.resident[mem.Addr(base)]; ok {
			t = r.tier
		}
	}
	d.stats.Accesses[t]++
}

func (d *refDaemon) wake() {
	if d.cfg.OneShot && d.fired {
		return
	}
	d.fired = true
	d.inWake = true
	d.inner.SetTrap(nil)
	defer func() {
		if d.ownHeat {
			d.inner.SetTrap(d.trapTap)
		}
		d.inWake = false
	}()
	d.stats.Wakes++

	al := d.al
	for base, r := range d.resident {
		if !al.Live(base) {
			d.dropResidency(base, r)
		}
	}

	budget := d.budget()
	maxMoves := d.cfg.MaxMoves
	if d.cfg.OneShot {
		maxMoves = d.cfg.TopK
	}

	type scored struct {
		base  mem.Addr
		score uint64
		size  uint64
		far   bool
		known bool
		idle  int
	}
	var cands []scored
	var remorse int
	live := al.LiveBlocks()
	next := make(map[mem.Addr]refTracker, len(live))
	for _, base := range live {
		var cur uint64
		o, known := d.heat.Get(uint64(base))
		if known {
			cur = heatKey(&o)
		}
		tr := d.track[base]
		delta := cur - tr.last
		if cur < tr.last {
			delta = cur
		}
		idle := 0
		if delta == 0 {
			idle = tr.idle + 1
		}
		sc := tr.score/2 + delta
		next[base] = refTracker{last: cur, score: sc, idle: idle}
		if al.Pinned(base) {
			continue
		}
		size, ok := al.SizeOf(base)
		if !ok || size == 0 || size > d.cfg.MaxObjectBytes {
			continue
		}
		r, isResident := d.resident[base]
		far := isResident && r.tier > 0
		if far && delta > 0 && d.moved[base] > 0 {
			remorse++
		}
		if d.moved[base] >= maxObjectMoves {
			continue
		}
		cands = append(cands, scored{base, sc, size, far, known, idle})
	}
	d.track = next

	if remorse > 0 {
		d.stats.Remorse += uint64(remorse)
		d.patience *= 2
		if d.patience > maxPatience {
			d.patience = maxPatience
		}
	} else if d.patience > d.cfg.IdleWakes {
		d.patience--
	}

	pressure := d.stats.Spills - d.lastSpills
	d.lastSpills = d.stats.Spills

	target := budget - uint64(float64(budget)*d.cfg.Headroom)
	if d.nearLive() > target && (pressure > 0 || d.cfg.OneShot) {
		victims := make([]scored, 0, len(cands))
		for _, c := range cands {
			if !c.far && c.known && c.score == 0 && c.idle >= d.patience {
				victims = append(victims, c)
			}
		}
		sort.SliceStable(victims, func(i, j int) bool {
			if victims[i].score != victims[j].score {
				return victims[i].score < victims[j].score
			}
			return victims[i].base < victims[j].base
		})
		moves := 0
		for _, v := range victims {
			if d.nearLive() <= target || moves >= maxMoves {
				break
			}
			if !d.migrate(v.base, v.size, d.tiers.Slowest()) {
				break
			}
			moves++
		}
	}

	if d.cfg.PromoteMin > 0 {
		promos := make([]scored, 0, 8)
		for _, c := range cands {
			if c.far && c.score >= d.cfg.PromoteMin {
				promos = append(promos, c)
			}
		}
		sort.SliceStable(promos, func(i, j int) bool {
			if promos[i].score != promos[j].score {
				return promos[i].score > promos[j].score
			}
			return promos[i].base < promos[j].base
		})
		moves := 0
		for _, p := range promos {
			if moves >= maxMoves {
				break
			}
			if d.nearLive()+roundUp(p.size) > budget {
				d.stats.SkippedBudget++
				continue
			}
			if !d.migrate(p.base, p.size, 0) {
				break
			}
			moves++
		}
	}
}

func (d *refDaemon) dropResidency(base mem.Addr, r refResidency) {
	d.tiers.Release(r.tier, r.bytes)
	if r.tier > 0 {
		d.farBytes -= r.bytes
	}
	delete(d.resident, base)
	delete(d.moved, base)
}

func (d *refDaemon) migrate(base mem.Addr, size uint64, tier int) bool {
	words := int(size / mem.WordSize)
	if words == 0 {
		return true
	}
	tgt := d.tiers.Take(tier, size)
	if tgt == 0 {
		d.stats.SkippedArena++
		return false
	}
	if err := d.mig.tryRelocate(base, tgt, words); err != nil {
		d.tiers.Release(tier, roundUp(size))
		d.stats.Aborted++
		return true
	}
	d.stats.Repaired += d.mig.stats.Repaired
	d.mig.stats.Repaired = 0
	if prev, ok := d.resident[base]; ok {
		d.tiers.Release(prev.tier, prev.bytes)
		if prev.tier > 0 {
			d.farBytes -= prev.bytes
		}
	}
	d.resident[base] = refResidency{tier: tier, bytes: roundUp(size)}
	if tier > 0 {
		d.farBytes += roundUp(size)
	}
	d.moved[base]++
	if tier == 0 {
		d.stats.Promotions++
		d.stats.PromotedBytes += size
	} else {
		d.stats.Demotions++
		d.stats.DemotedBytes += size
	}
	return true
}

// Guest operations the differential streams issue.

func (d *refDaemon) LoadWord(a mem.Addr) uint64 {
	d.tick()
	d.record(a, false)
	return d.inner.Load(a, 8)
}

func (d *refDaemon) StoreWord(a mem.Addr, v uint64) {
	d.tick()
	d.record(a, true)
	d.inner.Store(a, v, 8)
}

func (d *refDaemon) Malloc(n uint64) mem.Addr {
	d.tick()
	d.inMalloc = true
	a := d.inner.Malloc(n)
	d.inMalloc = false
	if d.ownHeat {
		d.heat.OnAlloc(uint64(a), n)
	}
	return a
}

func (d *refDaemon) Free(a mem.Addr) {
	if r, ok := d.resident[a]; ok {
		d.dropResidency(a, r)
	}
	delete(d.track, a)
	d.tick()
	d.inner.Free(a)
	if d.ownHeat {
		d.heat.OnFree(uint64(a))
	}
}
