package tier

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"memfwd/internal/apps/app"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/oracle"
	"memfwd/internal/sim"
)

// moveLog records every committed relocation on the machine beneath a
// daemon: the per-wake decision list.
type moveLog struct {
	app.Machine
	moves []string
}

func (l *moveLog) TraceRelocate(src, tgt mem.Addr, n int) {
	l.moves = append(l.moves, fmt.Sprintf("%#x->%#x/%d", src, tgt, n))
	l.Machine.TraceRelocate(src, tgt, n)
}

// diffRig runs the Daemon and the full-scan reference side by side,
// each over its own machine, fed one op stream.
type diffRig struct {
	t        *testing.T
	dm, rm   *sim.Machine
	dlog     *moveLog
	rlog     *moveLog
	d        *Daemon
	r        *refDaemon
	dh, rh   *obs.HeatMap
	wakes    uint64
	maxPat   int
	reuses   int // untimed frees whose base an allocation took back before the next wake
	freedNow map[mem.Addr]bool
}

func newDiffRig(t *testing.T, cfg Config, heatObjects int, epoch uint64) *diffRig {
	g := &diffRig{t: t, freedNow: map[mem.Addr]bool{}}
	tc := mem.DefaultTierConfig(2, 70)
	cfg.Tiers = tc
	g.dm = sim.New(sim.Config{Tiers: tc})
	g.rm = sim.New(sim.Config{Tiers: tc})
	if heatObjects > 0 {
		g.dh, g.rh = obs.NewHeatMap(heatObjects, epoch), obs.NewHeatMap(heatObjects, epoch)
		g.dm.SetHeatMap(g.dh)
		g.rm.SetHeatMap(g.rh)
	}
	g.dlog, g.rlog = &moveLog{Machine: g.dm}, &moveLog{Machine: g.rm}
	dcfg, rcfg := cfg, cfg
	dcfg.Heat, rcfg.Heat = g.dh, g.rh
	g.d = New(g.dlog, dcfg)
	rcfg = g.d.cfg // New's defaults
	rcfg.Heat = g.rh
	g.r = newRefDaemon(g.rlog, rcfg)
	return g
}

// check compares everything a decision depends on or produces.
func (g *diffRig) check(step int, what string) {
	t := g.t
	t.Helper()
	ds, rs := g.d.Stats(), g.r.stats
	rs.Accesses = append([]uint64(nil), rs.Accesses...)
	if !reflect.DeepEqual(ds, rs) {
		t.Fatalf("step %d (%s): stats diverged\n daemon %+v\n    ref %+v", step, what, ds, rs)
	}
	if !reflect.DeepEqual(g.dlog.moves, g.rlog.moves) {
		t.Fatalf("step %d (%s): decisions diverged\n daemon %v\n    ref %v", step, what, g.dlog.moves, g.rlog.moves)
	}
	if g.d.patience != g.r.patience || g.d.farBytes != g.r.farBytes || g.d.lastSpills != g.r.lastSpills {
		t.Fatalf("step %d (%s): patience/far/spills %d/%d/%d, ref %d/%d/%d", step, what,
			g.d.patience, g.d.farBytes, g.d.lastSpills, g.r.patience, g.r.farBytes, g.r.lastSpills)
	}
	res := map[mem.Addr]refResidency{}
	moved := map[mem.Addr]int{}
	track := map[mem.Addr]refTracker{}
	for i := range g.d.blocks {
		b := &g.d.blocks[i]
		if !b.used {
			continue
		}
		if b.resident {
			res[b.base] = refResidency{b.tier, b.resBytes}
		}
		if b.moved > 0 {
			moved[b.base] = b.moved
		}
		if tr := (refTracker{b.last, b.score, b.idle}); tr != (refTracker{}) {
			track[b.base] = tr
		}
	}
	rtrack := map[mem.Addr]refTracker{}
	for base, tr := range g.r.track {
		if tr != (refTracker{}) {
			rtrack[base] = tr
		}
	}
	if !reflect.DeepEqual(res, g.r.resident) {
		t.Fatalf("step %d (%s): residency diverged\n daemon %v\n    ref %v", step, what, res, g.r.resident)
	}
	if !reflect.DeepEqual(moved, g.r.moved) {
		t.Fatalf("step %d (%s): move counts diverged\n daemon %v\n    ref %v", step, what, moved, g.r.moved)
	}
	if !reflect.DeepEqual(track, rtrack) {
		for base, tr := range rtrack {
			if track[base] != tr {
				t.Fatalf("step %d (%s): ranking state of %#x diverged: daemon %+v, ref %+v", step, what, base, track[base], tr)
			}
		}
		t.Fatalf("step %d (%s): ranking state diverged (%d vs %d blocks)", step, what, len(track), len(rtrack))
	}
	if g.d.patience > g.maxPat {
		g.maxPat = g.d.patience
	}
}

// stream drives n seeded ops through both daemons, comparing after
// every op that woke them and in full at the end. Ops: timed loads and
// stores skewed to a hot set that shifts each phase (so demoted data is
// re-touched), timed Malloc (some spills, some oversize) and Free,
// untimed Alloc/Free straight on the allocators with size classes
// reused so a freed base comes back before the next wake, and pinned
// arenas.
func (g *diffRig) stream(seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	var timed, untimed []mem.Addr
	freedSizes := []uint64{}
	sizes := []uint64{8, 24, 64, 200, 512, 1024, 4096}
	pick := func(xs []mem.Addr) (int, mem.Addr) {
		i := rng.Intn(len(xs))
		return i, xs[i]
	}
	same := func(a, b mem.Addr, what string) {
		if a != b {
			g.t.Fatalf("%s: daemon machine returned %#x, reference %#x", what, a, b)
		}
	}
	untimedAlloc := func(size uint64) {
		a, b := g.dm.Alloc.Alloc(size), g.rm.Alloc.Alloc(size)
		same(a, b, "untimed alloc")
		if g.freedNow[a] {
			g.reuses++
		}
		untimed = append(untimed, a)
	}
	for i := 0; i < 200; i++ {
		timed = append(timed, g.malloc(sizes[rng.Intn(len(sizes))]))
	}
	for i := 0; i < 40; i++ {
		untimedAlloc(sizes[rng.Intn(4)])
	}
	phase := 0
	for step := 0; step < n; step++ {
		if step%1500 == 0 {
			phase++
		}
		switch r := rng.Intn(100); {
		case r < 60: // access
			var base mem.Addr
			all := len(timed) + len(untimed)
			if rng.Intn(10) < 8 && len(timed) > 0 {
				// Hot set: a window of the timed blocks that moves per phase.
				w := 8
				lo := (phase * 37) % len(timed)
				base = timed[(lo+rng.Intn(w))%len(timed)]
			} else if k := rng.Intn(all); k < len(timed) {
				base = timed[k]
			} else {
				base = untimed[k-len(timed)]
			}
			size, _ := g.dm.Alloc.SizeOf(base)
			a := base + mem.Addr(rng.Intn(int(size/8)))*8
			if r < 40 {
				same(mem.Addr(g.d.LoadWord(a)), mem.Addr(g.r.LoadWord(a)), "load")
			} else {
				v := rng.Uint64()
				g.d.StoreWord(a, v)
				g.r.StoreWord(a, v)
			}
		case r < 75:
			size := sizes[rng.Intn(len(sizes))]
			if rng.Intn(40) == 0 {
				size = 16 << 10 // over MaxObjectBytes: heap-born, never moved
			}
			timed = append(timed, g.malloc(size))
		case r < 85:
			if len(timed) > 100 {
				i, a := pick(timed)
				g.d.Free(a)
				g.r.Free(a)
				timed = append(timed[:i], timed[i+1:]...)
			}
		case r < 90:
			// Untimed free of any block — timed ones included, so a
			// demoted heap block can die behind the daemon's back.
			all := append(append([]mem.Addr(nil), timed...), untimed...)
			if len(all) > 150 {
				k, a := pick(all)
				size, _ := g.dm.Alloc.SizeOf(a)
				g.dm.Alloc.Free(a)
				g.rm.Alloc.Free(a)
				g.freedNow[a] = true
				freedSizes = append(freedSizes, size)
				if k < len(timed) {
					timed = append(timed[:k], timed[k+1:]...)
				} else {
					k -= len(timed)
					untimed = append(untimed[:k], untimed[k+1:]...)
				}
			}
		case r < 98:
			if len(freedSizes) > 0 && rng.Intn(3) > 0 {
				size := freedSizes[len(freedSizes)-1]
				freedSizes = freedSizes[:len(freedSizes)-1]
				untimedAlloc(size)
			} else {
				untimedAlloc(sizes[rng.Intn(4)])
			}
		default:
			mem.NewArena(g.dm.Alloc, 2048)
			mem.NewArena(g.rm.Alloc, 2048)
		}
		if w := g.d.Stats().Wakes; w != g.wakes {
			g.wakes = w
			clear(g.freedNow)
			g.check(step, "wake")
		}
	}
	g.check(n, "end")
	dd, err := oracle.DigestModuloForwarding(g.dm.Mem, g.dm.Fwd, g.dm.Alloc)
	if err != nil {
		g.t.Fatal(err)
	}
	rd, err := oracle.DigestModuloForwarding(g.rm.Mem, g.rm.Fwd, g.rm.Alloc)
	if err != nil {
		g.t.Fatal(err)
	}
	if dd != rd {
		g.t.Fatalf("heap digests diverged: %#x vs %#x", dd, rd)
	}
}

func (g *diffRig) malloc(size uint64) mem.Addr {
	a, b := g.d.Malloc(size), g.r.Malloc(size)
	if a != b {
		g.t.Fatalf("malloc(%d): daemon %#x, reference %#x", size, a, b)
	}
	return a
}

// TestWakeMatchesFullScan is the differential proof for the Daemon's
// event-maintained block table: over seeded op streams it must make
// exactly the decisions of the full-scan reference — same migrations
// in the same order, same Stats, residency, move counts and ranking
// state after every wake — on every path the policy has: heat epochs
// and heat-map eviction (small shared maps), remorse with patience
// doubling, promotions, OneShot, untimed frees whose base is reused
// before the next wake, and pinned arenas.
func TestWakeMatchesFullScan(t *testing.T) {
	base := Config{Every: 64, FastFrac: 0.25, MinBudget: 8 << 10, MaxMoves: 8,
		MaxObjectBytes: 8192, PromoteMin: 4, IdleWakes: 2}
	cases := []struct {
		name    string
		oneShot bool
		objects int // shared heat map size; 0 = the daemon's private map
		epoch   uint64
	}{
		{"shared-epochs-eviction", false, 160, 400},
		{"shared-large", false, 4096, 2000},
		{"private", false, 0, 0},
		{"oneshot", true, 160, 400},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var agg struct {
				epochs, evicted, remorse, promos, demos, reuses, wakes uint64
				maxPat                                                 int
			}
			for seed := int64(1); seed <= 4; seed++ {
				cfg := base
				cfg.Seed = seed
				cfg.OneShot = c.oneShot
				if c.oneShot {
					// The one pass is the first wake: patience 1 lets
					// never-touched blocks qualify.
					cfg.IdleWakes = 1
				}
				g := newDiffRig(t, cfg, c.objects, c.epoch)
				g.stream(seed*7919, 12000)
				st := g.d.Stats()
				agg.remorse += st.Remorse
				agg.promos += st.Promotions
				agg.demos += st.Demotions
				agg.wakes += st.Wakes
				agg.reuses += uint64(g.reuses)
				if g.maxPat > agg.maxPat {
					agg.maxPat = g.maxPat
				}
				if g.dh != nil {
					s := g.dh.Snapshot(0)
					agg.epochs += s.Epochs
					agg.evicted += s.Evicted
				}
			}
			t.Logf("%+v", agg)
			// The streams must reach the paths they exist to cover.
			if agg.demos == 0 || agg.reuses == 0 {
				t.Fatalf("streams missed demotion or base reuse: %+v", agg)
			}
			if c.oneShot {
				if agg.wakes != 4 {
					t.Fatalf("OneShot daemons ran %d policy passes over 4 streams", agg.wakes)
				}
				return
			}
			if agg.remorse == 0 || agg.maxPat <= base.IdleWakes || agg.promos == 0 {
				t.Fatalf("streams missed remorse, patience doubling or promotion: %+v", agg)
			}
			if c.objects > 0 && c.objects < 1000 && (agg.epochs == 0 || agg.evicted == 0) {
				t.Fatalf("streams missed heat epochs or eviction: %+v", agg)
			}
		})
	}
}

// TestRemigratedBlockAccessesCountFar moves one block three times —
// demoted, promoted, demoted again — and then touches it: the touches
// must count as far-tier accesses, as in the full-scan reference. The
// daemon skips residency lookups while it counts no migrated block, so
// a block that migrates again must stay counted exactly once.
func TestRemigratedBlockAccessesCountFar(t *testing.T) {
	cfg := Config{Seed: 1, Every: 16, FastFrac: 0.25, MinBudget: 1024, MaxMoves: 64,
		MaxObjectBytes: 8192, PromoteMin: 4, IdleWakes: 1}
	g := newDiffRig(t, cfg, 0, 0)
	slow := g.d.tiers.Slowest()
	x := g.malloc(64)
	state := func() (tier, moved int) {
		b := &g.d.blocks[g.d.blockAt(x)]
		return b.tier, b.moved
	}
	step := 0
	until := func(what string, tier, moved int, op func()) {
		t.Helper()
		for ; step < 100000; step++ {
			if tr, mv := state(); tr == tier && mv == moved {
				return
			}
			op()
			if w := g.d.Stats().Wakes; w != g.wakes {
				g.wakes = w
				g.check(step, what)
			}
		}
		tr, mv := state()
		t.Fatalf("%s: block still in tier %d after %d moves", what, tr, mv)
	}
	// Pinned fillers press on the near budget (they spill) but never
	// move: x is the only block that ever migrates.
	fill := func(size uint64) {
		a := g.malloc(size)
		g.dm.Alloc.Pin(a)
		g.rm.Alloc.Pin(a)
	}
	filler := func() { fill(64) }
	touch := func() { g.d.LoadWord(x); g.r.LoadWord(x) }
	until("first demotion", slow, 1, filler)
	// A spilled filler raises the budget, making room near for x.
	until("promotion", 0, 2, func() {
		for i := 0; i < 4; i++ {
			touch()
		}
		fill(2048)
	})
	until("second demotion", slow, 3, filler)
	if g.d.nmoved != 1 {
		t.Fatalf("%d blocks counted as migrated, want 1", g.d.nmoved)
	}
	before := g.d.Stats().Accesses[slow]
	for i := 0; i < int(cfg.PromoteMin)-1; i++ {
		touch()
	}
	g.check(step, "touches after the third move")
	if got := g.d.Stats().Accesses[slow] - before; got != cfg.PromoteMin-1 {
		t.Fatalf("%d touches of a far block counted %d far accesses", cfg.PromoteMin-1, got)
	}
}
