package tier

import (
	"math/rand"
	"testing"

	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/sim"
)

// BenchmarkDaemonInterception is the steady-state tax: one guest load
// routed through the daemon with the wake countdown never expiring.
// This is the number every intercepted operation pays between wakes,
// so it is alloc-gated like the machine's own hot paths.
func BenchmarkDaemonInterception(b *testing.B) {
	tc := mem.DefaultTierConfig(2, 70)
	m := sim.New(sim.Config{Tiers: tc})
	d := New(m, Config{Tiers: tc, Seed: 1, Every: 1 << 30})
	a := d.Malloc(4096)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += d.LoadWord(a)
	}
	_ = sink
}

// BenchmarkDaemonWake is one full policy pass over a populated heap:
// residency validation, heat ranking, and whatever migrations the
// budget admits. The first iterations do real two-phase-commit moves;
// later ones measure the steady-state ranking cost once the hot set
// has settled.
func BenchmarkDaemonWake(b *testing.B) {
	tc := mem.DefaultTierConfig(2, 70)
	m := sim.New(sim.Config{Tiers: tc})
	d := New(m, Config{Tiers: tc, Seed: 2, Every: 1 << 30, FastFrac: 0.25, MaxMoves: 8})
	for i := 0; i < 256; i++ {
		a := d.Malloc(256)
		for j := 0; j <= i%16; j++ {
			d.StoreWord(a, uint64(j))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.wake()
	}
}

// wakeRig8k is a daemon over a machine with 8192 live 64-byte blocks
// and a shared heat map — the scale of vis/Adaptive, the tiering
// figure's largest heap — settled past its first wakes, so a wake is
// the steady-state ranking pass. Every is huge: only the caller wakes
// it.
func wakeRig8k(tb testing.TB) (*Daemon, []mem.Addr) {
	tc := mem.DefaultTierConfig(2, 70)
	m := sim.New(sim.Config{Tiers: tc})
	h := obs.NewHeatMap(1<<16, 0)
	m.SetHeatMap(h)
	d := New(m, Config{Tiers: tc, Seed: 4, Every: 1 << 30, Heat: h})
	blocks := make([]mem.Addr, 8192)
	for i := range blocks {
		blocks[i] = d.Malloc(64)
		d.StoreWord(blocks[i], uint64(i))
	}
	for i := 0; i < 4; i++ {
		d.wake()
	}
	return d, blocks
}

// BenchmarkDaemonWake8k is one wake over ~8k live blocks after 256
// accesses to random blocks changed their heat (recorded straight into
// the heat map, so the op is the wake plus 256 heat-map updates).
func BenchmarkDaemonWake8k(b *testing.B) {
	d, blocks := wakeRig8k(b)
	h := d.Heat()
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			a := uint64(blocks[rng.Intn(len(blocks))])
			h.RecordAccess(a, a, false, 0)
		}
		d.wake()
	}
}

// BenchmarkDaemonWakeQuiescent8k is one wake over ~8k live blocks
// none of which was touched since the previous wake.
func BenchmarkDaemonWakeQuiescent8k(b *testing.B) {
	d, _ := wakeRig8k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.wake()
	}
}

// TestWakeSteadyStateZeroAlloc: once the block table is built, a wake
// — ranking, promotion candidates, the demotion walk — allocates
// nothing.
func TestWakeSteadyStateZeroAlloc(t *testing.T) {
	d, blocks := wakeRig8k(t)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		for j := 0; j < 64; j++ {
			d.LoadWord(blocks[(i*64+j*7)%len(blocks)])
		}
		i++
		d.wake()
	})
	if allocs != 0 {
		t.Fatalf("steady-state wake allocates %.1f times", allocs)
	}
}

// BenchmarkDaemonMigrate is the cost of one demotion through the
// production two-phase commit, per 256-byte object.
func BenchmarkDaemonMigrate(b *testing.B) {
	// A wider-than-default far window: the benchmark never reuses
	// target space, and b.N objects must all fit. MinBudget is huge so
	// every object is born near and the timed move is a real demotion.
	tc := &mem.TierConfig{Latencies: []int64{70, 210}, Capacities: []uint64{1 << 32, 1 << 32}}
	m := sim.New(sim.Config{Tiers: tc})
	d := New(m, Config{Tiers: tc, Seed: 3, Every: 1 << 30, MinBudget: 1 << 38})
	objs := make([]mem.Addr, b.N)
	for i := range objs {
		objs[i] = d.Malloc(256)
		d.StoreWord(objs[i], uint64(i))
	}
	slow := d.Tiers().Slowest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !d.migrate(d.blockAt(objs[i]), slow) {
			b.Fatal("far window exhausted")
		}
	}
	b.StopTimer()
	if d.Stats().Demotions != uint64(b.N) {
		b.Fatalf("demotions %d, want %d", d.Stats().Demotions, b.N)
	}
}
