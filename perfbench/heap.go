package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"time"

	"memfwd"
	"memfwd/internal/apps/app"
	"memfwd/internal/obs"
	"memfwd/internal/oracle"
	"memfwd/internal/sched"
	"memfwd/internal/sim"
)

// The big-heap workload is one health L-variant cell at large scale
// with two harts: the guest plus one relocator hart under the seeded
// sched group, the stack memfwd.RunOne builds. Its heap spans
// thousands of simulated pages, so mem page lookup, sched and opt
// relocation do most of the work, while exp and tier do none. The
// relocator hart's work is the same at every scale; the scale sets
// the guest's share.
const (
	heapApp   = "health"
	heapScale = 3
	heapHarts = 2
	heapLine  = 32
)

// cell is one application run through the RunOne stack, optionally
// with probes above and below the sched group.
type cell struct {
	run    memfwd.Run
	digest uint64
	wall   float64 // seconds
	start  int64   // ns since process start
	end    int64

	upper, lower *probe // nil when unprobed; equal without a group
	grouped      bool
	replay       *windowReplay

	m        *sim.Machine
	slicesMs []float64 // host ms per full slice (cellOpts.sliceEvery)
	state    []byte    // encoded final machine state (save)
}

// cellOpts selects what runCell measures besides the run itself.
type cellOpts struct {
	// probed puts a probe above the group (the guest's view) and one
	// below it (what reaches the simulator; it records the guest's
	// load addresses for the layer replays).
	probed bool
	// sliceEvery > 0 times each slice of that many guest instructions
	// through the machine's sampler (req_p50_ms, req_p99_ms).
	sliceEvery uint64
}

// runCell builds the stack memfwd.RunOne builds for the L variant —
// sim machine, sched group when harts > 1 — and runs the application
// on it.
func runCell(a memfwd.App, line int, seed int64, scale, harts int, opts cellOpts) (cell, error) {
	mc := sim.Config{LineSize: line}
	if harts > 1 {
		mc.Harts = harts
	}
	m := sim.New(mc)
	c := cell{m: m}
	var below app.Machine = m
	excl := new(int64) // replay time, excluded from the probes and the wall
	if opts.probed {
		c.replay = newWindowReplay(m)
		below, c.lower = wrap(m, c.replay, excl)
	}
	guest := below
	var grp *sched.Group
	if harts > 1 {
		var err error
		grp, err = sched.New(below, sched.Config{Harts: harts, Seed: seed})
		if err != nil {
			return c, err
		}
		defer grp.Close()
		guest = grp
		c.grouped = true
	}
	if opts.probed {
		if grp != nil {
			guest, c.upper = wrap(grp, nil, excl)
		} else {
			c.upper = c.lower
		}
		c.upper.timeRelocs = true
	}
	t0 := time.Now()
	if opts.sliceEvery > 0 {
		last := t0
		series := &obs.Series{OnAdd: func(s obs.Sample) {
			now := time.Now()
			if s.DInstructions >= opts.sliceEvery { // phase marks cut short slices
				c.slicesMs = append(c.slicesMs, float64(now.Sub(last))/1e6)
			}
			last = now
		}}
		m.SetSampleEvery(opts.sliceEvery, series)
	}
	res := a.Run(guest, memfwd.AppConfig{Seed: seed, Scale: scale, Opt: true})
	if grp != nil {
		grp.Quiesce()
	}
	c.run = memfwd.Run{App: a.Name, Line: line, Variant: memfwd.VariantL, Stats: m.Finalize(), Result: res}
	c.wall = time.Since(t0).Seconds() - float64(*excl)/1e9
	c.start, c.end = t0.Sub(processStart).Nanoseconds(), time.Since(processStart).Nanoseconds()
	if grp != nil {
		gs := grp.Stats()
		c.run.Sched = &gs
	}
	d, err := oracle.DigestModuloForwarding(m.Mem, m.Fwd, m.Alloc)
	if err != nil {
		return c, fmt.Errorf("heap digest: %w", err)
	}
	c.digest = d
	return c, nil
}

// save encodes the cell's final machine state with the sim codec, for
// recover_s to restore.
func (c *cell) save() (err error) {
	if c.state, err = sim.EncodeState(c.m.SaveState()); err != nil {
		return fmt.Errorf("save %s: %w", c.run.App, err)
	}
	return nil
}

// restoreRounds is how many rounds recover_s restores the saved
// states in; the median round is reported. Each round starts with the
// heap collected and its free memory returned to the OS, as in a
// freshly started process: otherwise a round's cost depends on whether
// the previous rounds' memory is still mapped, and runs split into a
// fast and a slow mode. A round restores every state restorePasses
// times back to back, so its timed interval is over a tenth of a
// second rather than a single restore of about ten milliseconds.
const (
	restoreRounds = 15
	restorePasses = 10
)

// timeRestore is recover_s for the batch workloads: the wall time to
// bring the cells' final machines back from their encoded snapshots
// (sim codec decode, a fresh machine, LoadState), per pass, in the
// median of restoreRounds rounds. Every restored heap must digest as
// the machine it was saved from.
func timeRestore(r *result, cells []cell) (float64, error) {
	times := make([]float64, 0, restoreRounds)
	ms := make([]*sim.Machine, len(cells))
	for i := 0; i < restoreRounds; i++ {
		clear(ms)
		debug.FreeOSMemory()
		t0 := time.Now()
		for pass := 0; pass < restorePasses; pass++ {
			for j, c := range cells {
				st, err := sim.DecodeState(c.state)
				if err != nil {
					return 0, fmt.Errorf("decode %s: %w", c.run.App, err)
				}
				ms[j] = sim.New(st.Config())
				if err := ms[j].LoadState(st); err != nil {
					return 0, fmt.Errorf("restore %s: %w", c.run.App, err)
				}
			}
		}
		times = append(times, time.Since(t0).Seconds()/restorePasses)
	}
	for j, m := range ms {
		d, err := oracle.DigestModuloForwarding(m.Mem, m.Fwd, m.Alloc)
		r.check(err == nil && d == cells[j].digest, "%s: restored heap digest %#x (%v), saved %#x", cells[j].run.App, d, err, cells[j].digest)
	}
	return median(times), nil
}

// sameStats reports whether two runs' simulated statistics are equal.
func sameStats(a, b *sim.Stats) bool { return a != nil && b != nil && reflect.DeepEqual(*a, *b) }

// cellDigest hashes a cell's simulated outcome: statistics, checksum,
// scheduling accounting and heap digest.
func cellDigest(c cell) (string, error) {
	b, err := json.Marshal(struct {
		Run    memfwd.Run
		Digest uint64
	}{c.run, c.digest})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// heapRef is the functional oracle's answer for the big-heap cell.
type heapRef struct{ checksum, digest uint64 }

func heapSetup(seed int64, scale int) func() (heapRef, error) {
	return func() (heapRef, error) {
		m := oracle.New(oracle.Config{LineSize: heapLine})
		res := memfwd.MustApp(heapApp).Run(m, memfwd.AppConfig{Seed: seed, Scale: scale, Opt: true})
		d, err := oracle.DigestModuloForwarding(m.Mem, m.Fwd, m.Alloc)
		return heapRef{res.Checksum, d}, err
	}
}

func checkHeap(r *result, c cell, ref heapRef) {
	r.check(c.run.Result.Checksum == ref.checksum, "big-heap checksum %d, oracle %d", c.run.Result.Checksum, ref.checksum)
	r.check(c.digest == ref.digest, "big-heap heap digest %#x, oracle %#x", c.digest, ref.digest)
}

func heapSeed(seed int64) int64 { return memfwd.Options{Seed: seed}.Norm().Seed }

// heapSlice is the guest-instruction slice big-heap times for its
// request latencies: about 15 ms of host time each, so a run has over a
// thousand and its p99 has ten or more beyond it.
const heapSlice = 50_000

func runHeap(e *env) (*result, error) {
	seed := heapSeed(e.seed)
	ref, setupS, err := setupRounds(setupRoundsBatch, heapSetup(seed, heapScale), func(heapRef) {})
	if err != nil {
		return nil, err
	}
	a := memfwd.MustApp(heapApp)
	r := newResult()
	p := startPhase()
	var walls, slices []float64
	var c cell
	for len(walls) == 0 || time.Since(p.t0) < e.seconds {
		runtime.GC() // each cell starts from a collected heap
		if c, err = runCell(a, heapLine, seed, heapScale, heapHarts, cellOpts{sliceEvery: heapSlice}); err != nil {
			return nil, err
		}
		walls = append(walls, c.wall)
		slices = append(slices, c.slicesMs...)
	}
	cpuS := p.cpu() / float64(len(walls))
	rss := peakRSSMB()
	checkHeap(r, c, ref)
	digest, err := cellDigest(c)
	if err != nil {
		return nil, err
	}
	fmt.Printf("model_digest %s (health L, seed %d, scale %d, harts %d; %d cell run(s))\n", digest, seed, heapScale, heapHarts, len(walls))

	// recover_s: the last cell's machine, saved, then restored.
	if err := c.save(); err != nil {
		return nil, err
	}
	recS, err := timeRestore(r, []cell{c})
	if err != nil {
		return nil, err
	}
	fmt.Printf("request slices %d of %d guest instructions\n", len(slices), heapSlice)

	wall := median(walls)
	st := c.run.Stats
	r.set("setup_s", setupS, "s")
	r.set("wall_s", wall, "s")
	r.set("cpu_s", cpuS, "s")
	r.set("sim_mips", float64(st.Instructions)/wall/1e6, "Minst/s")
	r.set("ops_s", float64(st.Loads+st.Stores)/wall, "1/s")
	r.set("req_p50_ms", quantile(slices, 0.5), "ms")
	r.set("req_p99_ms", quantile(slices, 0.99), "ms")
	r.set("recover_s", recS, "s")
	r.set("peak_rss_mb", rss, "MB")
	return r, nil
}

func traceHeap(e *env) (*result, error) {
	seed := heapSeed(e.seed)
	ref, err := heapSetup(seed, heapScale)()
	if err != nil {
		return nil, err
	}
	a := memfwd.MustApp(heapApp)
	r := newResult()
	tr := newTracer()

	base, err := runCell(a, heapLine, seed, heapScale, heapHarts, cellOpts{})
	if err != nil {
		return nil, err
	}
	var c cell
	fold, appsS, err := profiledCPU(e, "big-heap", func() (err error) {
		p := startPhase()
		c, err = runCell(a, heapLine, seed, heapScale, heapHarts, cellOpts{probed: true})
		setGoMetrics(r, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.set("apps.self_s", appsS, "s")
	tr.add(span{Name: "cell health/L", Start: c.start, End: c.end})

	checkHeap(r, c, ref)
	r.check(c.run.Result.Checksum == base.run.Result.Checksum, "traced checksum differs from untraced")
	r.check(c.digest == base.digest, "traced heap digest differs from untraced")
	r.check(sameStats(c.run.Stats, base.run.Stats), "traced sim.Stats differ from untraced")
	r.check(reflect.DeepEqual(c.run.Sched, base.run.Sched), "traced sched.Stats differ from untraced")
	digest, err := cellDigest(c)
	if err != nil {
		return nil, err
	}
	fmt.Printf("model_digest %s\n", digest)

	lay := &layers{}
	lay.addCell(c)
	lay.report(r)
	setModelMetrics(r, []memfwd.Run{c.run})
	r.set("opt.relocated", float64(c.run.Result.Relocated+c.run.Sched.Relocations), "count")
	r.set("sched.relocations", float64(c.run.Sched.Relocations), "count")
	r.set("sched.steps", float64(c.run.Sched.Steps), "count")
	r.set("trace.overhead_ratio", c.wall/base.wall, "ratio")

	if err := finishTrace(e, "big-heap", r, tr, fold); err != nil {
		return nil, err
	}
	return r, nil
}
