package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"memfwd"
	"memfwd/internal/figures"
	"memfwd/internal/obs"
	"memfwd/internal/oracle"
	"memfwd/internal/sim"
)

// The figs workload is the whole paper suite that cmd/figures runs by
// default (every experiment, scale 1) on two engine workers, with the
// workload seed taken from --seed. It is what every reproduction user
// runs: many small cells that load the per-access cache/cpu/sim path
// and the exp engine's tail, and the only tier traffic.

const figsJobs = 2

// setupRoundsBatch is how many times the batch workloads set up; the
// median is setup_s.
const setupRoundsBatch = 5

// suite is one pass over the paper suite.
type suite struct {
	env        figures.Envelope
	incomplete []string
	text       bytes.Buffer // the tables cmd/figures prints
}

// runSuite mirrors figures.Run's default (table) path section by
// section, keeping the run series so the benchmark can check them and
// hash the exact bytes `figures -json` would print.
func runSuite(o memfwd.Options, h *cellHook) *suite {
	s := &suite{}
	collect := func(errs []*memfwd.JobError) {
		for _, e := range errs {
			s.incomplete = append(s.incomplete, e.Spec.String()+": "+e.Reason())
		}
	}
	section := func(name string, f func(memfwd.Options)) {
		so := o
		if h != nil {
			so = h.before(name, o)
		}
		f(so)
		if h != nil {
			h.after(name)
		}
	}
	section("table1", func(o memfwd.Options) {
		tab, errs := memfwd.RunTable1(o)
		collect(errs)
		fmt.Fprintln(&s.text, tab)
	})
	section("fig5", func(o memfwd.Options) {
		lr := memfwd.RunLocality(o)
		collect(lr.Errs)
		fmt.Fprintln(&s.text, lr.Figure5Table())
		fmt.Fprintln(&s.text, lr.Figure6aTable())
		fmt.Fprintln(&s.text, lr.Figure6bTable())
		s.env.Fig5 = lr.Runs
	})
	section("fig7", func(o memfwd.Options) {
		pr := memfwd.RunPrefetch(o)
		collect(pr.Errs)
		fmt.Fprintln(&s.text, pr.Table())
		s.env.Fig7 = prefetchRuns(pr)
	})
	fmt.Fprintln(&s.text, memfwd.Figure8Layout())
	fmt.Fprintln(&s.text, memfwd.Figure9Layout(128))
	section("fig10", func(o memfwd.Options) {
		sr := memfwd.RunSMV(o)
		collect(sr.Errs)
		for _, t := range sr.Tables() {
			fmt.Fprintln(&s.text, t)
		}
		s.env.Fig10 = []memfwd.Run{sr.N, sr.L, sr.Perf}
	})
	section("tier", func(o memfwd.Options) {
		tr := memfwd.RunTiering(o)
		collect(tr.Errs)
		fmt.Fprintln(&s.text, tr.Table())
		s.env.Tier = tr.Runs
	})
	section("ext", func(o memfwd.Options) {
		tab, errs := memfwd.RunFalseSharing(o)
		collect(errs)
		fmt.Fprintln(&s.text, tab)
	})
	s.env.Incomplete = s.incomplete
	return s
}

// prefetchRuns flattens Figure 7 in the order cmd/figures -json uses.
func prefetchRuns(pr *memfwd.PrefetchRuns) []memfwd.Run {
	var out []memfwd.Run
	for _, a := range memfwd.Apps() {
		rs, ok := pr.Runs[a.Name]
		if !ok {
			continue
		}
		for _, v := range []memfwd.Variant{memfwd.VariantN, memfwd.VariantNP, memfwd.VariantL, memfwd.VariantLP} {
			out = append(out, rs[v])
		}
	}
	return out
}

// runs lists every run series the suite reports, plus Table 1's cells,
// which are re-runs of Figure 5's L cells at 128-byte lines.
func (s *suite) runs() []memfwd.Run {
	var out []memfwd.Run
	for _, rs := range [][]memfwd.Run{s.env.Fig5, s.env.Fig7, s.env.Fig10, s.env.Tier} {
		out = append(out, rs...)
	}
	return out
}

// table1Runs are the Figure 5 cells Table 1 repeats.
func (s *suite) table1Runs() []memfwd.Run {
	var out []memfwd.Run
	for _, r := range s.env.Fig5 {
		if r.Line == 128 && r.Variant == memfwd.VariantL {
			out = append(out, r)
		}
	}
	return out
}

// modelDigest hashes the exact bytes `figures -seed N -json` prints:
// every simulated statistic of every reported cell. The bytes are
// identical at any worker count, so a speed-only change keeps it.
func (s *suite) modelDigest() (string, error) {
	var b bytes.Buffer
	if err := memfwd.WriteJSON(&b, s.env); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// simInstructions sums the simulated graduated instructions of every
// cell whose statistics the suite reports (Figure 7's losing prefetch
// block sizes are run but not reported, so they are not counted).
func (s *suite) simInstructions() float64 {
	var n float64
	for _, r := range append(s.runs(), s.table1Runs()...) {
		if r.Stats != nil {
			n += float64(r.Stats.Instructions)
		}
	}
	return n
}

// oracleRefs runs every application once on the functional oracle and
// returns its checksum: the answer every timed cell must reproduce.
func oracleRefs(seed int64, scale int) map[string]uint64 {
	refs := make(map[string]uint64)
	for _, a := range memfwd.Apps() {
		m := oracle.New(oracle.Config{})
		refs[a.Name] = a.Run(m, memfwd.AppConfig{Seed: seed, Scale: scale}).Checksum
	}
	return refs
}

// checkSuite applies the figs correctness checks: every cell completes,
// and every reported cell of an application reproduces the oracle's
// checksum, so all variants and line sizes agree.
func checkSuite(r *result, s *suite, refs map[string]uint64) {
	r.check(len(s.incomplete) == 0, "incomplete cells: %v", s.incomplete)
	for _, run := range s.runs() {
		label := fmt.Sprintf("%s/line%d/%s/blk%d", run.App, run.Line, run.Variant, run.Block)
		if run.Incomplete != "" || run.Stats == nil {
			r.check(false, "%s incomplete: %s", label, run.Incomplete)
			continue
		}
		want := refs[run.App]
		r.check(run.Result.Checksum == want, "%s checksum %d, oracle %d", label, run.Result.Checksum, want)
	}
}

func figsOptions(seed int64) memfwd.Options {
	return memfwd.Options{Seed: seed, Scale: 1, Jobs: figsJobs}.Norm()
}

// figsSetup is one set-up round: the oracle's reference checksums.
func figsSetup(o memfwd.Options) func() (map[string]uint64, error) {
	return func() (map[string]uint64, error) { return oracleRefs(o.Seed, o.Scale), nil }
}

// repeatSuite runs whole suites until d has passed (at least one) and
// returns the last pass, the wall time of each pass, and the wall time
// of every engine cell, in ms, from the engine's per-cell hooks.
func repeatSuite(o memfwd.Options, d time.Duration) (*suite, []float64, []float64) {
	t0 := time.Now()
	var walls, cells []float64
	var s *suite
	for len(walls) == 0 || time.Since(t0) < d {
		runtime.GC() // each pass starts from a collected heap
		h := &cellHook{tr: newTracer(), progress: &memfwd.JobProgress{}}
		t := time.Now()
		s = runSuite(o, h)
		walls = append(walls, time.Since(t).Seconds())
		cells = append(cells, h.cellMs()...)
	}
	return s, walls, cells
}

func runFigs(e *env) (*result, error) {
	o := figsOptions(e.seed)
	refs, setupS, err := setupRounds(setupRoundsBatch, figsSetup(o), func(map[string]uint64) {})
	if err != nil {
		return nil, err
	}
	r := newResult()
	p := startPhase()
	s, walls, cells := repeatSuite(o, e.seconds)
	cpuS := p.cpu() / float64(len(walls))
	rss := peakRSSMB()

	checkSuite(r, s, refs)
	digest, err := s.modelDigest()
	if err != nil {
		return nil, err
	}
	fmt.Printf("model_digest %s (figures -json bytes, seed %d, scale %d; %d suite pass(es))\n", digest, o.Seed, o.Scale, len(walls))
	fmt.Printf("request (cell) samples %d\n", len(cells))

	// recover_s: each application's line-32 L cell, saved, then
	// restored.
	var saved []cell
	for _, a := range memfwd.Apps() {
		c, err := runCell(a, 32, o.Seed, o.Scale, 1, cellOpts{})
		if err == nil {
			err = c.save()
		}
		if err != nil {
			return nil, err
		}
		r.check(c.run.Result.Checksum == refs[a.Name], "%s: saved cell checksum %d, oracle %d", a.Name, c.run.Result.Checksum, refs[a.Name])
		saved = append(saved, c)
	}
	recS, err := timeRestore(r, saved)
	if err != nil {
		return nil, err
	}

	wall := median(walls)
	var loads, stores float64
	for _, run := range append(s.runs(), s.table1Runs()...) {
		if run.Stats != nil {
			loads += float64(run.Stats.Loads)
			stores += float64(run.Stats.Stores)
		}
	}
	r.set("setup_s", setupS, "s")
	r.set("wall_s", wall, "s")
	r.set("cpu_s", cpuS, "s")
	r.set("sim_mips", s.simInstructions()/wall/1e6, "Minst/s")
	r.set("ops_s", (loads+stores)/wall, "1/s")
	r.set("req_p50_ms", quantile(cells, 0.5), "ms")
	r.set("req_p99_ms", quantile(cells, 0.99), "ms")
	r.set("recover_s", recS, "s")
	r.set("peak_rss_mb", rss, "MB")
	return r, nil
}

// --- traced ------------------------------------------------------------

// cellHook observes each engine call of a suite pass: it turns the
// engine's per-cell phase events (Options.JobTracer) into cell spans
// and counts the cells through Options.Progress.
type cellHook struct {
	tr       *tracer
	parent   int64
	progress *memfwd.JobProgress

	sink    *obs.MemorySink
	jt      *memfwd.Tracer
	section int64
	start   time.Time
}

func (h *cellHook) before(name string, o memfwd.Options) memfwd.Options {
	h.sink = &obs.MemorySink{}
	h.jt = memfwd.NewTracer(h.sink, 0)
	h.section = h.tr.begin("section "+name, h.parent, 0)
	h.start = time.Now()
	o.JobTracer = h.jt
	o.Progress = h.progress
	return o
}

// after pairs each cell's phaseBegin/phaseEnd (keyed by spec index and
// label; the engine stamps microseconds since the section started).
func (h *cellHook) after(string) {
	h.jt.Close() //nolint:errcheck // a MemorySink cannot fail
	h.tr.end(h.section)
	type key struct {
		n     uint64
		label string
	}
	open := map[key]int64{}
	base := h.start.Sub(processStart).Nanoseconds()
	for _, ev := range h.sink.Events {
		k := key{ev.N, ev.Label}
		at := base + ev.Cycle*1000
		switch ev.Kind {
		case obs.KPhaseBegin:
			open[k] = at
		case obs.KPhaseEnd:
			if b, ok := open[k]; ok {
				h.tr.add(span{Name: "cell " + ev.Label, Start: b, End: at, Parent: h.section})
				delete(open, k)
			}
		}
	}
}

// cellMs is the wall time of every cell the hook has seen, in ms.
func (h *cellHook) cellMs() []float64 {
	var ms []float64
	for _, sp := range h.tr.spans {
		if strings.HasPrefix(sp.Name, "cell ") {
			ms = append(ms, float64(sp.End-sp.Start)/1e6)
		}
	}
	return ms
}

func traceFigs(e *env) (*result, error) {
	o := figsOptions(e.seed)
	refs, err := figsSetup(o)()
	if err != nil {
		return nil, err
	}
	r := newResult()
	tr := newTracer()

	// Untraced baseline, then the same suite with the engine hooks.
	t0 := time.Now()
	s0 := runSuite(o, nil)
	wall0 := time.Since(t0).Seconds()

	hook := &cellHook{tr: tr, progress: &memfwd.JobProgress{}}
	hook.parent = tr.begin("suite", 0, 0)
	var s1 *suite
	var wall1 float64
	fold, appsS, err := profiledCPU(e, "figs", func() error {
		p := startPhase()
		s1 = runSuite(o, hook)
		wall1 = p.wall()
		setGoMetrics(r, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	tr.end(hook.parent)
	r.set("apps.self_s", appsS, "s")

	checkSuite(r, s1, refs)
	d0, err := s0.modelDigest()
	if err != nil {
		return nil, err
	}
	d1, err := s1.modelDigest()
	if err != nil {
		return nil, err
	}
	r.check(d0 == d1, "traced suite digest %s differs from untraced %s", d1, d0)
	fmt.Printf("model_digest %s\n", d1)

	// exp: cell spans from the engine hooks.
	var cellMs []float64
	tierWall := map[string]map[string]float64{}
	var busy float64
	for _, sp := range tr.spans {
		label, ok := strings.CutPrefix(sp.Name, "cell ")
		if !ok {
			continue
		}
		ms := float64(sp.End-sp.Start) / 1e6
		cellMs = append(cellMs, ms)
		busy += ms / 1e3
		if app, variant, ok := tierCell(label); ok {
			if tierWall[app] == nil {
				tierWall[app] = map[string]float64{}
			}
			tierWall[app][variant] = ms / 1e3
		}
	}
	r.set("exp.cells", float64(hook.progress.Done()), "count")
	r.set("exp.cell_p50_ms", median(cellMs), "ms")
	if len(cellMs) > 0 {
		r.set("exp.cell_max_ms", slices.Max(cellMs), "ms")
	}
	r.set("exp.busy_ratio", busy/(figsJobs*wall1), "ratio")
	r.set("trace.overhead_ratio", wall1/wall0, "ratio")

	// tier: the tiered cells against the flat reference, per app.
	var tierS float64
	var overhead []float64
	var wakes, migrations float64
	for _, w := range tierWall {
		tierS += w["Static"] + w["Adaptive"]
		overhead = append(overhead, ratio((w["Static"]+w["Adaptive"])/2, w["Flat"]))
	}
	for _, run := range s1.env.Tier {
		if run.Tier != nil {
			wakes += float64(run.Tier.Wakes)
			migrations += float64(run.Tier.Promotions + run.Tier.Demotions)
		}
	}
	r.set("tier.cell_s", tierS, "s")
	r.set("tier.overhead_ratio", median(overhead), "ratio")
	r.set("tier.wakes", wakes, "count")
	r.set("tier.migrations", migrations, "count")

	// Simulated counts over every reported cell (they repeat exactly).
	setModelMetrics(r, append(s1.runs(), s1.table1Runs()...))

	// In-cell split: each application once through a probed stack,
	// checked against the suite's own cell.
	lay := &layers{}
	for _, a := range memfwd.Apps() {
		want, ok := findCell(s1, a.Name)
		if !ok {
			r.check(false, "%s: no line-32 L cell in the suite", a.Name)
			continue
		}
		c, err := runCell(a, 32, o.Seed, o.Scale, 1, cellOpts{probed: true})
		if err != nil {
			return nil, err
		}
		tr.add(span{Name: "probe " + a.Name, Start: c.start, End: c.end})
		r.check(c.run.Result.Checksum == want.Result.Checksum, "%s: probed checksum differs", a.Name)
		r.check(sameStats(c.run.Stats, want.Stats), "%s: probed stats differ from the suite cell", a.Name)
		lay.addCell(c)
	}
	lay.report(r)

	if err := finishTrace(e, "figs", r, tr, fold); err != nil {
		return nil, err
	}
	return r, nil
}

// tierCell parses a tier-experiment cell label ("health/Adaptive").
func tierCell(label string) (app, variant string, ok bool) {
	i := strings.LastIndex(label, "/")
	app, variant = label[:max(i, 0)], label[i+1:]
	switch variant {
	case "Flat", "Static", "Adaptive":
		return app, variant, true
	}
	return "", "", false
}

// findCell returns the suite's line-32 L cell of an application (SMV's
// is in Figure 10).
func findCell(s *suite, app string) (memfwd.Run, bool) {
	for _, r := range append(append([]memfwd.Run(nil), s.env.Fig5...), s.env.Fig10...) {
		if r.App == app && r.Line == 32 && r.Variant == memfwd.VariantL && r.Stats != nil {
			return r, true
		}
	}
	return memfwd.Run{}, false
}

// setModelMetrics reports the simulated per-layer counts summed over
// runs: they must not move under a speed-only change.
func setModelMetrics(r *result, runs []memfwd.Run) {
	var t sim.Stats
	var relocated, hops float64
	for _, run := range runs {
		st := run.Stats
		if st == nil {
			continue
		}
		t.Cycles += st.Cycles
		t.Instructions += st.Instructions
		t.Slots[1] += st.Slots[1]
		for k := 0; k < 3; k++ {
			t.L1.Hits[k] += st.L1.Hits[k]
			t.L1.PartialMisses[k] += st.L1.PartialMisses[k]
			t.L1.FullMisses[k] += st.L1.FullMisses[k]
			t.L2.Hits[k] += st.L2.Hits[k]
			t.L2.PartialMisses[k] += st.L2.PartialMisses[k]
			t.L2.FullMisses[k] += st.L2.FullMisses[k]
		}
		for h, n := range st.LoadsFwdByHops {
			t.LoadsFwdByHops[h] += n
			hops += float64(h) * float64(n)
		}
		t.PagesTouched += st.PagesTouched
		relocated += float64(run.Result.Relocated)
	}
	missRatio := func(c [3]uint64, pm, fm [3]uint64) float64 {
		var acc, miss float64
		for k := 0; k < 3; k++ {
			acc += float64(c[k] + pm[k] + fm[k])
			miss += float64(pm[k] + fm[k])
		}
		return ratio(miss, acc)
	}
	r.set("cpu.ipc", ratio(float64(t.Instructions), float64(t.Cycles)), "inst/cycle")
	r.set("cpu.load_stall_share", ratio(float64(t.Slots[1]), 4*float64(t.Cycles)), "ratio")
	r.set("cache.l1_miss_ratio", missRatio(t.L1.Hits, t.L1.PartialMisses, t.L1.FullMisses), "ratio")
	r.set("cache.l2_miss_ratio", missRatio(t.L2.Hits, t.L2.PartialMisses, t.L2.FullMisses), "ratio")
	fwd := float64(t.LoadsForwarded())
	r.set("core.fwd_loads", fwd, "count")
	r.set("core.hops_per_fwd_load", ratio(hops, fwd), "hops")
	r.set("mem.pages_touched", float64(t.PagesTouched), "count")
	r.set("opt.relocated", relocated, "count")
}
