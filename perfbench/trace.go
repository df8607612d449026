package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"memfwd/internal/cache"
	"memfwd/internal/core"
	"memfwd/internal/mem"
	"memfwd/internal/sim"
)

// --- spans -----------------------------------------------------------

// span is one traced interval, in nanoseconds since process start.
// Spans of one request or cell share Trace (a span opened without one
// starts its own); Parent is the enclosing span (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace,omitempty"`
}

// tracer keeps spans in memory; finishTrace writes them out.
type tracer struct {
	mu    sync.Mutex
	spans []span
	open  map[int64]int // span id -> index while open
}

func newTracer() *tracer { return &tracer{open: map[int64]int{}} }

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, parent, trace int64) int64 {
	now := time.Since(processStart).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	if trace == 0 {
		trace = id
	}
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Trace: trace})
	t.open[id] = len(t.spans) - 1
	return id
}

// end closes an open span now.
func (t *tracer) end(id int64) {
	now := time.Since(processStart).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.open[id]; ok {
		t.spans[i].End = now
		delete(t.open, id)
	}
}

// add records a finished span and returns its id.
func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans) + 1)
	if s.Trace == 0 {
		s.Trace = s.ID
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// --- layer replays -----------------------------------------------------

// windowReplay measures the host cost of the mem, core and cache
// layers on the guest's own load stream. Each recorded window of
// consecutive guest loads is replayed as soon as it fills, while the
// heap and its forwarding chains are as the loads saw them, into each
// layer's public entry point: mem.Memory.ReadWord, Resolve on a second
// core.Forwarder over the same memory (its counters are its own, so
// the run's statistics do not move), and Access on a private cache
// hierarchy built like the machine's and fed only by the windows.
type windowReplay struct {
	m   *sim.Machine
	fwd *core.Forwarder
	l1  *cache.Cache
	now int64

	n                      int
	memNs, coreNs, cacheNs float64 // totals
	sink                   uint64
}

func newWindowReplay(m *sim.Machine) *windowReplay {
	cfg := m.Config()
	mm := cache.NewMainMemory(cfg.MemLatency, cfg.MemBusBytesPerCycle, cfg.LineSize)
	l2 := cache.New(cache.Config{
		Name: "L2", SizeBytes: cfg.L2Size, LineSize: cfg.LineSize,
		Assoc: cfg.L2Assoc, HitLatency: cfg.L2HitLat, MSHRs: cfg.L2MSHRs,
		TransferBytesPerCycle: cfg.FillBytesPerCycle,
	}, mm)
	l1 := cache.New(cache.Config{
		Name: "L1", SizeBytes: cfg.L1Size, LineSize: cfg.LineSize,
		Assoc: cfg.L1Assoc, HitLatency: cfg.L1HitLat, MSHRs: cfg.L1MSHRs,
		TransferBytesPerCycle: cfg.FillBytesPerCycle,
	}, l2)
	return &windowReplay{m: m, fwd: core.NewForwarder(m.Mem), l1: l1}
}

func (w *windowReplay) run(addrs []mem.Addr) {
	w.n += len(addrs)
	t := time.Now()
	for _, a := range addrs {
		w.sink += w.m.Mem.ReadWord(mem.WordAlign(a))
	}
	w.memNs += float64(time.Since(t))

	t = time.Now()
	for _, a := range addrs {
		f, _, _ := w.fwd.Resolve(a, nil)
		w.sink += uint64(f)
	}
	w.coreNs += float64(time.Since(t))

	t = time.Now()
	for _, a := range addrs {
		w.now, _ = w.l1.Access(uint64(a), cache.Load, w.now)
	}
	w.cacheNs += float64(time.Since(t))
}

// layers aggregates probed cells into the in-cell per-layer metrics.
type layers struct {
	timer   float64 // calibrated cost of one sampled time reading
	grouped bool

	upperNs, lowerNs float64 // estimated time below each probe
	cls              [numClasses]classStat
	upperLoad        classStat
	relocs           uint64
	relocNs          int64
	rp               windowReplay
}

func (l *layers) addCell(c cell) {
	if l.timer == 0 {
		l.timer = calibrateTimer()
	}
	l.upperNs += c.upper.timedNs(l.timer) + float64(c.upper.relocNs)
	l.lowerNs += c.lower.timedNs(l.timer)
	for i, s := range c.lower.cls {
		l.cls[i].calls += s.calls
		l.cls[i].sampled += s.sampled
		l.cls[i].sampledNs += s.sampledNs
	}
	u := c.upper.cls[clsLoad]
	l.upperLoad.calls += u.calls
	l.upperLoad.sampled += u.sampled
	l.upperLoad.sampledNs += u.sampledNs
	l.relocs += c.upper.relocs
	l.relocNs += c.upper.relocNs
	l.rp.n += c.replay.n
	l.rp.memNs += c.replay.memNs
	l.rp.coreNs += c.replay.coreNs
	l.rp.cacheNs += c.replay.cacheNs
	l.grouped = l.grouped || c.grouped
}

func (l *layers) mean(s classStat) float64 {
	if s.sampled == 0 {
		return 0
	}
	return max(float64(s.sampledNs)/float64(s.sampled)-l.timer, 0)
}

func (l *layers) report(r *result) {
	r.set("sim.loads", float64(l.cls[clsLoad].calls), "count")
	r.set("sim.stores", float64(l.cls[clsStore].calls), "count")
	loadNs := l.mean(l.cls[clsLoad])
	r.set("sim.load_ns", loadNs, "ns")
	r.set("sim.store_ns", l.mean(l.cls[clsStore]), "ns")
	r.set("sim.inst_ns", l.mean(l.cls[clsInst]), "ns")
	r.set("sim.malloc_ns", l.mean(l.cls[clsMalloc]), "ns")
	r.set("sim.free_ns", l.mean(l.cls[clsFree]), "ns")
	n := float64(max(l.rp.n, 1))
	memNs, coreNs, cacheNs := l.rp.memNs/n, l.rp.coreNs/n, l.rp.cacheNs/n
	r.set("mem.read_ns", memNs, "ns")
	r.set("core.resolve_ns", coreNs, "ns")
	r.set("cache.access_ns", cacheNs, "ns")
	r.set("sim.glue_ns", loadNs-cacheNs-coreNs-memNs, "ns")
	r.set("opt.try_relocate_ns", ratio(float64(l.relocNs), float64(l.relocs)), "ns")
	if l.grouped {
		r.set("sched.self_s", (l.upperNs-l.lowerNs)/1e9, "s")
		r.set("sched.point_ns", l.mean(l.upperLoad)-loadNs, "ns")
	}
}

// --- profile, ladder, output ------------------------------------------

func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}, nil
}

// ladderRows are the layer ladder, bottom first: each row's host cost
// per operation, shown with its increment over the row below.
var ladderRows = []struct{ metric, label string }{
	{"mem.read_ns", "mem read (ReadWord)"},
	{"core.resolve_ns", "core resolve (Resolve)"},
	{"cache.access_ns", "cache access (L1 Access)"},
	{"sim.load_ns", "sim load (Machine.Load)"},
	{"opt.try_relocate_ns", "opt TryRelocate"},
	{"sched.point_ns", "sched point (guest load through the group)"},
	{"serve.guest_ns_per_op", "serve guest op (in-process)"},
	{"serve.request_ns", "HTTP request (memory-only)"},
	{"store.request_ns", "durable request (WAL + fsync)"},
}

// finishTrace writes the spans and this workload's per-layer metrics,
// prints the layer ladder (merging the per-layer files earlier traced
// runs left in the output directory) and folds the CPU profile by
// package. The tables go to standard error and to files.
func finishTrace(e *env, name string, r *result, tr *tracer, fold string) error {
	base := filepath.Join(e.out, fmt.Sprintf("%s-seed%d", name, e.seed))
	tr.mu.Lock()
	spans, err := json.Marshal(map[string]any{"workload": name, "seed": e.seed, "spans": tr.spans})
	tr.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", spans, 0o666); err != nil {
		return err
	}
	vals := map[string]float64{}
	for k, m := range r.Metrics {
		vals[k] = m.Value
	}
	lay, err := json.Marshal(vals)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.out, "layers-"+name+".json"), lay, 0o666); err != nil {
		return err
	}
	ladder := ladderTable(e.out, name, vals)
	for file, text := range map[string]string{base + ".ladder.txt": ladder, base + ".cpu-fold.txt": fold} {
		if err := os.WriteFile(file, []byte(text), 0o666); err != nil {
			return err
		}
	}
	fmt.Fprint(os.Stderr, ladder, "\n", fold)
	return nil
}

func ladderTable(dir, name string, vals map[string]float64) string {
	type src struct {
		v  float64
		by string
	}
	have := map[string]src{}
	files, _ := filepath.Glob(filepath.Join(dir, "layers-*.json"))
	for _, f := range files {
		by := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "layers-"), ".json")
		if by == name {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		var m map[string]float64
		if json.Unmarshal(data, &m) != nil {
			continue
		}
		for _, row := range ladderRows {
			if v, ok := m[row.metric]; ok {
				if _, seen := have[row.metric]; !seen {
					have[row.metric] = src{v, by}
				}
			}
		}
	}
	for _, row := range ladderRows {
		if v, ok := vals[row.metric]; ok {
			have[row.metric] = src{v, name}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "layer ladder (host ns per operation; rows from other workloads come from their last traced run here)\n")
	fmt.Fprintf(&b, "%-44s %14s %14s  %s\n", "layer", "ns/op", "+ over below", "measured on")
	prev, havePrev := 0.0, false
	for _, row := range ladderRows {
		s, ok := have[row.metric]
		if !ok {
			fmt.Fprintf(&b, "%-44s %14s %14s  %s\n", row.label, "-", "-", "not traced yet")
			continue
		}
		inc := "-"
		if havePrev {
			inc = fmt.Sprintf("%+.1f", s.v-prev)
		}
		fmt.Fprintf(&b, "%-44s %14.1f %14s  %s\n", row.label, s.v, inc, s.by)
		prev, havePrev = s.v, true
	}
	return b.String()
}

// foldProfile sums `go tool pprof -top` flat shares by package and
// returns the table and the shares (percent of samples).
func foldProfile(profPath string) (string, map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", exe, profPath)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profPath))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return "", nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	shares := map[string]float64{}
	sc := bufio.NewScanner(&out)
	started := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 5 && f[0] == "flat" {
			started = true
			continue
		}
		if !started || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[pkgOf(strings.Join(f[5:], " "))] += pct
	}
	type kv struct {
		k string
		v float64
	}
	var rows []kv
	for k, v := range shares {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	var b strings.Builder
	fmt.Fprintf(&b, "cpu profile folded by package (flat %% of samples; %s)\n", filepath.Base(profPath))
	for _, r := range rows {
		if r.v < 0.05 {
			continue
		}
		fmt.Fprintf(&b, "%6.2f%%  %s\n", r.v, r.k)
	}
	return b.String(), shares, nil
}

// profiledCPU profiles f and returns the folded table and the CPU
// seconds f spent in the guest applications' packages (apps.self_s).
func profiledCPU(e *env, name string, f func() error) (fold string, appsS float64, err error) {
	path := filepath.Join(e.out, fmt.Sprintf("%s-seed%d.cpu.pprof", name, e.seed))
	stop, err := startCPUProfile(path)
	if err != nil {
		return "", 0, err
	}
	cpu0 := cpuTime()
	err = f()
	cpu := (cpuTime() - cpu0).Seconds()
	stop()
	if err != nil {
		return "", 0, err
	}
	fold, shares, err := foldProfile(path)
	if err != nil {
		return "", 0, err
	}
	var apps float64
	for pkg, pct := range shares {
		if strings.HasPrefix(pkg, "memfwd/internal/apps/") {
			apps += pct
		}
	}
	return fold, apps / 100 * cpu, nil
}

// pkgOf maps a pprof function name to its package path
// ("memfwd/internal/cache.(*Cache).Access" -> "memfwd/internal/cache").
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
