// Command perfbench is the repository's performance benchmark: one
// fresh process per run of a named workload, seeded from the command
// line, that generates its own load, checks the program's outputs, and
// prints every metric by name and unit. Its last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage (from the repository root; run.py builds and runs it):
//
//	perfbench --workload figs --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that measures the per-layer metrics. See README.md for the
// workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// processStart is taken during package initialisation, so the first
// set-up round of every workload includes the process's own start.
var processStart = time.Now()

// env is what every workload gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	out     string // directory for traces, profiles and store files
}

type workload struct {
	run    func(*env) (*result, error) // untraced: end-to-end metrics
	traced func(*env) (*result, error) // traced: per-layer metrics
}

var workloads = map[string]workload{
	"figs":      {run: runFigs, traced: traceFigs},
	"big-heap":  {run: runHeap, traced: traceHeap},
	"serve-raw": {run: runServe, traced: traceServe},
}

func main() {
	name := flag.String("workload", "", "workload: figs, big-heap, serve-raw")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "how long the timed phase measures (batch workloads repeat whole units of work until it has passed, at least once)")
	trace := flag.Int("trace", 0, "1 runs the traced variant that reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for traces, CPU profiles and store files")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, out: *out}
	run := w.run
	if *trace == 1 {
		run = w.traced
	}
	res, err := run(e)
	if err == nil {
		err = res.fitLedger("BENCHMARK.json", *trace == 1)
	}
	if err != nil {
		// A harness failure (not a wrong answer): no result line.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := res.print(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// --- result ---------------------------------------------------------

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one attempted check and records a failure.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Correct = false
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// ledgerMetric is one metric BENCHMARK.json declares.
type ledgerMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// fitLedger makes the result report exactly the metrics BENCHMARK.json
// declares. An untraced run must measure every end-to-end metric, each
// above zero. A traced run reports every per-layer metric; one the
// workload's layers do not exercise reads 0.
func (r *result) fitLedger(path string, traced bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ledger struct {
		EndToEnd []ledgerMetric `json:"end_to_end"`
		PerLayer []ledgerMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &ledger); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := ledger.EndToEnd
	if traced {
		want = ledger.PerLayer
	}
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		got, ok := r.Metrics[m.Name]
		switch {
		case !ok && traced:
			r.set(m.Name, 0, m.Unit)
		case !ok:
			return fmt.Errorf("end-to-end metric %s not measured", m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s in %s, ledger says %s", m.Name, got.Unit, m.Unit)
		case !traced && !(got.Value > 0):
			return fmt.Errorf("end-to-end metric %s is %v", m.Name, got.Value)
		}
	}
	for k := range r.Metrics {
		if !declared[k] {
			return fmt.Errorf("metric %s is not in %s", k, path)
		}
	}
	return nil
}

func (r *result) print() error {
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for k, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", k)
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// --- measurement helpers ---------------------------------------------

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phase marks the start of a timed phase: wall clock, CPU time and the
// Go runtime counters.
type phase struct {
	t0   time.Time
	cpu0 time.Duration
	gc0  goStats
}

func startPhase() phase { return phase{t0: time.Now(), cpu0: cpuTime(), gc0: readGo()} }

func (p phase) wall() float64 { return time.Since(p.t0).Seconds() }
func (p phase) cpu() float64  { return (cpuTime() - p.cpu0).Seconds() }

// goStats are Go runtime counters read through runtime/metrics.
type goStats struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGo() goStats {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{v(0), v(1), v(2), v(3)}
}

// setGoMetrics reports the Go runtime's work over a phase.
func setGoMetrics(r *result, p phase) {
	runtime.GC() // publishes the CPU-class estimates
	g := readGo()
	r.set("go.alloc_mb", (g.allocBytes-p.gc0.allocBytes)/(1<<20), "MB")
	r.set("go.gc_cycles", g.gcCycles-p.gc0.gcCycles, "count")
	share := 0.0
	if d := g.totalCPU - p.gc0.totalCPU; d > 0 {
		share = (g.gcCPU - p.gc0.gcCPU) / d
	}
	r.set("go.gc_cpu_share", share, "ratio")
}

// setupRounds runs set-up `rounds` times and returns the last round's
// state and the median round time; the first round is timed from
// process start, so it includes runtime initialisation. teardown
// releases every round's state but the last.
func setupRounds[T any](rounds int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var cur T
	times := make([]float64, 0, rounds)
	start := processStart
	for i := 0; i < rounds; i++ {
		if i > 0 {
			teardown(cur)
			start = time.Now()
		}
		v, err := setup()
		if err != nil {
			return cur, 0, err
		}
		cur = v
		times = append(times, time.Since(start).Seconds())
	}
	return cur, median(times), nil
}

// median is the sample median of v (the lower middle for an even
// count; v is not modified).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// quantile is the Harrell–Davis estimate of the q-quantile of v (v is
// not modified): a mean of all order statistics weighted by the
// Beta(q(n+1), (1-q)(n+1)) distribution. A tail quantile with only a few
// samples beyond it (figs's p99 over about 300 cells) averages the
// order statistics around its rank instead of taking one of them, so it
// moves far less from run to run.
func quantile(v []float64, q float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q <= 0 || q >= 1 {
		return s[min(max(int(q*float64(n)), 0), n-1)]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete beta function's continued fraction
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
