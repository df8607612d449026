package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"memfwd"
	"memfwd/internal/apps/app"
	"memfwd/internal/figures"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
	"memfwd/internal/opt"
	"memfwd/internal/oracle"
	"memfwd/internal/sched"
	"memfwd/internal/sim"
)

// barrierCounter is a machine with a relocation barrier, to prove the
// probe forwards it.
type barrierCounter struct {
	*oracle.Machine
	barriers int
}

func (b *barrierCounter) RelocationBarrier(mem.Addr) { b.barriers++ }

func TestProbeForwardsCapabilities(t *testing.T) {
	type harts interface {
		SetHart(int)
		HartCount() int
	}
	if m, _ := wrap(sim.New(sim.Config{Harts: 2}), nil, new(int64)); true {
		h, ok := m.(harts)
		if !ok || h.HartCount() != 2 {
			t.Fatalf("probe over a 2-hart sim machine does not forward the hart capability")
		}
	}
	if m, _ := wrap(oracle.New(oracle.Config{}), nil, new(int64)); true {
		if _, ok := m.(harts); ok {
			t.Fatalf("probe over the oracle claims a hart capability the oracle lacks")
		}
	}

	// The barrier reaches the machine under the probe.
	bc := &barrierCounter{Machine: oracle.New(oracle.Config{})}
	pm, _ := wrap(bc, nil, new(int64))
	src := pm.Malloc(64)
	if err := opt.TryRelocate(pm, src, 0x7000_0000, 8); err != nil {
		t.Fatal(err)
	}
	if bc.barriers != 1 {
		t.Fatalf("RelocationBarrier reached the inner machine %d times, want 1", bc.barriers)
	}

	// Span recording survives a probe above and below a sched group.
	m := sim.New(sim.Config{Harts: 2})
	spans := obs.NewSpanTable(0)
	m.SetSpans(spans)
	excl := new(int64)
	below, _ := wrap(m, nil, excl)
	grp, err := sched.New(below, sched.Config{Harts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()
	above, _ := wrap(grp, nil, excl)
	src = above.Malloc(64)
	if err := opt.TryRelocate(above, src, 0x7000_0000, 8); err != nil {
		t.Fatal(err)
	}
	if spans.Snapshot(0).Committed == 0 {
		t.Fatalf("no relocation span recorded through the probes")
	}
}

// The traced big-heap stack must leave the simulation untouched.
func TestTracedHeapMatchesUntraced(t *testing.T) {
	a := memfwd.MustApp(heapApp)
	plain, err := runCell(a, heapLine, 9, 1, heapHarts, cellOpts{sliceEvery: heapSlice})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runCell(a, heapLine, 9, 1, heapHarts, cellOpts{probed: true})
	if err != nil {
		t.Fatal(err)
	}
	if traced.run.Result != plain.run.Result {
		t.Fatalf("checksum/result differ: traced %+v, untraced %+v", traced.run.Result, plain.run.Result)
	}
	if traced.digest != plain.digest {
		t.Fatalf("heap digest differs: traced %#x, untraced %#x", traced.digest, plain.digest)
	}
	if !sameStats(traced.run.Stats, plain.run.Stats) {
		t.Fatalf("sim.Stats differ:\ntraced   %+v\nuntraced %+v", *traced.run.Stats, *plain.run.Stats)
	}
	if !reflect.DeepEqual(traced.run.Sched, plain.run.Sched) {
		t.Fatalf("sched.Stats differ: traced %+v, untraced %+v", traced.run.Sched, plain.run.Sched)
	}
	if len(plain.slicesMs) == 0 {
		t.Fatalf("the sampler timed no slice")
	}
	r := newResult()
	if err := plain.save(); err != nil {
		t.Fatal(err)
	}
	if _, err := timeRestore(r, []cell{plain}); err != nil || !r.Correct {
		t.Fatalf("restore of the saved cell: err=%v problems=%v", err, r.problems)
	}
	if traced.replay.n == 0 || traced.lower.cls[clsLoad].sampled == 0 || traced.upper.relocs == 0 {
		t.Fatalf("probes measured nothing: replayed %d loads, %d load samples, %d relocations",
			traced.replay.n, traced.lower.cls[clsLoad].sampled, traced.upper.relocs)
	}

	// The hand-built stack is the one memfwd.RunOne builds.
	one := memfwd.RunOne(a, heapLine, memfwd.VariantL, 0, memfwd.Options{Seed: 9, Scale: 1, Harts: heapHarts})
	if !sameStats(one.Stats, plain.run.Stats) || !reflect.DeepEqual(one.Sched, plain.run.Sched) {
		t.Fatalf("runCell's stack differs from memfwd.RunOne's")
	}
}

func TestModelDigestReproducible(t *testing.T) {
	a := memfwd.MustApp(heapApp)
	digest := func(seed int64) string {
		c, err := runCell(a, heapLine, seed, 1, heapHarts, cellOpts{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := cellDigest(c)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if d1, d2 := digest(3), digest(3); d1 != d2 {
		t.Fatalf("one seed gave two digests: %s, %s", d1, d2)
	}
	if digest(3) == digest(4) {
		t.Fatalf("another seed left the digest unchanged")
	}
	// Another seed generates other inputs, not just other timing.
	r3, _ := heapSetup(3, 1)()
	r4, _ := heapSetup(4, 1)()
	if r3.checksum == r4.checksum {
		t.Fatalf("seeds 3 and 4 generate the same health input (checksum %d)", r3.checksum)
	}
}

// The figs digest is the hash of exactly what `figures -json` prints,
// and the suite passes its own checks.
func TestFigsDigestIsFiguresJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper suite twice")
	}
	o := figsOptions(9)
	s := runSuite(o, nil)
	r := newResult()
	checkSuite(r, s, oracleRefs(o.Seed, o.Scale))
	if !r.Correct || r.Attempted < 90 {
		t.Fatalf("suite checks: correct=%v attempted=%d problems=%v", r.Correct, r.Attempted, r.problems)
	}
	got, err := s.modelDigest()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := figures.Run(figures.Config{JSON: true, Seed: 9, Scale: 1, Jobs: figsJobs}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out.Bytes())
	if want := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("model digest %s, sha256 of figures -json %s", got, want)
	}
}

func TestScriptSeeds(t *testing.T) {
	one, err := newPool(7, scriptOps)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := newPool(7, scriptOps)
	other, _ := newPool(8, scriptOps)
	if !reflect.DeepEqual(one[0].batches, again[0].batches) || one[0].digests[len(one[0].digests)-1] != again[0].digests[len(again[0].digests)-1] {
		t.Fatalf("one seed generated two scripts")
	}
	if reflect.DeepEqual(one[0].batches, other[0].batches) {
		t.Fatalf("two seeds generated the same script")
	}
	// Cut as serve.Selftest cuts it: halves of 80 ops in batches of 32.
	var sizes []int
	for _, b := range one[0].batches {
		sizes = append(sizes, len(b))
	}
	if !reflect.DeepEqual(sizes, []int{32, 32, 16, 32, 32, 16}) || one[0].split != 3 {
		t.Fatalf("batches %v, split %d", sizes, one[0].split)
	}
}

// The serve checks pass on a correct server and catch a wrong answer.
func TestServeChecks(t *testing.T) {
	for _, durable := range []bool{false, true} {
		e := &env{seed: 11, out: t.TempDir()}
		st, err := bootStack(e, durable, e.seed, scriptOps)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.drive(300*time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
		r := newResult()
		live := st.verify(r)
		if !r.Correct || r.Attempted == 0 || len(live) != serveClients*sessionsPerClient {
			t.Fatalf("durable=%v: correct=%v attempted=%d live=%d problems=%v", durable, r.Correct, r.Attempted, len(live), r.problems)
		}
		if durable {
			if _, rep, err := st.recoverStore(r, live); err != nil || !r.Correct || rep.Sessions != len(live) {
				t.Fatalf("recovery: err=%v correct=%v sessions=%d problems=%v", err, r.Correct, rep.Sessions, r.problems)
			}
		}
		st.close()
	}

	// A served load value the reference does not reproduce fails.
	e := &env{seed: 11, out: t.TempDir()}
	st, err := bootStack(e, false, e.seed, scriptOps)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	st.pool[1].loads[1]++
	if _, err := st.drive(300*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	r := newResult()
	st.verify(r)
	if r.Correct || r.Failed == 0 {
		t.Fatalf("a wrong load value passed the checks")
	}
}

// The traced run's guest time is that of exactly the /op batches its
// third acknowledged, so the HTTP share it leaves is the rest of their
// round trip, even when an earlier drive of the same stack ran more
// batches.
func TestServeGuestShare(t *testing.T) {
	e := &env{seed: 12, out: t.TempDir()}
	st, err := bootStack(e, false, e.seed, scriptOps)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if _, err := st.drive(300*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	el, err := st.drive(300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := st.stats(el)
	var guest time.Duration
	batches, ops := 0, 0
	for _, c := range st.clients {
		for _, d := range c.done {
			if d.kind != kindOp {
				continue
			}
			if d.guest <= 0 || d.ops == 0 {
				t.Fatalf("an acknowledged batch has no guest time (%v) or ops (%d)", d.guest, d.ops)
			}
			guest += d.guest
			batches++
			ops += d.ops
		}
	}
	if batches == 0 || batches != len(ps.lat[kindOp]) || ps.guest != guest || ops != ps.ops {
		t.Fatalf("batches %d of %d, guest %v of %v, ops %d of %d", batches, len(ps.lat[kindOp]), guest, ps.guest, ops, ps.ops)
	}
	if perReq := float64(ps.guest) / float64(batches); !(perReq > 0 && perReq < ps.opMeanNs) {
		t.Fatalf("guest time per request %.0f ns, round trip %.0f ns", perReq, ps.opMeanNs)
	}
}

var _ app.Machine = (*probe)(nil)

// A result is fitted to exactly the ledger's metrics: an untraced run
// must measure every end-to-end metric, a traced run gets zeros for
// the layers its workload does not exercise.
func TestFitLedger(t *testing.T) {
	const ledger = "../BENCHMARK.json"
	r := newResult()
	r.set("setup_s", 1, "s")
	if err := r.fitLedger(ledger, false); err == nil {
		t.Fatalf("an untraced result missing end-to-end metrics fitted the ledger")
	}
	r = newResult()
	r.set("sched.steps", 7, "count")
	if err := r.fitLedger(ledger, true); err != nil {
		t.Fatal(err)
	}
	if r.Metrics["sched.steps"].Value != 7 || r.Metrics["store.appends"] != (metric{0, "count"}) {
		t.Fatalf("traced result not filled: %v", r.Metrics)
	}
	r.set("no.such_metric", 1, "count")
	if err := r.fitLedger(ledger, true); err == nil {
		t.Fatalf("a metric outside the ledger fitted it")
	}
}

// quantile is the Harrell–Davis estimator: symmetric samples have their
// centre as median, a constant sample is its own quantile, and a tail
// quantile lies between the order statistics around its rank.
func TestQuantile(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9*math.Max(1, math.Abs(b)) }
	v := make([]float64, 301)
	for i := range v {
		v[i] = float64(300 - i)
	}
	if got := quantile(v, 0.5); !near(got, 150) {
		t.Fatalf("median of 0..300 is %v", got)
	}
	if got := quantile([]float64{7, 7, 7, 7}, 0.99); !near(got, 7) {
		t.Fatalf("p99 of a constant sample is %v", got)
	}
	if got := quantile(v, 0.99); got < 290 || got > 300 {
		t.Fatalf("p99 of 0..300 is %v", got)
	}
	if got := quantile([]float64{3}, 0.99); got != 3 {
		t.Fatalf("p99 of one sample is %v", got)
	}
}
