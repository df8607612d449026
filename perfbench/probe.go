package main

import (
	"time"

	"memfwd/internal/apps/app"
	"memfwd/internal/core"
	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/obs"
)

// A probe is a timing wrapper at the app.Machine boundary. It forwards
// every call unchanged and times every sampleEvery-th call of each
// class, so its own cost stays a small share of the run. The traced
// runs put one probe above the sched group (what the guest sees) and
// one below it (what reaches the simulator).
//
// A wrapper must not drop the optional capabilities the layers find by
// type assertion: opt.TryRelocate's RelocationBarrier and span
// recording (RelocationSpans, Now), and sched's per-hart timing
// (SetHart, HartCount). probe forwards the first three and degrades to
// the absent behaviour when the inner machine lacks them; hartProbe
// adds the hart methods and is used only when the inner machine has
// them, because declaring them on a machine without harts would change
// what sched.New decides.

// Call classes a probe keeps apart.
const (
	clsLoad = iota
	clsStore
	clsInst
	clsMalloc
	clsFree
	clsOther
	numClasses
)

// sampleEvery is the probe's sampling period per call class.
const sampleEvery = 32

// Address-stream recording for the mem/core/cache replays: windows of
// consecutive guest loads keep the stream's locality.
const (
	recordPeriod = 1 << 14
	recordWindow = 2048
)

type classStat struct {
	calls     uint64
	sampled   uint64
	sampledNs int64
}

type probe struct {
	inner app.Machine
	cls   [numClasses]classStat

	// Load-address recording (guest hart only): each full window is
	// replayed into the layers at once (see windowReplay), and the
	// replay's time is excluded from every probe sharing excl.
	replay  *windowReplay
	hart    int
	loadSeq uint64
	addrs   []mem.Addr
	excl    *int64

	// In-situ opt.TryRelocate timing (timeRelocs): the barrier marks a
	// relocation's start, TraceRelocate its successful end; calls in
	// between are the relocation's own and stay out of the classes.
	timeRelocs bool
	relocSrc   mem.Addr
	relocStart time.Time
	relocExcl  int64
	relocOpen  bool
	relocs     uint64
	relocNs    int64
}

// hartProbe is a probe over a machine with per-hart timing.
type hartProbe struct {
	*probe
	hs interface {
		SetHart(i int)
		HartCount() int
	}
}

// wrap returns a probe over inner, with the hart capability exactly
// when inner has it. replay (nil for none) receives the guest's load
// windows; excl is shared by the probes of one stack.
func wrap(inner app.Machine, replay *windowReplay, excl *int64) (app.Machine, *probe) {
	p := &probe{inner: inner, replay: replay, excl: excl}
	if hs, ok := inner.(interface {
		SetHart(i int)
		HartCount() int
	}); ok {
		return &hartProbe{probe: p, hs: hs}, p
	}
	return p, p
}

// SetHart forwards and tracks the current hart.
func (h *hartProbe) SetHart(i int) {
	h.hart = i
	h.hs.SetHart(i)
}

// HartCount forwards.
func (h *hartProbe) HartCount() int { return h.hs.HartCount() }

// RelocationBarrier forwards opt.TryRelocate's pre-flight hook and
// opens the relocation's timing window after the barrier returns.
func (p *probe) RelocationBarrier(src mem.Addr) {
	if b, ok := p.inner.(interface{ RelocationBarrier(mem.Addr) }); ok {
		b.RelocationBarrier(src)
	}
	if p.timeRelocs {
		p.relocSrc, p.relocOpen, p.relocStart, p.relocExcl = src, true, time.Now(), *p.excl
	}
}

// Now forwards the simulated clock (0 without one, like the oracle).
func (p *probe) Now() int64 {
	if n, ok := p.inner.(interface{ Now() int64 }); ok {
		return n.Now()
	}
	return 0
}

// RelocationSpans forwards the span table (nil without one, which
// opt treats as "not recording").
func (p *probe) RelocationSpans() *obs.SpanTable {
	if s, ok := p.inner.(interface{ RelocationSpans() *obs.SpanTable }); ok {
		return s.RelocationSpans()
	}
	return nil
}

// begin counts a call and reports whether to time it.
func (p *probe) begin(c int) bool {
	if p.relocOpen {
		return false
	}
	p.cls[c].calls++
	return p.cls[c].calls%sampleEvery == 0
}

// stamp starts timing a sampled call.
type stamp struct {
	t    time.Time
	excl int64
}

func (p *probe) now() stamp { return stamp{time.Now(), *p.excl} }

func (p *probe) end(c int, t0 stamp) {
	p.cls[c].sampled++
	p.cls[c].sampledNs += int64(time.Since(t0.t)) - (*p.excl - t0.excl)
}

func (p *probe) noteLoad(a mem.Addr) {
	if p.replay == nil || p.hart != 0 {
		return
	}
	p.loadSeq++
	if p.loadSeq%recordPeriod >= recordWindow {
		return
	}
	p.addrs = append(p.addrs, a)
	if len(p.addrs) == recordWindow {
		t := time.Now()
		p.replay.run(p.addrs)
		p.addrs = p.addrs[:0]
		*p.excl += int64(time.Since(t))
	}
}

// --- app.Machine ---------------------------------------------------

func (p *probe) Inst(n int) {
	if !p.begin(clsInst) {
		p.inner.Inst(n)
		return
	}
	t0 := p.now()
	p.inner.Inst(n)
	p.end(clsInst, t0)
}

func (p *probe) Load(a mem.Addr, size uint) uint64 {
	p.noteLoad(a)
	if !p.begin(clsLoad) {
		return p.inner.Load(a, size)
	}
	t0 := p.now()
	v := p.inner.Load(a, size)
	p.end(clsLoad, t0)
	return v
}

func (p *probe) Store(a mem.Addr, v uint64, size uint) {
	if !p.begin(clsStore) {
		p.inner.Store(a, v, size)
		return
	}
	t0 := p.now()
	p.inner.Store(a, v, size)
	p.end(clsStore, t0)
}

func (p *probe) LoadWord(a mem.Addr) uint64 {
	p.noteLoad(a)
	if !p.begin(clsLoad) {
		return p.inner.LoadWord(a)
	}
	t0 := p.now()
	v := p.inner.LoadWord(a)
	p.end(clsLoad, t0)
	return v
}

func (p *probe) StoreWord(a mem.Addr, v uint64) {
	if !p.begin(clsStore) {
		p.inner.StoreWord(a, v)
		return
	}
	t0 := p.now()
	p.inner.StoreWord(a, v)
	p.end(clsStore, t0)
}

func (p *probe) LoadPtr(a mem.Addr) mem.Addr {
	p.noteLoad(a)
	if !p.begin(clsLoad) {
		return p.inner.LoadPtr(a)
	}
	t0 := p.now()
	v := p.inner.LoadPtr(a)
	p.end(clsLoad, t0)
	return v
}

func (p *probe) StorePtr(a, v mem.Addr) {
	if !p.begin(clsStore) {
		p.inner.StorePtr(a, v)
		return
	}
	t0 := p.now()
	p.inner.StorePtr(a, v)
	p.end(clsStore, t0)
}

func (p *probe) Load32(a mem.Addr) uint32 {
	p.noteLoad(a)
	if !p.begin(clsLoad) {
		return p.inner.Load32(a)
	}
	t0 := p.now()
	v := p.inner.Load32(a)
	p.end(clsLoad, t0)
	return v
}

func (p *probe) Store32(a mem.Addr, v uint32) {
	if !p.begin(clsStore) {
		p.inner.Store32(a, v)
		return
	}
	t0 := p.now()
	p.inner.Store32(a, v)
	p.end(clsStore, t0)
}

func (p *probe) Load16(a mem.Addr) uint16 {
	p.noteLoad(a)
	if !p.begin(clsLoad) {
		return p.inner.Load16(a)
	}
	t0 := p.now()
	v := p.inner.Load16(a)
	p.end(clsLoad, t0)
	return v
}

func (p *probe) Store16(a mem.Addr, v uint16) {
	if !p.begin(clsStore) {
		p.inner.Store16(a, v)
		return
	}
	t0 := p.now()
	p.inner.Store16(a, v)
	p.end(clsStore, t0)
}

func (p *probe) Load8(a mem.Addr) uint8 {
	p.noteLoad(a)
	if !p.begin(clsLoad) {
		return p.inner.Load8(a)
	}
	t0 := p.now()
	v := p.inner.Load8(a)
	p.end(clsLoad, t0)
	return v
}

func (p *probe) Store8(a mem.Addr, v uint8) {
	if !p.begin(clsStore) {
		p.inner.Store8(a, v)
		return
	}
	t0 := p.now()
	p.inner.Store8(a, v)
	p.end(clsStore, t0)
}

func (p *probe) Malloc(n uint64) mem.Addr {
	if !p.begin(clsMalloc) {
		return p.inner.Malloc(n)
	}
	t0 := p.now()
	a := p.inner.Malloc(n)
	p.end(clsMalloc, t0)
	return a
}

func (p *probe) Free(a mem.Addr) {
	if !p.begin(clsFree) {
		p.inner.Free(a)
		return
	}
	t0 := p.now()
	p.inner.Free(a)
	p.end(clsFree, t0)
}

// The relocation primitives and untimed helpers form the "other"
// class: below a sched group they carry the relocator hart's steps.

func (p *probe) Prefetch(a mem.Addr, lines int) {
	if !p.begin(clsOther) {
		p.inner.Prefetch(a, lines)
		return
	}
	t0 := p.now()
	p.inner.Prefetch(a, lines)
	p.end(clsOther, t0)
}

func (p *probe) ReadFBit(a mem.Addr) bool {
	if !p.begin(clsOther) {
		return p.inner.ReadFBit(a)
	}
	t0 := p.now()
	v := p.inner.ReadFBit(a)
	p.end(clsOther, t0)
	return v
}

func (p *probe) UnforwardedRead(a mem.Addr) (uint64, bool) {
	if !p.begin(clsOther) {
		return p.inner.UnforwardedRead(a)
	}
	t0 := p.now()
	v, f := p.inner.UnforwardedRead(a)
	p.end(clsOther, t0)
	return v, f
}

func (p *probe) UnforwardedWrite(a mem.Addr, v uint64, fbit bool) {
	if !p.begin(clsOther) {
		p.inner.UnforwardedWrite(a, v, fbit)
		return
	}
	t0 := p.now()
	p.inner.UnforwardedWrite(a, v, fbit)
	p.end(clsOther, t0)
}

func (p *probe) FinalAddr(a mem.Addr) mem.Addr {
	if !p.begin(clsOther) {
		return p.inner.FinalAddr(a)
	}
	t0 := p.now()
	v := p.inner.FinalAddr(a)
	p.end(clsOther, t0)
	return v
}

func (p *probe) PtrEqual(a, b mem.Addr) bool {
	if !p.begin(clsOther) {
		return p.inner.PtrEqual(a, b)
	}
	t0 := p.now()
	v := p.inner.PtrEqual(a, b)
	p.end(clsOther, t0)
	return v
}

func (p *probe) SetTrap(h core.TrapHandler)             { p.inner.SetTrap(h) }
func (p *probe) Allocator() *mem.Allocator              { return p.inner.Allocator() }
func (p *probe) Memory() *mem.Memory                    { return p.inner.Memory() }
func (p *probe) Forwarder() *core.Forwarder             { return p.inner.Forwarder() }
func (p *probe) LineSize() int                          { return p.inner.LineSize() }
func (p *probe) FaultInjector() *fault.Injector         { return p.inner.FaultInjector() }
func (p *probe) SetFaultInjector(in *fault.Injector)    { p.inner.SetFaultInjector(in) }
func (p *probe) Site(name string) int                   { return p.inner.Site(name) }
func (p *probe) SetSite(id int)                         { p.inner.SetSite(id) }
func (p *probe) PhaseBegin(name string)                 { p.inner.PhaseBegin(name) }
func (p *probe) PhaseEnd(name string)                   { p.inner.PhaseEnd(name) }
func (p *probe) TraceRelocate(src, tgt mem.Addr, n int) { p.traceRelocate(src, tgt, n) }

// traceRelocate forwards and closes the TryRelocate window opened by
// the barrier for the same source. An aborted relocation never reaches
// here; its window is replaced by the next barrier. Under the probe
// below a sched group, relocator-hart jobs run as coroutines between
// guest operations, so only the probe above the group (where guest
// relocations run without interleaving) yields opt.try_relocate_ns.
func (p *probe) traceRelocate(src, tgt mem.Addr, n int) {
	p.inner.TraceRelocate(src, tgt, n)
	if p.relocOpen && p.relocSrc == src {
		p.relocs++
		p.relocNs += int64(time.Since(p.relocStart)) - (*p.excl - p.relocExcl)
		p.relocOpen = false
	}
}

// estNs estimates the total time spent inside the inner machine for a
// class: the mean sampled call (less the timer's own cost) times the
// exact call count.
func (p *probe) estNs(c int, timerNs float64) float64 {
	return p.meanNs(c, timerNs) * float64(p.cls[c].calls)
}

// meanNs is the mean sampled duration of a class, less the timer cost.
func (p *probe) meanNs(c int, timerNs float64) float64 {
	s := p.cls[c]
	if s.sampled == 0 {
		return 0
	}
	m := float64(s.sampledNs)/float64(s.sampled) - timerNs
	if m < 0 {
		return 0
	}
	return m
}

// timedNs is the estimated time inside the inner machine over all
// classes.
func (p *probe) timedNs(timerNs float64) float64 {
	var t float64
	for c := 0; c < numClasses; c++ {
		t += p.estNs(c, timerNs)
	}
	return t
}

// calibrateTimer returns the median cost of one back-to-back time
// reading pair: the bias each sampled duration carries.
func calibrateTimer() float64 {
	p := &probe{excl: new(int64)}
	for i := 0; i < 2001; i++ {
		p.end(clsOther, p.now())
	}
	return float64(p.cls[clsOther].sampledNs) / float64(p.cls[clsOther].sampled)
}
