package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"memfwd/internal/mem"
	"memfwd/internal/opt"
	"memfwd/internal/oracle"
	"memfwd/internal/serve"
	"memfwd/internal/sim"
)

// The serve-raw workload drives an in-process memory-only serve.Server
// (4 shards, on loopback) with two client goroutines, each holding one
// keep-alive connection in a closed loop: memfwd-serve clients each own
// sessions and wait for every reply. Each client drives its own raw
// sessions with the session script of serve.Selftest, the traffic model
// the repository's own load test runs: 160 guest operations from its
// generator (about 30% malloc, 30% store, 30% load, 7% relocate, 3%
// free), sent in /op batches of up to 32, cut in two halves around a
// snapshot+restore or live migration, then a final digest and delete; a
// finished session is replaced by a new one. App sessions are left out:
// their long /step requests would make the latency distribution
// bimodal. The same server built on OpenStore over a fresh directory on
// the local disk carries the durable plane: recover_s times its
// recovery, and the traced run drives it for the store's per-request
// share (WAL appends, a sync per batch, checkpoints).
const (
	serveShards       = 4
	serveClients      = 2
	sessionsPerClient = 16
	scriptOps         = 160 // serve.Selftest's default script length
	batchMax          = 32  // serve.Selftest's /op batch size
	// scriptPool is how many distinct seeded scripts a stack's sessions
	// cycle through. Set-up runs each once in-process for the answers
	// its sessions must return.
	scriptPool       = 64
	setupRoundsServe = 15
	recoverRounds    = 15
	// restoresPerDrive caps each client's snapshot+restore actions in a
	// timed phase; scripts past the cap migrate instead. The server
	// keeps every snapshot it takes (about 270 KB of machine state each)
	// and has no way to drop one, so at Selftest's share, half the
	// scripts, a 20-second phase would retain gigabytes.
	restoresPerDrive = 8
	// arenaBase is where the first shard's relocation arena starts
	// (internal/serve's shardArenaBase(0)); the in-process reference
	// relocates there, as serve.Selftest's does.
	arenaBase = 0x4_0000_0000
	fnvBasis  = 14695981039346656037
)

// --- the session script -------------------------------------------------

// sop is one scripted guest operation; blocks are indices into the
// session's malloc history, so the script is independent of where
// blocks land.
type sop struct {
	kind  byte // 'm'alloc 'f'ree 's'tore 'l'oad 'r'elocate
	size  uint64
	block int
	off   uint64 // word offset within the block
	val   uint64
}

// genScript is serve.Selftest's script generator (genScript in
// internal/serve/selftest.go, unexported there), draw for draw: the
// same op mix, block sizes and liveness model, so frees and
// relocations always hit live blocks.
func genScript(seed int64, n int) []sop {
	rng := rand.New(rand.NewSource(seed))
	var sizes []uint64
	var live []int
	ops := make([]sop, 0, n)
	for len(ops) < n {
		k := rng.Intn(10)
		if len(live) == 0 {
			k = 0
		}
		switch {
		case k < 3: // malloc
			size := uint64(8 * (1 + rng.Intn(64)))
			sizes = append(sizes, size)
			live = append(live, len(sizes)-1)
			ops = append(ops, sop{kind: 'm', size: size})
		case k < 6: // store
			b := live[rng.Intn(len(live))]
			ops = append(ops, sop{kind: 's', block: b, off: uint64(rng.Intn(int(sizes[b] / 8))), val: rng.Uint64()})
		case k < 9: // load
			b := live[rng.Intn(len(live))]
			ops = append(ops, sop{kind: 'l', block: b, off: uint64(rng.Intn(int(sizes[b] / 8)))})
		case k == 9 && rng.Intn(3) == 0: // free (kept rare)
			i := rng.Intn(len(live))
			b := live[i]
			live = append(live[:i], live[i+1:]...)
			ops = append(ops, sop{kind: 'f', block: b})
		default: // relocate
			ops = append(ops, sop{kind: 'r', block: live[rng.Intn(len(live))]})
		}
	}
	return ops
}

// script is one session's seeded script, cut into /op batches as
// serve.Selftest cuts it, with the answers an in-process run of it on a
// bare sim.Machine gives: the reference every served session of it
// must reproduce.
type script struct {
	seed    int64
	batches [][]sop
	split   int  // batches before the control action
	restore bool // the control action is snapshot+restore, not migration

	addrs        []uint64        // malloc addresses, in script order
	loads        []uint64        // FNV sum of the load values after each batch
	digests      []uint64        // heap digest before the first batch and after each
	guest        []time.Duration // host time of each batch's guest operations
	reloc        time.Duration   // of which in opt.TryRelocate
	relocs       int
	instructions uint64 // simulated instructions the whole script graduates
}

// newScript generates the script of seed, n operations long, and runs
// it in-process. As in serve.Selftest's reference run, relocations go
// to consecutive page-rounded targets from the first shard's arena; the
// server picks its own targets, which no checked answer depends on.
func newScript(seed int64, n int) (*script, error) {
	ops := genScript(seed, n)
	sc := &script{seed: seed, restore: seed%2 == 0}
	cut := func(ops []sop) {
		for len(ops) > 0 {
			k := min(len(ops), batchMax)
			sc.batches = append(sc.batches, ops[:k])
			ops = ops[k:]
		}
	}
	cut(ops[:n/2])
	sc.split = len(sc.batches)
	cut(ops[n/2:])

	m := sim.New(sim.Config{})
	digest := func() error {
		d, err := oracle.DigestModuloForwarding(m.Mem, m.Fwd, m.Alloc)
		sc.digests = append(sc.digests, d)
		return err
	}
	if err := digest(); err != nil {
		return nil, err
	}
	arena := mem.Addr(arenaBase)
	loads := uint64(fnvBasis)
	for _, b := range sc.batches {
		t0 := time.Now()
		for _, op := range b {
			switch op.kind {
			case 'm':
				sc.addrs = append(sc.addrs, uint64(m.Malloc(op.size)))
			case 'f':
				m.Free(mem.Addr(sc.addrs[op.block]))
			case 's':
				m.StoreWord(mem.Addr(sc.addrs[op.block]+op.off*8), op.val)
			case 'l':
				loads = fnvMix(loads, m.LoadWord(mem.Addr(sc.addrs[op.block]+op.off*8)))
			case 'r':
				src := mem.Addr(sc.addrs[op.block])
				size, ok := m.Allocator().SizeOf(src)
				if !ok {
					return nil, fmt.Errorf("script %d: relocate of dead block %d", seed, op.block)
				}
				r0 := time.Now()
				if err := opt.TryRelocate(m, src, arena, int(size/mem.WordSize)); err != nil {
					return nil, fmt.Errorf("script %d: relocate: %w", seed, err)
				}
				sc.reloc += time.Since(r0)
				sc.relocs++
				arena += mem.Addr((size + 0xFFF) &^ 0xFFF)
			}
		}
		sc.guest = append(sc.guest, time.Since(t0))
		sc.loads = append(sc.loads, loads)
		if err := digest(); err != nil {
			return nil, err
		}
	}
	sc.instructions = m.Finalize().Instructions
	return sc, nil
}

// retimeRuns is how many warm in-process runs retime takes the median
// of.
const retimeRuns = 5

// retime replaces the host times of the pool's reference runs, which
// set-up took once each in a cold process, by the median of retimeRuns
// runs in the warm process.
func retime(pool []*script) error {
	for _, sc := range pool {
		n := 0
		for _, b := range sc.batches {
			n += len(b)
		}
		runs := make([]*script, retimeRuns)
		for i := range runs {
			var err error
			if runs[i], err = newScript(sc.seed, n); err != nil {
				return err
			}
		}
		for b := range sc.guest {
			v := make([]float64, len(runs))
			for i, x := range runs {
				v[i] = float64(x.guest[b])
			}
			sc.guest[b] = time.Duration(median(v))
		}
		v := make([]float64, len(runs))
		for i, x := range runs {
			v[i] = float64(x.reloc)
		}
		sc.reloc = time.Duration(median(v))
	}
	return nil
}

// newPool generates and runs a stack's scripts, each n operations long.
func newPool(seed int64, n int) ([]*script, error) {
	pool := make([]*script, scriptPool)
	for i := range pool {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%d", seed, i)
		var err error
		if pool[i], err = newScript(int64(h.Sum64()>>1), n); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// opReq and opRes mirror the server's /op JSON.
type opReq struct {
	Op    string  `json:"op,omitempty"`
	Addr  uint64  `json:"addr,omitempty"`
	Size  uint64  `json:"size,omitempty"`
	Value uint64  `json:"value,omitempty"`
	Ops   []opReq `json:"ops,omitempty"`
}

type opRes struct {
	Addr  uint64 `json:"addr,omitempty"`
	Value uint64 `json:"value,omitempty"`
}

// --- clients -----------------------------------------------------------

// session is one client-owned served session and its place in its
// script.
type session struct {
	id         string
	shard      int
	sc         *script
	batch      int    // batches done
	nMalloc    int    // mallocs checked so far
	loads      uint64 // FNV sum of the load values it returned
	reqs       int
	broken     bool // a request failed or an answer was wrong: end it
	wrong      bool // an answer differed from the reference
	controlled bool // the halfway snapshot+restore or migration is done
	opened     time.Time
}

// reqKind classes requests for the latency breakdown.
const (
	kindOp = iota
	kindDigest
	kindCreate
	kindDelete
	kindMigrate
	kindSnapshot
	kindRestore
	numKinds
)

type client struct {
	id    int
	base  string
	http  *http.Client
	pool  []*script
	next  int     // scripts opened so far
	tr    *tracer // nil when untraced
	slots []*session
	done  []reqDone // every request of the phase, in completion order
	start time.Time // phase start
	// scripts is the wall time, in seconds, of every session script
	// the phase ran whole: create request sent to delete answered;
	// instructions is what those scripts graduated.
	scripts      []float64
	instructions uint64
	ops          int
	reqs         int
	failed       int // requests refused or not answered
	wrongReqs    int // requests of finished sessions that answered wrongly
	restores     int // snapshot+restore actions this phase
	problems     []string
}

// reqDone is one finished request: its kind, when it completed (since
// the phase started), its round trip, and for an /op batch the guest
// ops it acknowledged and the host time they took in-process.
type reqDone struct {
	kind    int
	at, lat time.Duration
	ops     int
	guest   time.Duration
}

func newClient(id int, base string, pool []*script) *client {
	return &client{
		id:   id,
		base: base,
		pool: pool,
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// call makes one request on behalf of session s (nil for none),
// timing it; out may be nil.
func (c *client) call(s *session, kind int, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	var sp int64
	if c.tr != nil {
		sp = c.tr.begin(path, 0, int64(c.id)<<40|int64(c.reqs))
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	if c.tr != nil {
		c.tr.end(sp)
	}
	c.reqs++
	if s != nil {
		s.reqs++
	}
	c.done = append(c.done, reqDone{kind: kind, at: time.Since(c.start), lat: d})
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	if err != nil {
		c.failed++
		c.problem("%v", err)
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (c *client) problem(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// wrongAnswer ends a session whose answer differs from its script's
// reference; all its requests count as failed.
func (c *client) wrongAnswer(s *session, format string, args ...any) {
	s.broken, s.wrong = true, true
	c.problem("session %s (script %d): %s", s.id, s.sc.seed, fmt.Sprintf(format, args...))
}

type sessInfo struct {
	ID    string `json:"id"`
	Shard int    `json:"shard"`
}

// open creates a session for a slot, on the client's next script.
func (c *client) open(slot int) error {
	sc := c.pool[(c.id+serveClients*c.next)%len(c.pool)]
	c.next++
	s := &session{sc: sc, loads: fnvBasis, opened: time.Now()}
	var info sessInfo
	if err := c.call(s, kindCreate, http.MethodPost, "/sessions", map[string]any{"mode": "raw"}, &info); err != nil {
		return err
	}
	s.id, s.shard = info.ID, info.Shard
	c.slots[slot] = s
	return nil
}

// step sends a slot's next requests: the next batch, the halfway
// control action, or the end of its script and a new session.
func (c *client) step(slot int) error {
	s := c.slots[slot]
	switch {
	case s.broken || s.batch == len(s.sc.batches):
		c.finish(s)
		return c.open(slot)
	case s.batch == s.sc.split && !s.controlled:
		c.control(s)
	default:
		c.batch(s)
	}
	return nil
}

// finish checks a session's final digest, deletes it, and books it.
func (c *client) finish(s *session) {
	if !s.broken {
		c.digest(s)
	}
	if err := c.call(s, kindDelete, http.MethodDelete, "/sessions/"+s.id, nil, nil); err != nil {
		s.broken = true
	}
	if s.wrong {
		c.wrongReqs += s.reqs
	}
	if !s.broken && !s.opened.Before(c.start) {
		c.scripts = append(c.scripts, time.Since(s.opened).Seconds())
		c.instructions += s.sc.instructions
	}
}

// digest asks for the session's heap digest and checks it against the
// reference after the batches done.
func (c *client) digest(s *session) (uint64, bool) {
	var out opRes
	if err := c.call(s, kindDigest, http.MethodPost, "/sessions/"+s.id+"/op", opReq{Op: "digest"}, &out); err != nil {
		s.broken = true
		return 0, false
	}
	if want := s.sc.digests[s.batch]; out.Value != want {
		c.wrongAnswer(s, "digest %#x after %d batches, reference %#x", out.Value, s.batch, want)
		return 0, false
	}
	return out.Value, true
}

// control is the halfway action. As in serve.Selftest, a snapshot+restore
// checks the digest, snapshots the session, restores the snapshot on
// the next shard, retires the original and checks the restored copy's
// digest; a migration moves the session to the next shard.
func (c *client) control(s *session) {
	s.controlled = true
	next := (s.shard + 1) % serveShards
	if !s.sc.restore || c.restores == restoresPerDrive {
		if err := c.call(s, kindMigrate, http.MethodPost, "/sessions/"+s.id+"/migrate", map[string]int{"shard": next}, nil); err != nil {
			s.broken = true
			return
		}
		s.shard = next
		return
	}
	c.restores++
	if _, ok := c.digest(s); !ok {
		return
	}
	var snap struct {
		Snapshot string `json:"snapshot"`
	}
	if err := c.call(s, kindSnapshot, http.MethodPost, "/sessions/"+s.id+"/snapshot", struct{}{}, &snap); err != nil {
		s.broken = true
		return
	}
	var info sessInfo
	if err := c.call(s, kindRestore, http.MethodPost, "/restore", map[string]any{"snapshot": snap.Snapshot, "shard": next}, &info); err != nil {
		s.broken = true
		return
	}
	if err := c.call(s, kindDelete, http.MethodDelete, "/sessions/"+s.id, nil, nil); err != nil {
		s.broken = true
		return
	}
	s.id, s.shard = info.ID, next
	c.digest(s)
}

// batch sends the session's next /op batch and checks every malloc
// address and the load values against the reference. Blocks are
// addressed by the reference's malloc addresses, so a batch may use a
// block it allocates itself.
func (c *client) batch(s *session) {
	ops := s.sc.batches[s.batch]
	addrs := s.sc.addrs
	reqs := make([]opReq, len(ops))
	for i, op := range ops {
		switch op.kind {
		case 'm':
			reqs[i] = opReq{Op: "malloc", Size: op.size}
		case 'f':
			reqs[i] = opReq{Op: "free", Addr: addrs[op.block]}
		case 's':
			reqs[i] = opReq{Op: "store", Addr: addrs[op.block] + op.off*8, Value: op.val}
		case 'l':
			reqs[i] = opReq{Op: "load", Addr: addrs[op.block] + op.off*8}
		case 'r':
			reqs[i] = opReq{Op: "relocate", Addr: addrs[op.block]}
		}
	}
	var out struct {
		Results []opRes `json:"results"`
	}
	if err := c.call(s, kindOp, http.MethodPost, "/sessions/"+s.id+"/op", opReq{Ops: reqs}, &out); err != nil {
		s.broken = true
		return
	}
	if len(out.Results) != len(ops) {
		c.wrongAnswer(s, "batch %d: %d results for %d ops", s.batch, len(out.Results), len(ops))
		return
	}
	for i, op := range ops {
		switch op.kind {
		case 'm':
			if got, want := out.Results[i].Addr, addrs[s.nMalloc]; got != want {
				c.wrongAnswer(s, "malloc %d returned %#x, reference %#x", s.nMalloc, got, want)
				return
			}
			s.nMalloc++
		case 'l':
			s.loads = fnvMix(s.loads, out.Results[i].Value)
		}
	}
	if s.loads != s.sc.loads[s.batch] {
		c.wrongAnswer(s, "load values of batch %d differ from the reference", s.batch)
		return
	}
	d := &c.done[len(c.done)-1]
	d.ops, d.guest = len(ops), s.sc.guest[s.batch]
	s.batch++
	c.ops += len(ops)
}

// run drives the client's slots round-robin until the deadline.
func (c *client) run(deadline time.Time) error {
	for i := 0; time.Now().Before(deadline); i++ {
		if err := c.step(i % len(c.slots)); err != nil {
			return err
		}
	}
	return nil
}

// --- stack: server, store, clients --------------------------------------

type stack struct {
	sv      *serve.Server
	dir     string // store directory ("" when memory-only)
	pool    []*script
	clients []*client
	closed  bool
}

// bootStack is one set-up round: the scripts and their reference runs,
// store open, server boot, client connections and session creation.
// Scripts are n operations long: scriptOps for load, longer for a
// recovery store.
func bootStack(e *env, durable bool, seed int64, n int) (*stack, error) {
	st := &stack{}
	var err error
	if st.pool, err = newPool(seed, n); err != nil {
		return nil, err
	}
	cfg := serve.Config{Shards: serveShards}
	if durable {
		if st.dir, err = os.MkdirTemp(e.out, "store-"); err != nil {
			return nil, err
		}
		store, err := serve.OpenStore(serve.StoreConfig{Dir: st.dir})
		if err != nil {
			return nil, err
		}
		cfg.Store = store
	}
	st.sv = serve.New(cfg)
	if err := st.sv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for i := 0; i < serveClients; i++ {
		c := newClient(i, "http://"+st.sv.Addr(), st.pool)
		c.slots = make([]*session, sessionsPerClient)
		st.clients = append(st.clients, c)
		for slot := range c.slots {
			if err := c.open(slot); err != nil {
				st.close()
				return nil, err
			}
		}
	}
	return st, nil
}

func (st *stack) close() {
	if st.closed {
		return
	}
	st.closed = true
	for _, c := range st.clients {
		c.close()
	}
	st.sv.Close() //nolint:errcheck // tearing down
	if st.dir != "" {
		os.RemoveAll(st.dir) //nolint:errcheck // best-effort cleanup
	}
}

// resetCounts clears what earlier requests recorded, so a timed phase
// starts from zero; call verify first to book them.
func (st *stack) resetCounts() {
	for _, c := range st.clients {
		c.done, c.scripts, c.problems = nil, nil, nil
		c.instructions = 0
		c.ops, c.reqs, c.failed, c.wrongReqs, c.restores = 0, 0, 0, 0, 0
		for _, s := range c.slots {
			s.reqs = 0
		}
	}
}

// drive runs both clients until d has passed and returns the elapsed
// wall time of the phase.
func (st *stack) drive(d time.Duration, tr *tracer) (time.Duration, error) {
	st.resetCounts()
	t0 := time.Now()
	for _, c := range st.clients {
		c.start = t0
	}
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	errs := make([]error, len(st.clients))
	for i, c := range st.clients {
		c.tr = tr
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = c.run(deadline)
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for _, c := range st.clients {
		c.tr = nil
	}
	for _, err := range errs {
		if err != nil {
			return elapsed, err
		}
	}
	return elapsed, nil
}

// phaseStats summarises a timed phase.
type phaseStats struct {
	elapsed time.Duration
	ops     int
	reqs    int
	failed  int
	lat     [numKinds][]float64 // ms
	all     []float64           // ms, every request
	// opMeanNs is the mean /op round trip; guest is the in-process host
	// time of the guest ops those requests acknowledged.
	opMeanNs float64
	guest    time.Duration

	// The end-to-end serve metrics are medians over the phase's
	// one-second windows (by completion time), so a disk or scheduler
	// hiccup in one window does not move the run's figure.
	opsS, p50, p99 float64
}

// serveWindow is the window the serve metrics take medians over.
const serveWindow = time.Second

func (st *stack) stats(elapsed time.Duration) phaseStats {
	ps := phaseStats{elapsed: elapsed}
	for _, c := range st.clients {
		ps.ops += c.ops
		ps.reqs += c.reqs
		ps.failed += c.failed
		for _, d := range c.done {
			ms := float64(d.lat) / 1e6
			ps.lat[d.kind] = append(ps.lat[d.kind], ms)
			ps.all = append(ps.all, ms)
			ps.guest += d.guest
		}
	}
	ps.opMeanNs = mean(ps.lat[kindOp]) * 1e6

	n := max(int(elapsed/serveWindow), 1)
	ops := make([]float64, n)
	lats := make([][]float64, n)
	for _, c := range st.clients {
		for _, d := range c.done {
			w := min(int(d.at/serveWindow), n-1)
			ops[w] += float64(d.ops)
			lats[w] = append(lats[w], float64(d.lat)/1e6)
		}
	}
	var p50, p99 []float64
	for w := range ops {
		span := serveWindow.Seconds()
		if w == n-1 {
			span = elapsed.Seconds() - float64(n-1)*serveWindow.Seconds()
		}
		ops[w] /= span
		p50 = append(p50, quantile(lats[w], 0.5))
		p99 = append(p99, quantile(lats[w], 0.99))
	}
	ps.opsS, ps.p50, ps.p99 = median(ops), median(p50), median(p99)
	return ps
}

// verify books the requests since the last reset into r (each is an
// attempt; a refused one, and every request of a session that answered
// wrongly, fails) after checking every live session's heap digest
// against its script's reference. It returns the live sessions'
// digests.
func (st *stack) verify(r *result) map[string]uint64 {
	live := map[string]uint64{}
	for _, c := range st.clients {
		for _, s := range c.slots {
			if s.broken {
				continue
			}
			if d, ok := c.digest(s); ok {
				live[s.id] = d
			}
		}
		failed := c.failed + c.wrongReqs
		for _, s := range c.slots {
			if s.wrong {
				failed += s.reqs
			}
		}
		r.Attempted += int64(c.reqs)
		r.Failed += int64(failed)
		if failed > 0 {
			r.Correct = false
			r.problems = append(r.problems, fmt.Sprintf("client %d: %d of %d request(s) failed or answered wrongly", c.id, failed, c.reqs))
			r.problems = append(r.problems, c.problems...)
		}
	}
	return live
}

// recoverPasses is how many servers a recovery round recovers back to
// back: one timed interval is over a tenth of a second, not a single
// recovery of a few tens of milliseconds.
const recoverPasses = 4

// recoverStore closes the server and times Server.Recover over the
// store it left behind: recoverRounds rounds on fresh servers, each
// recovering recoverPasses servers; the median round's time per
// recovery is reported. Every recovered session must digest as it did
// before shutdown.
func (st *stack) recoverStore(r *result, live map[string]uint64) (float64, serve.RecoverReport, error) {
	for _, c := range st.clients {
		c.close()
	}
	st.sv.Close() //nolint:errcheck // shutting down for recovery
	var times []float64
	var rep serve.RecoverReport
	for i := 0; i < recoverRounds; i++ {
		svs := make([]*serve.Server, recoverPasses)
		for j := range svs {
			store, err := serve.OpenStore(serve.StoreConfig{Dir: st.dir})
			if err != nil {
				return 0, rep, err
			}
			svs[j] = serve.New(serve.Config{Shards: serveShards, Store: store})
		}
		debug.FreeOSMemory() // as timeRestore
		t0 := time.Now()
		for _, sv := range svs {
			var err error
			if rep, err = sv.Recover(); err != nil {
				return 0, rep, err
			}
		}
		times = append(times, time.Since(t0).Seconds()/recoverPasses)
		if i == recoverRounds-1 {
			if err := checkRecovered(r, svs[len(svs)-1], live); err != nil {
				return 0, rep, err
			}
		}
		for _, sv := range svs {
			sv.Close() //nolint:errcheck // recovery round done
		}
	}
	st.sv = serve.New(serve.Config{Shards: serveShards})
	return median(times), rep, nil
}

func checkRecovered(r *result, sv *serve.Server, live map[string]uint64) error {
	if err := sv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	c := newClient(0, "http://"+sv.Addr(), nil)
	defer c.close()
	ids := make([]string, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		var st struct {
			Digest string `json:"digest"`
		}
		err := c.call(nil, kindDigest, http.MethodGet, "/sessions/"+id+"/stats", nil, &st)
		r.check(err == nil && st.Digest == fmt.Sprintf("%#x", live[id]), "recovered session %s: digest %s (%v), before shutdown %#x", id, st.Digest, err, live[id])
	}
	return nil
}

// --- workloads -----------------------------------------------------------

func runServe(e *env) (*result, error) {
	st, setupS, err := setupRounds(setupRoundsServe, func() (*stack, error) { return bootStack(e, false, e.seed, scriptOps) }, func(s *stack) { s.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	r := newResult()
	p := startPhase()
	elapsed, err := st.drive(e.seconds, nil)
	if err != nil {
		return nil, err
	}
	cpuS := p.cpu()
	rss := peakRSSMB()
	ps := st.stats(elapsed)
	st.verify(r)
	var scripts []float64
	var instructions uint64
	restores := 0
	for _, c := range st.clients {
		scripts = append(scripts, c.scripts...)
		instructions += c.instructions
		restores += c.restores
	}
	if len(scripts) == 0 {
		return nil, fmt.Errorf("no session script ran whole in the %v phase", e.seconds)
	}
	fmt.Printf("requests %d (%d op batches), %d guest ops, %d failed; latency samples %d in %d windows; %d whole session scripts, %d snapshot+restores; whole phase: %.0f ops/s, p50 %.4f ms, p99 %.4f ms\n",
		ps.reqs, len(ps.lat[kindOp]), ps.ops, ps.failed, len(ps.all), int(elapsed/serveWindow), len(scripts), restores,
		float64(ps.ops)/elapsed.Seconds(), quantile(ps.all, 0.5), quantile(ps.all, 0.99))

	st.close()
	recS, _, err := recoverFixed(e, r)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setupS, "s")
	r.set("wall_s", median(scripts), "s")
	r.set("cpu_s", cpuS/float64(len(scripts)), "s")
	r.set("sim_mips", float64(instructions)/elapsed.Seconds()/1e6, "Minst/s")
	r.set("ops_s", ps.opsS, "1/s")
	r.set("req_p50_ms", ps.p50, "ms")
	r.set("req_p99_ms", ps.p99, "ms")
	r.set("recover_s", recS, "s")
	r.set("peak_rss_mb", rss, "MB")
	return r, nil
}

// recoverOps is the script length of the recovery store's sessions:
// four Selftest scripts, so each session's log passes two checkpoints
// (one every 256 records) into a WAL tail.
const recoverOps = 4 * scriptOps

// recoverFixed is recover_s: the wall time of Server.Recover() over a
// store of fixed content. Where a timed phase stops depends on its
// throughput, so recovery runs over a store of its own: a fresh
// durable server whose 32 sessions each run a whole recoverOps-long
// script (checked against its reference like the phase's), then closed
// and recovered. Every recovered session must digest as it did before
// shutdown.
func recoverFixed(e *env, r *result) (float64, serve.RecoverReport, error) {
	st, err := bootStack(e, true, e.seed, recoverOps)
	if err != nil {
		return 0, serve.RecoverReport{}, err
	}
	defer st.close()
	for _, c := range st.clients {
		for _, s := range c.slots {
			for !s.broken && s.batch < len(s.sc.batches) {
				c.batch(s)
			}
		}
	}
	return st.recoverStore(r, st.verify(r))
}

// traceServe is serve-raw's traced run. It drives the memory-only
// server for a third of --seconds untraced and a third traced, then a
// durable server (OpenStore on the local disk) on the same scripts for
// the last third, traced: the store's per-request share is the
// difference between the two traced thirds. Recovery is timed as in
// the untraced run.
func traceServe(e *env) (*result, error) {
	r := newResult()
	tr := newTracer()
	third := e.seconds / 3

	raw, err := bootStack(e, false, e.seed, scriptOps)
	if err != nil {
		return nil, err
	}
	defer raw.close()
	el0, err := raw.drive(third, nil)
	if err != nil {
		return nil, err
	}
	base := raw.stats(el0)
	raw.verify(r)
	if err := retime(raw.pool); err != nil {
		return nil, err
	}
	dur, err := bootStack(e, true, e.seed, scriptOps)
	if err != nil {
		return nil, err
	}
	defer dur.close()

	var el, elD time.Duration
	var m0, m1, d0, d1 map[string]float64
	fold, _, err := profiledCPU(e, "serve-raw", func() (err error) {
		p := startPhase()
		m0 = raw.sv.MetricsSnapshot()
		if el, err = raw.drive(third, tr); err != nil {
			return err
		}
		m1 = raw.sv.MetricsSnapshot()
		d0 = dur.sv.MetricsSnapshot()
		if elD, err = dur.drive(third, tr); err != nil {
			return err
		}
		d1 = dur.sv.MetricsSnapshot()
		setGoMetrics(r, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ps, psD := raw.stats(el), dur.stats(elD)
	raw.verify(r)
	dur.verify(r)

	r.set("serve.requests", float64(ps.reqs), "count")
	r.set("serve.failed", float64(ps.failed), "count")
	r.set("serve.shed", m1["serve.shed"]-m0["serve.shed"], "count")
	// The guest time is that of exactly the /op batches the traced
	// third acknowledged, each timed in its script's reference run.
	r.set("serve.guest_ns_per_op", ratio(float64(ps.guest), float64(ps.ops)), "ns")
	r.set("serve.request_ns", ps.opMeanNs, "ns")
	r.set("serve.http_ns", ps.opMeanNs-ratio(float64(ps.guest), float64(len(ps.lat[kindOp]))), "ns")
	r.set("serve.migrate_ms", mean(ps.lat[kindMigrate]), "ms")
	// A restore is a snapshot request and a restore request.
	r.set("serve.restore_ms", mean(ps.lat[kindSnapshot])+mean(ps.lat[kindRestore]), "ms")
	var reloc time.Duration
	relocs := 0
	for _, sc := range raw.pool {
		reloc += sc.reloc
		relocs += sc.relocs
	}
	r.set("opt.try_relocate_ns", ratio(float64(reloc), float64(relocs)), "ns")
	r.set("trace.overhead_ratio", ratio(float64(base.ops)/el0.Seconds(), float64(ps.ops)/el.Seconds()), "ratio")

	r.set("store.request_ns", psD.opMeanNs, "ns")
	r.set("store.ns_per_req", psD.opMeanNs-ps.opMeanNs, "ns")
	r.set("store.appends", d1["serve.store.appends"]-d0["serve.store.appends"], "count")
	r.set("store.syncs_per_req", ratio(d1["serve.store.syncs"]-d0["serve.store.syncs"], float64(psD.reqs)), "ratio")
	r.set("store.checkpoints", d1["serve.store.checkpoints"]-d0["serve.store.checkpoints"], "count")
	recS, rep, err := recoverFixed(e, r)
	if err != nil {
		return nil, err
	}
	records := float64(rep.ReplayedOps + rep.ReplayedGrants)
	r.set("recovery.sessions", float64(rep.Sessions), "count")
	r.set("recovery.records", records, "count")
	r.set("recovery.ns_per_record", ratio(recS*1e9, records), "ns")

	if err := finishTrace(e, "serve-raw", r, tr, fold); err != nil {
		return nil, err
	}
	return r, nil
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}
