package serve

// The durable session store: crash-safe persistence under the serve
// plane. Every session gets a directory holding an atomically-replaced
// snapshot file (meta + optional machine state, wire-framed and
// CRC-covered) and a write-ahead log of per-record-CRC'd operation
// records, so a killed server restarts as snapshot + replayed ops
// (recovery.go). Standalone /snapshot captures persist beside them.
//
// Layout under StoreConfig.Dir:
//
//	sessions/<id>/snap.bin   session meta + machine state (atomic replace)
//	sessions/<id>/wal.log    appended op records since the snapshot
//	snapshots/<snapid>.bin   server-held snapshot captures
//
// Crash model: the process can die at any persistence point, leaving
// the current write torn; completed writes survive (they are in the OS
// page cache or on disk), and the fsync seams mark the points where
// durability is guaranteed. The deterministic fault.DiskInjector
// drives exactly these points in tests — a fatal fault latches the
// store dead (everything after a simulated process death must fail),
// and recovery then proves the on-disk remains land on a no-third-state
// digest.
//
// Transient errors (short writes) are retried with bounded backoff
// through the Sleep seam; flipped bits are caught by read-back
// verification against the bytes we meant to write and retried the
// same way.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"memfwd/internal/fault"
	"memfwd/internal/mem"
	"memfwd/internal/sim"
	"memfwd/internal/wire"
)

// File-frame magics for the store's artifacts.
const (
	metaMagic   = "MFWDMETA" // sessions/<id>/snap.bin
	snapMagic   = "MFWDSNPF" // snapshots/<snapid>.bin
	metaVersion = 1
)

// ErrStoreDead reports an operation on a store that already suffered a
// fatal (process-death) fault; everything fails until a new store is
// opened over the directory, exactly as a real crash forces a restart.
var ErrStoreDead = errors.New("serve: store is dead (fatal disk fault)")

// StoreConfig configures a Store. Zero fields take defaults.
type StoreConfig struct {
	// Dir is the store's root directory (required; created if absent).
	Dir string

	// Retries bounds retry attempts for transient store errors
	// (default 3).
	Retries int

	// RetryBackoff is the first retry's delay, doubling per attempt
	// (default 2ms).
	RetryBackoff time.Duration

	// Sleep is the backoff seam (default time.Sleep); tests inject a
	// recorder to prove the backoff schedule without waiting it out.
	Sleep func(time.Duration)

	// CheckpointEvery folds the WAL back into the snapshot file after
	// this many records (default 256; raw sessions only).
	CheckpointEvery int
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 256
	}
	return c
}

// Store is the durable layer under a Server. Its persistence methods
// are called with the owning session's lock held (or during
// single-threaded recovery), so per-session artifacts never race;
// distinct sessions write distinct files.
type Store struct {
	cfg StoreConfig
	inj *fault.DiskInjector

	dead atomic.Bool

	// Counters surface through /metrics as serve.store.*.
	appends     atomic.Uint64
	syncs       atomic.Uint64
	retries     atomic.Uint64
	failures    atomic.Uint64
	checkpoints atomic.Uint64
}

// OpenStore opens (creating if needed) a store rooted at cfg.Dir.
func OpenStore(cfg StoreConfig) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("serve: store needs a directory")
	}
	cfg = cfg.withDefaults()
	for _, d := range []string{cfg.Dir, filepath.Join(cfg.Dir, "sessions"), filepath.Join(cfg.Dir, "snapshots")} {
		if err := os.MkdirAll(d, 0o777); err != nil {
			return nil, fmt.Errorf("serve: open store: %w", err)
		}
	}
	return &Store{cfg: cfg}, nil
}

// SetDiskInjector installs (or removes, with nil) the deterministic
// disk-fault source. Test wiring; a nil injector costs one nil check
// per point.
func (st *Store) SetDiskInjector(in *fault.DiskInjector) { st.inj = in }

// DiskInjector returns the installed injector, or nil.
func (st *Store) DiskInjector() *fault.DiskInjector { return st.inj }

// Dead reports whether a fatal disk fault has latched the store dead.
func (st *Store) Dead() bool { return st.dead.Load() }

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.cfg.Dir }

func (st *Store) sessionDir(id string) string {
	return filepath.Join(st.cfg.Dir, "sessions", id)
}

func (st *Store) sessionSnapPath(id string) string {
	return filepath.Join(st.sessionDir(id), "snap.bin")
}

func (st *Store) sessionWALPath(id string) string {
	return filepath.Join(st.sessionDir(id), "wal.log")
}

func (st *Store) snapshotPath(id string) string {
	return filepath.Join(st.cfg.Dir, "snapshots", id+".bin")
}

// fatal latches the store dead and returns err.
func (st *Store) fatal(err error) error {
	st.dead.Store(true)
	st.failures.Add(1)
	return err
}

// retryLoop runs op up to 1+Retries times, backing off between
// transient failures. op reports (transient, err); a non-transient
// error aborts immediately.
func (st *Store) retryLoop(op func() (bool, error)) error {
	backoff := st.cfg.RetryBackoff
	var err error
	var transient bool
	for attempt := 0; attempt <= st.cfg.Retries; attempt++ {
		if attempt > 0 {
			st.retries.Add(1)
			st.cfg.Sleep(backoff)
			backoff *= 2
		}
		transient, err = op()
		if err == nil || !transient {
			return err
		}
	}
	st.failures.Add(1)
	return fmt.Errorf("serve: store gave up after %d retries: %w", st.cfg.Retries, err)
}

// writeFileAtomic durably replaces path with frame via the
// write-tmp / fsync / rename / fsync-dir protocol, retrying transient
// faults. Fatal faults latch the store dead; the torn tmp file (or the
// untouched live file) is exactly what a crash at that point leaves
// for recovery to deal with.
func (st *Store) writeFileAtomic(path string, frame []byte) error {
	if st.dead.Load() {
		return ErrStoreDead
	}
	return st.retryLoop(func() (bool, error) { return st.tryWriteFileAtomic(path, frame) })
}

func (st *Store) tryWriteFileAtomic(path string, frame []byte) (transient bool, err error) {
	tmp := path + ".tmp"
	data, ferr := st.inj.FilterData(fault.DiskSnapWrite, frame)
	if ferr != nil {
		var df *fault.DiskFault
		if errors.As(ferr, &df) && df.Kind == fault.DiskCrash {
			// Crash before the write: nothing reaches the disk.
			return false, st.fatal(ferr)
		}
	}
	if werr := os.WriteFile(tmp, data, 0o666); werr != nil {
		return true, werr
	}
	if ferr != nil {
		var df *fault.DiskFault
		if errors.As(ferr, &df) && df.Fatal() {
			// Torn write then death: the partial tmp file stays behind.
			return false, st.fatal(ferr)
		}
		// Short write: remove the partial and let the caller retry.
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return true, ferr
	}
	if perr := st.inj.Point(fault.DiskSnapSync); perr != nil {
		// Crash before fsync: tmp may or may not have reached disk, the
		// live file is untouched either way.
		return false, st.fatal(perr)
	}
	if serr := syncFile(tmp); serr != nil {
		return true, serr
	}
	// Read-back verification: a flipped bit on the way down is caught
	// here, before the corrupt file can be renamed over the good one.
	got, rerr := os.ReadFile(tmp)
	if rerr != nil {
		return true, rerr
	}
	if !bytesEqual(got, frame) {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return true, fmt.Errorf("serve: store verify mismatch writing %s", filepath.Base(path))
	}
	if perr := st.inj.Point(fault.DiskSnapRename); perr != nil {
		// Crash before rename: durable tmp, live file still old.
		return false, st.fatal(perr)
	}
	if rerr := os.Rename(tmp, path); rerr != nil {
		return true, rerr
	}
	if perr := st.inj.Point(fault.DiskSnapRenamed); perr != nil {
		// Crash after rename: the new file is already live.
		return false, st.fatal(perr)
	}
	syncDir(filepath.Dir(path)) //nolint:errcheck // advisory; rename already visible
	st.syncs.Add(1)
	return false, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// --- session meta -----------------------------------------------------

// sessionMeta is the snapshot file's payload: everything needed to
// re-materialize the session except what the WAL replays. State is a
// sim.EncodeState frame for raw sessions; empty for app sessions,
// which re-execute deterministically from the create request.
type sessionMeta struct {
	id       string
	mode     string
	shard    int
	req      []byte // createRequest JSON, for app re-execution
	rawOps   uint64
	arenaOff mem.Addr
	walSeq   uint64 // first WAL sequence NOT covered by state
	state    []byte // sim.EncodeState output, or empty
}

func (m *sessionMeta) encode() []byte {
	var w wire.Writer
	w.String(m.id)
	w.String(m.mode)
	w.Int(m.shard)
	w.Blob(m.req)
	w.U64(m.rawOps)
	w.U64(uint64(m.arenaOff))
	w.U64(m.walSeq)
	w.Blob(m.state)
	return wire.SealFrame(metaMagic, metaVersion, w.Bytes())
}

func decodeSessionMeta(data []byte) (*sessionMeta, error) {
	version, payload, err := wire.OpenFrame(metaMagic, data)
	if err != nil {
		return nil, err
	}
	if version != metaVersion {
		return nil, fmt.Errorf("serve: session meta version %d, want %d", version, metaVersion)
	}
	r := wire.NewReader(payload)
	m := &sessionMeta{
		id:       r.String(),
		mode:     r.String(),
		shard:    r.Int(),
		req:      r.Blob(),
		rawOps:   r.U64(),
		arenaOff: mem.Addr(r.U64()),
		walSeq:   r.U64(),
		state:    r.Blob(),
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	if m.walSeq < 1 {
		return nil, fmt.Errorf("serve: session meta walSeq %d invalid", m.walSeq)
	}
	return m, nil
}

// writeSessionMeta durably replaces the session's snapshot file.
func (st *Store) writeSessionMeta(m *sessionMeta) error {
	if st.dead.Load() {
		return ErrStoreDead
	}
	if err := os.MkdirAll(st.sessionDir(m.id), 0o777); err != nil {
		return err
	}
	return st.writeFileAtomic(st.sessionSnapPath(m.id), m.encode())
}

// removeSession deletes a session's directory (DELETE /sessions/{id}).
func (st *Store) removeSession(id string) error {
	if st.dead.Load() {
		return ErrStoreDead
	}
	return os.RemoveAll(st.sessionDir(id))
}

// --- standalone snapshots ---------------------------------------------

// snapFile is a persisted /snapshot capture.
type snapFile struct {
	from     string
	mode     string
	ops      uint64
	arenaOff mem.Addr
	state    []byte // sim.EncodeState output
}

func (s *snapFile) encode() []byte {
	var w wire.Writer
	w.String(s.from)
	w.String(s.mode)
	w.U64(s.ops)
	w.U64(uint64(s.arenaOff))
	w.Blob(s.state)
	return wire.SealFrame(snapMagic, metaVersion, w.Bytes())
}

func decodeSnapFile(data []byte) (*snapFile, error) {
	version, payload, err := wire.OpenFrame(snapMagic, data)
	if err != nil {
		return nil, err
	}
	if version != metaVersion {
		return nil, fmt.Errorf("serve: snapshot file version %d, want %d", version, metaVersion)
	}
	r := wire.NewReader(payload)
	s := &snapFile{
		from:     r.String(),
		mode:     r.String(),
		ops:      r.U64(),
		arenaOff: mem.Addr(r.U64()),
		state:    r.Blob(),
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return s, nil
}

// writeSnapshot persists a /snapshot capture.
func (st *Store) writeSnapshot(id string, snap *storedSnapshot) error {
	if st.dead.Load() {
		return ErrStoreDead
	}
	state, err := sim.EncodeState(snap.st)
	if err != nil {
		return err
	}
	sf := &snapFile{from: snap.from, mode: snap.mode, ops: snap.ops, arenaOff: snap.arenaOff, state: state}
	return st.writeFileAtomic(st.snapshotPath(id), sf.encode())
}

// removeSnapshot deletes a persisted capture and syncs the directory,
// so the removal outlives a crash and recovery cannot bring the
// snapshot back. A capture that was never persisted is not an error.
func (st *Store) removeSnapshot(id string) error {
	if st.dead.Load() {
		return ErrStoreDead
	}
	path := st.snapshotPath(id)
	if err := os.Remove(path); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	return syncDir(filepath.Dir(path))
}

// --- write-ahead log --------------------------------------------------

// WAL record kinds (first body byte after the sequence number).
const (
	recOp     = 1 // a raw guest operation (opCode + addr/size/value)
	recIntent = 2 // relocation intent: src, tgt, words
	recCommit = 3 // relocation outcome: tgt, ok
	recGrant  = 4 // app step grant: cumulative ops used
)

// Raw op codes inside recOp records.
const (
	opMalloc = 1
	opFree   = 2
	opLoad   = 3
	opStore  = 4
	opFBit   = 5
	opFinal  = 6
)

// opCodeFor maps the HTTP op grammar to WAL op codes; 0 means the op
// is not logged (digest is a pure untimed read; relocate uses
// intent/commit records).
func opCodeFor(op string) uint8 {
	switch op {
	case "malloc":
		return opMalloc
	case "free":
		return opFree
	case "load":
		return opLoad
	case "store":
		return opStore
	case "fbit":
		return opFBit
	case "final":
		return opFinal
	}
	return 0
}

func opNameFor(code uint8) string {
	switch code {
	case opMalloc:
		return "malloc"
	case opFree:
		return "free"
	case opLoad:
		return "load"
	case opStore:
		return "store"
	case opFBit:
		return "fbit"
	case opFinal:
		return "final"
	}
	return ""
}

// walRecord is one decoded WAL record.
type walRecord struct {
	seq  uint64
	kind uint8

	// recOp
	opCode uint8
	addr   uint64
	size   uint64
	value  uint64

	// recIntent / recCommit
	src   uint64
	tgt   uint64
	words int
	ok    bool

	// recGrant
	used int64
}

func (rec *walRecord) encode(dst []byte) []byte {
	var w wire.Writer
	w.Grow(40)
	w.U64(rec.seq)
	w.U8(rec.kind)
	switch rec.kind {
	case recOp:
		w.U8(rec.opCode)
		w.U64(rec.addr)
		w.U64(rec.size)
		w.U64(rec.value)
	case recIntent:
		w.U64(rec.src)
		w.U64(rec.tgt)
		w.Int(rec.words)
	case recCommit:
		w.U64(rec.tgt)
		w.Bool(rec.ok)
	case recGrant:
		w.I64(rec.used)
	}
	return wire.AppendRecord(dst, w.Bytes())
}

func decodeWALRecord(payload []byte) (*walRecord, error) {
	r := wire.NewReader(payload)
	rec := &walRecord{seq: r.U64(), kind: r.U8()}
	switch rec.kind {
	case recOp:
		rec.opCode = r.U8()
		rec.addr = r.U64()
		rec.size = r.U64()
		rec.value = r.U64()
		if opNameFor(rec.opCode) == "" {
			return nil, fmt.Errorf("serve: WAL op record with unknown code %d", rec.opCode)
		}
	case recIntent:
		rec.src = r.U64()
		rec.tgt = r.U64()
		rec.words = r.Int()
	case recCommit:
		rec.tgt = r.U64()
		rec.ok = r.Bool()
	case recGrant:
		rec.used = r.I64()
	default:
		return nil, fmt.Errorf("serve: WAL record with unknown kind %d", rec.kind)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return rec, nil
}

// sessLog is one session's open write-ahead log. The file is opened
// read-write (not O_APPEND: retries rewrite a failed tail in place)
// and the end offset tracked explicitly. All methods are called with
// the owning session's lock held.
type sessLog struct {
	st    *Store
	f     *os.File
	end   int64  // bytes of durable, verified records
	seq   uint64 // next sequence number to assign
	recs  int    // records appended since the last checkpoint
	dirty bool   // records appended since the last sync
}

// openSessionLog opens (creating if needed) a session's WAL positioned
// at end (the validated length recovery or creation established) with
// the next sequence number seq.
func (st *Store) openSessionLog(id string, end int64, seq uint64, recs int) (*sessLog, error) {
	if st.dead.Load() {
		return nil, ErrStoreDead
	}
	if err := os.MkdirAll(st.sessionDir(id), 0o777); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(st.sessionWALPath(id), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, err
	}
	return &sessLog{st: st, f: f, end: end, seq: seq, recs: recs}, nil
}

// append writes one record. The record is verified by read-back before
// the log advances, so a flipped bit or short write is retried and a
// fatal fault leaves exactly the torn tail a crash would.
func (l *sessLog) append(rec *walRecord) error {
	if l.st.dead.Load() {
		return ErrStoreDead
	}
	rec.seq = l.seq
	framed := rec.encode(nil)
	err := l.st.retryLoop(func() (bool, error) { return l.tryAppend(framed) })
	if err != nil {
		return err
	}
	l.end += int64(len(framed))
	l.seq++
	l.recs++
	l.dirty = true
	l.st.appends.Add(1)
	return nil
}

func (l *sessLog) tryAppend(framed []byte) (transient bool, err error) {
	data, ferr := l.st.inj.FilterData(fault.DiskWALAppend, framed)
	if ferr != nil {
		var df *fault.DiskFault
		if errors.As(ferr, &df) && df.Kind == fault.DiskCrash {
			return false, l.st.fatal(ferr)
		}
	}
	if _, werr := l.f.WriteAt(data, l.end); werr != nil {
		return true, werr
	}
	if ferr != nil {
		var df *fault.DiskFault
		if errors.As(ferr, &df) && df.Fatal() {
			// Torn append then death: the partial record stays as the tail.
			return false, l.st.fatal(ferr)
		}
		// Short write: roll the partial back and retry.
		if terr := l.f.Truncate(l.end); terr != nil {
			return false, l.st.fatal(terr)
		}
		return true, ferr
	}
	// Read-back verification catches silent corruption (bit flips) while
	// the bytes we meant to write are still in hand.
	got := make([]byte, len(framed))
	if _, rerr := l.f.ReadAt(got, l.end); rerr != nil {
		return true, rerr
	}
	if !bytesEqual(got, framed) {
		if terr := l.f.Truncate(l.end); terr != nil {
			return false, l.st.fatal(terr)
		}
		return true, fmt.Errorf("serve: WAL verify mismatch at offset %d", l.end)
	}
	return false, nil
}

// sync makes every appended record durable (the acknowledgement
// barrier: a batch is acked to the client only after this returns).
func (l *sessLog) sync() error {
	if l.st.dead.Load() {
		return ErrStoreDead
	}
	if !l.dirty {
		return nil
	}
	if perr := l.st.inj.Point(fault.DiskWALSync); perr != nil {
		return l.st.fatal(perr)
	}
	if err := l.f.Sync(); err != nil {
		return l.st.fatal(err)
	}
	l.dirty = false
	l.st.syncs.Add(1)
	return nil
}

// reset truncates the log after a checkpoint folded its records into
// the snapshot file. Sequence numbers keep counting — the meta's
// walSeq marks where live records start.
func (l *sessLog) reset() error {
	if l.st.dead.Load() {
		return ErrStoreDead
	}
	if perr := l.st.inj.Point(fault.DiskWALReset); perr != nil {
		return l.st.fatal(perr)
	}
	if err := l.f.Truncate(0); err != nil {
		return l.st.fatal(err)
	}
	l.end = 0
	l.recs = 0
	l.dirty = false
	return nil
}

// close releases the file handle (session close/delete; the file
// itself is removed by removeSession, kept by a plain close).
func (l *sessLog) close() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// readWAL scans a session's on-disk WAL, returning every intact record
// and the byte length of the valid prefix. A torn or corrupt tail is
// reported via rolledBack (the caller truncates to validLen); damage
// *before* the tail cannot happen under the append protocol, and a
// decode failure mid-log is returned as an error.
func (st *Store) readWAL(id string) (recs []*walRecord, validLen int64, rolledBack bool, err error) {
	data, rerr := os.ReadFile(st.sessionWALPath(id))
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return nil, 0, false, nil
		}
		return nil, 0, false, rerr
	}
	rest := data
	for len(rest) > 0 {
		payload, next, nerr := wire.NextRecord(rest)
		if nerr != nil {
			// Torn tail: keep what decoded, drop the rest.
			return recs, validLen, true, nil
		}
		if payload == nil {
			break
		}
		rec, derr := decodeWALRecord(payload)
		if derr != nil {
			// Framing was intact but the body is malformed — treat it
			// and everything after as the damaged tail.
			return recs, validLen, true, nil
		}
		recs = append(recs, rec)
		validLen += int64(len(rest) - len(next))
		rest = next
	}
	return recs, validLen, false, nil
}
