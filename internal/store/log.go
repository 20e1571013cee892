package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// LogStore is the log-structured Store: all state lives in memory, every
// mutation is appended to a write-ahead log, and a whole PutBatch is
// group-committed as one framed, CRC-protected record batch with a single
// fsync. Recovery is checkpoint + log suffix: open loads the newest
// checkpoint, replays every log record sequenced after it, and truncates any
// torn tail record a crash left behind (a partially written frame fails its
// CRC and everything from its offset on is discarded — by construction
// nothing durable can follow a torn frame, because commits are sequential
// and each is fsynced before the next begins).
//
// This is the §3.5 "mix of synchronous and asynchronous writes, depending on
// safety" made concrete: the fsync is the synchronous part and it is paid
// once per delivered cast batch, not once per key. A patch op (Op.Patch) is
// logged as just the bytes it writes and their offset; memory and
// checkpoints always hold whole values.
//
// On-disk layout under dir:
//
//	wal        append-only frames: MAGIC seq nops len crc payload
//	checkpoint full-state snapshot, atomically replaced via rename
//	.ckpt-*    checkpoint temp files (swept on open)
type LogStore struct {
	mu   sync.Mutex
	dir  string
	opts LogOptions

	mem map[string]map[string][]byte

	wal     *os.File
	walSize int64

	seq     uint64 // sequence of the last applied commit
	ckptSeq uint64 // sequence covered by the on-disk checkpoint

	syncs   uint64
	commits uint64
	opCount uint64

	crashed bool
	closed  bool
}

var _ Store = (*LogStore)(nil)
var _ Syncer = (*LogStore)(nil)

// LogOptions tunes a LogStore.
type LogOptions struct {
	// CheckpointBytes triggers a checkpoint + log truncation once the log
	// grows past this size. 0 selects 4 MiB; negative disables checkpoints.
	CheckpointBytes int64
	// NoSync skips fsync on commit (benchmarks that measure protocol cost,
	// not disk cost). Syncs() still counts the barriers that would have been
	// issued, so ops/fsync arithmetic is unaffected.
	NoSync bool
	// Faults, if set, injects simulated crashes at named points; see
	// CrashPoint. Used by the recovery property tests and the chaos phase.
	Faults FaultHook
}

// CrashPoint names a location in the commit and checkpoint machinery where a
// FaultHook may inject a simulated machine crash.
type CrashPoint string

// Crash points, in commit order and checkpoint order.
const (
	// CrashBeforeCommit fires before any byte of the frame is written: the
	// commit is lost entirely.
	CrashBeforeCommit CrashPoint = "commit:before"
	// CrashTornCommit fires mid-frame: a prefix of the frame (chosen by
	// FaultHook.Tear) reaches the file — the torn-write case recovery must
	// truncate.
	CrashTornCommit CrashPoint = "commit:torn"
	// CrashBeforeSync fires after the full frame is written but before the
	// fsync: the commit was never acknowledged and may or may not survive.
	CrashBeforeSync CrashPoint = "commit:before-sync"
	// CrashAfterSync fires after the fsync but before the caller sees
	// success: the commit survives but was never acknowledged.
	CrashAfterSync CrashPoint = "commit:after-sync"
	// CrashMidCheckpoint fires mid-way through writing the checkpoint temp
	// file.
	CrashMidCheckpoint CrashPoint = "checkpoint:mid-write"
	// CrashBeforeRename fires after the temp file is complete and fsynced
	// but before it replaces the live checkpoint.
	CrashBeforeRename CrashPoint = "checkpoint:before-rename"
	// CrashAfterRename fires after the rename but before the log is
	// truncated: recovery must skip the already-checkpointed log prefix.
	CrashAfterRename CrashPoint = "checkpoint:after-rename"
)

// FaultHook receives crash points from a LogStore. Crashpoint returning true
// simulates a machine crash at that point: for the torn points the in-flight
// buffer is first cut short at the offset Tear chooses, then the store marks
// itself crashed and every subsequent operation fails with ErrCrashed. The
// harness then reopens the directory with a fresh OpenLog, exactly as a
// rebooted server would.
type FaultHook interface {
	Crashpoint(p CrashPoint) bool
	// Tear picks how many of the n in-flight bytes reach the file when a
	// torn crash point fires. Values are clamped to [0, n].
	Tear(n int) int
}

// ErrCrashed is returned by every operation after an injected crash fired.
var ErrCrashed = errors.New("store: simulated crash")

// ErrCorrupt reports unrecoverable on-disk state (a checkpoint that fails
// its CRC). Torn log tails are not corruption — they are truncated silently.
var ErrCorrupt = errors.New("store: corrupt")

const (
	logMagic   uint32 = 0xDECE1707
	ckptMagic  uint32 = 0xDECE1C97
	walName           = "wal"
	ckptName          = "checkpoint"
	frameHdrSz        = 4 + 8 + 4 + 4 + 4 // magic seq nops len crc
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// OpenLog opens (creating if necessary) a log store rooted at dir and
// recovers its state: newest checkpoint, then the log suffix, truncating a
// torn tail.
func OpenLog(dir string, opts LogOptions) (*LogStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = 4 << 20
	}
	s := &LogStore{
		dir:  dir,
		opts: opts,
		mem:  make(map[string]map[string][]byte),
	}
	sweepCheckpointTemps(dir)
	if err := s.loadCheckpoint(); err != nil {
		return nil, err
	}
	if err := s.replayLog(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	fi, err := wal.Stat()
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	s.wal = wal
	s.walSize = fi.Size()
	return s, nil
}

// syncDir fsyncs a directory so a rename (or unlink) inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func sweepCheckpointTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if !ent.IsDir() && len(ent.Name()) > 6 && ent.Name()[:6] == ".ckpt-" {
			_ = os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
}

// Dir returns the directory the store persists into, so a harness can crash
// the store and reopen the same state.
func (s *LogStore) Dir() string { return s.dir }

// ---------------------------------------------------------------- commit --

// Put implements Store: a group commit of one.
func (s *LogStore) Put(bucket, key string, val []byte) error {
	return s.PutBatch([]Op{{Bucket: bucket, Key: key, Val: val}})
}

// Delete implements Store.
func (s *LogStore) Delete(bucket, key string) error {
	return s.PutBatch([]Op{{Bucket: bucket, Key: key, Delete: true}})
}

// PutBatch implements Store: the whole batch becomes one framed record batch
// in the log and costs exactly one fsync — the group commit that lets the
// store keep up with batched total-order casts.
func (s *LogStore) PutBatch(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	if err := checkPatches(ops, s.hasLocked); err != nil {
		return err
	}

	if s.fireLocked(CrashBeforeCommit) {
		return ErrCrashed
	}
	frame := encodeFrame(s.seq+1, ops)
	if s.opts.Faults != nil && s.opts.Faults.Crashpoint(CrashTornCommit) {
		n := s.opts.Faults.Tear(len(frame))
		if n < 0 {
			n = 0
		}
		if n > len(frame) {
			n = len(frame)
		}
		_, _ = s.wal.Write(frame[:n])
		_ = s.wal.Sync() // make the torn prefix itself visible to recovery
		s.crashed = true
		return ErrCrashed
	}
	if _, err := s.wal.Write(frame); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.fireLocked(CrashBeforeSync) {
		return ErrCrashed
	}
	if !s.opts.NoSync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	s.syncs++
	if s.fireLocked(CrashAfterSync) {
		return ErrCrashed
	}

	s.applyLocked(ops)
	s.seq++
	s.commits++
	s.opCount += uint64(len(ops))
	s.walSize += int64(len(frame))

	if s.opts.CheckpointBytes > 0 && s.walSize >= s.opts.CheckpointBytes {
		if err := s.checkpointLocked(); err != nil {
			// The commit itself is durable; a failed checkpoint only means
			// the log stays long. Injected crashes must surface, though.
			if errors.Is(err, ErrCrashed) {
				return err
			}
		}
	}
	return nil
}

func (s *LogStore) usableLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.crashed {
		return ErrCrashed
	}
	return nil
}

func (s *LogStore) fireLocked(p CrashPoint) bool {
	if s.opts.Faults != nil && s.opts.Faults.Crashpoint(p) {
		s.crashed = true
		return true
	}
	return false
}

// applyLocked applies a validated batch (see checkPatches) to memory.
func (s *LogStore) applyLocked(ops []Op) {
	for _, op := range ops {
		b := s.mem[op.Bucket]
		switch {
		case op.Delete:
			if b != nil {
				delete(b, op.Key)
				if len(b) == 0 {
					delete(s.mem, op.Bucket)
				}
			}
		case op.Patch:
			b[op.Key] = patched(b[op.Key], op.Off, op.Val)
		default:
			if b == nil {
				b = make(map[string][]byte)
				s.mem[op.Bucket] = b
			}
			b[op.Key] = append([]byte(nil), op.Val...)
		}
	}
}

func (s *LogStore) hasLocked(bucket, key string) bool {
	_, ok := s.mem[bucket][key]
	return ok
}

// ----------------------------------------------------------------- reads --

// Get implements Store.
func (s *LogStore) Get(bucket, key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return nil, false, err
	}
	v, ok := s.mem[bucket][key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Keys implements Store.
func (s *LogStore) Keys(bucket string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return nil, err
	}
	b := s.mem[bucket]
	out := make([]string, 0, len(b))
	for k := range b {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Sync implements Store. Commits are individually fsynced, so this only
// flushes the log file handle (a no-op unless NoSync buffered writes).
func (s *LogStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.syncs++
	return nil
}

// Syncs implements Syncer.
func (s *LogStore) Syncs() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// LogStats describes the store's commit activity.
type LogStats struct {
	Seq           uint64 // last committed batch sequence
	CheckpointSeq uint64 // sequence covered by the on-disk checkpoint
	Commits       uint64 // record batches appended
	Ops           uint64 // ops inside those batches
	Syncs         uint64 // fsync barriers issued (or counted under NoSync)
	WalBytes      int64  // current log length
}

// Stats returns commit counters; ops/fsync is Ops/Syncs.
func (s *LogStore) Stats() LogStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return LogStats{
		Seq: s.seq, CheckpointSeq: s.ckptSeq,
		Commits: s.commits, Ops: s.opCount, Syncs: s.syncs,
		WalBytes: s.walSize,
	}
}

// Close implements Store.
func (s *LogStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}

// ------------------------------------------------------------ checkpoint --

// Checkpoint forces a checkpoint now: the full in-memory state is written to
// a temp file, fsynced, atomically renamed over the live checkpoint, and the
// log is truncated. Crash-safe at every step: the temp file is invisible
// until the rename, and a crash between rename and truncation only leaves
// already-covered records in the log, which recovery skips by sequence.
func (s *LogStore) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	return s.checkpointLocked()
}

func (s *LogStore) checkpointLocked() error {
	tmp, err := os.CreateTemp(s.dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	name := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(name)
		return err
	}
	body := encodeCheckpoint(s.seq, s.mem)
	if s.opts.Faults != nil && s.opts.Faults.Crashpoint(CrashMidCheckpoint) {
		n := s.opts.Faults.Tear(len(body))
		if n < 0 {
			n = 0
		}
		if n > len(body) {
			n = len(body)
		}
		_, _ = tmp.Write(body[:n])
		tmp.Close() // the torn temp file stays; open sweeps it
		s.crashed = true
		return ErrCrashed
	}
	if _, err := tmp.Write(body); err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	if !s.opts.NoSync {
		if err := tmp.Sync(); err != nil {
			return fail(fmt.Errorf("store: %w", err))
		}
	}
	s.syncs++
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	if s.fireLocked(CrashBeforeRename) {
		return ErrCrashed
	}
	if err := os.Rename(name, filepath.Join(s.dir, ckptName)); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: %w", err)
	}
	if !s.opts.NoSync {
		if err := syncDir(s.dir); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	s.syncs++
	s.ckptSeq = s.seq
	if s.fireLocked(CrashAfterRename) {
		return ErrCrashed
	}
	// From here on every log record is covered by the checkpoint; truncate.
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.walSize = 0
	return nil
}

func (s *LogStore) loadCheckpoint() error {
	body, err := os.ReadFile(filepath.Join(s.dir, ckptName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	seq, mem, err := decodeCheckpoint(body)
	if err != nil {
		// The checkpoint is only ever replaced by atomic rename of a fully
		// fsynced temp file, so a CRC failure here means real corruption,
		// not a crash artifact — refuse to silently serve partial state.
		return fmt.Errorf("%w: checkpoint: %v", ErrCorrupt, err)
	}
	s.seq, s.ckptSeq, s.mem = seq, seq, mem
	return nil
}

// replayLog applies every log record sequenced after the checkpoint and
// truncates the file at the first torn or corrupt frame.
func (s *LogStore) replayLog() error {
	path := filepath.Join(s.dir, walName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	off := 0
	expect := uint64(0) // first frame seq seen; must then be contiguous
	for {
		frame, seq, ops, ok := decodeFrame(data[off:])
		if !ok {
			break
		}
		if expect != 0 && seq != expect {
			break // out-of-order frame: treat like a torn tail
		}
		expect = seq + 1
		if seq > s.ckptSeq {
			// Records at or before the checkpoint sequence are already folded
			// into the checkpoint (a crash between rename and truncation
			// leaves them behind); replay only the suffix.
			if s.seq != 0 && seq != s.seq+1 {
				break // hole between checkpoint and suffix: stop
			}
			s.applyLocked(ops)
			s.seq = seq
		}
		off += frame
	}
	if off < len(data) {
		// Torn or trailing garbage: cut the file back to the last good frame
		// so the next append starts from a clean boundary.
		if err := os.Truncate(path, int64(off)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// ---------------------------------------------------------------- framing --

// Op kinds in a log frame. Kinds 0 and 1 predate patches and replay
// unchanged.
const (
	kindPut    byte = 0
	kindDelete byte = 1
	kindPatch  byte = 2
)

// encodeFrame builds one record batch frame:
//
//	magic  uint32
//	seq    uint64
//	nops   uint32
//	len    uint32  (payload length)
//	crc    uint32  (CRC32-C over seq, nops and payload)
//	payload: per op, kind uint8, bucket, key, [off uint64 if a patch], val
//
// where bucket, key and val are each a uint32 length and the bytes.
func encodeFrame(seq uint64, ops []Op) []byte {
	n := frameHdrSz
	for _, op := range ops {
		n += 1 + 4 + len(op.Bucket) + 4 + len(op.Key) + 4 + len(op.Val)
		if op.Patch {
			n += 8
		}
	}
	out := make([]byte, frameHdrSz, n)
	binary.BigEndian.PutUint32(out[0:], logMagic)
	binary.BigEndian.PutUint64(out[4:], seq)
	binary.BigEndian.PutUint32(out[12:], uint32(len(ops)))
	binary.BigEndian.PutUint32(out[16:], uint32(n-frameHdrSz))
	for _, op := range ops {
		switch {
		case op.Delete:
			out = append(out, kindDelete)
		case op.Patch:
			out = append(out, kindPatch)
		default:
			out = append(out, kindPut)
		}
		out = appendField(out, op.Bucket)
		out = appendField(out, op.Key)
		if op.Patch {
			out = binary.BigEndian.AppendUint64(out, uint64(op.Off))
		}
		out = appendField(out, op.Val)
	}
	crc := crc32.Update(0, crcTable, out[4:16])
	crc = crc32.Update(crc, crcTable, out[frameHdrSz:])
	binary.BigEndian.PutUint32(out[20:], crc)
	return out
}

// appendField appends a uint32 length and the bytes of s.
func appendField[T string | []byte](out []byte, s T) []byte {
	out = binary.BigEndian.AppendUint32(out, uint32(len(s)))
	return append(out, s...)
}

// decodeFrame parses the frame at the head of data, returning its total
// length, sequence and ops. ok is false for a short, torn or corrupt frame.
// The ops' values alias data.
func decodeFrame(data []byte) (frameLen int, seq uint64, ops []Op, ok bool) {
	if len(data) < frameHdrSz {
		return 0, 0, nil, false
	}
	if binary.BigEndian.Uint32(data) != logMagic {
		return 0, 0, nil, false
	}
	seq = binary.BigEndian.Uint64(data[4:])
	nops := binary.BigEndian.Uint32(data[12:])
	plen := binary.BigEndian.Uint32(data[16:])
	crc := binary.BigEndian.Uint32(data[20:])
	if uint64(frameHdrSz)+uint64(plen) > uint64(len(data)) {
		return 0, 0, nil, false
	}
	payload := data[frameHdrSz : frameHdrSz+int(plen)]
	want := crc32.Update(0, crcTable, data[4:16])
	want = crc32.Update(want, crcTable, payload)
	if crc != want {
		return 0, 0, nil, false
	}
	ops, err := decodeOps(payload, int(nops))
	if err != nil {
		return 0, 0, nil, false
	}
	return frameHdrSz + int(plen), seq, ops, true
}

// fieldReader reads length-prefixed fields off a byte slice.
type fieldReader struct {
	data []byte
	off  int
}

// field returns the next length-prefixed field, capped so that appending to
// it can never overwrite the bytes that follow.
func (r *fieldReader) field() ([]byte, error) {
	if r.off+4 > len(r.data) {
		return nil, io.ErrUnexpectedEOF
	}
	l := int(binary.BigEndian.Uint32(r.data[r.off:]))
	r.off += 4
	if l > len(r.data)-r.off {
		return nil, io.ErrUnexpectedEOF
	}
	f := r.data[r.off : r.off+l : r.off+l]
	r.off += l
	return f, nil
}

func (r *fieldReader) uint32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func decodeOps(data []byte, n int) ([]Op, error) {
	ops := make([]Op, 0, min(n, 4096))
	r := fieldReader{data: data}
	for i := 0; i < n; i++ {
		if r.off >= len(data) {
			return nil, io.ErrUnexpectedEOF
		}
		kind := data[r.off]
		r.off++
		bucket, err := r.field()
		if err != nil {
			return nil, err
		}
		key, err := r.field()
		if err != nil {
			return nil, err
		}
		op := Op{Bucket: string(bucket), Key: string(key)}
		switch kind {
		case kindPut:
		case kindDelete:
			op.Delete = true
		case kindPatch:
			if r.off+8 > len(data) {
				return nil, io.ErrUnexpectedEOF
			}
			op.Patch, op.Off = true, int64(binary.BigEndian.Uint64(data[r.off:]))
			r.off += 8
		default:
			return nil, fmt.Errorf("unknown op kind %d", kind)
		}
		val, err := r.field()
		if err != nil {
			return nil, err
		}
		if !op.Delete {
			op.Val = val
		}
		ops = append(ops, op)
	}
	if r.off != len(data) {
		return nil, errors.New("trailing bytes")
	}
	return ops, nil
}

// encodeCheckpoint serializes the full state:
//
//	magic uint32, seq uint64, nbuckets uint32,
//	per bucket: name, nkeys, per key: key, val
//	crc uint32 (over everything after magic)
func encodeCheckpoint(seq uint64, mem map[string]map[string][]byte) []byte {
	buckets := make([]string, 0, len(mem))
	n := 16 + 4
	for b, kv := range mem {
		buckets = append(buckets, b)
		n += 4 + len(b) + 4
		for k, v := range kv {
			n += 4 + len(k) + 4 + len(v)
		}
	}
	sort.Strings(buckets)
	out := make([]byte, 16, n)
	binary.BigEndian.PutUint32(out[0:], ckptMagic)
	binary.BigEndian.PutUint64(out[4:], seq)
	binary.BigEndian.PutUint32(out[12:], uint32(len(buckets)))
	for _, b := range buckets {
		out = appendField(out, b)
		keys := make([]string, 0, len(mem[b]))
		for k := range mem[b] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = binary.BigEndian.AppendUint32(out, uint32(len(keys)))
		for _, k := range keys {
			out = appendField(out, k)
			out = appendField(out, mem[b][k])
		}
	}
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(out[4:], crcTable))
}

func decodeCheckpoint(data []byte) (uint64, map[string]map[string][]byte, error) {
	if len(data) < 20 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	if binary.BigEndian.Uint32(data) != ckptMagic {
		return 0, nil, errors.New("bad magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if binary.BigEndian.Uint32(tail) != crc32.Checksum(body[4:], crcTable) {
		return 0, nil, errors.New("crc mismatch")
	}
	seq := binary.BigEndian.Uint64(body[4:])
	nb := int(binary.BigEndian.Uint32(body[12:]))
	r := fieldReader{data: body, off: 16}
	mem := make(map[string]map[string][]byte, nb)
	for i := 0; i < nb; i++ {
		bname, err := r.field()
		if err != nil {
			return 0, nil, err
		}
		nk, err := r.uint32()
		if err != nil {
			return 0, nil, err
		}
		b := make(map[string][]byte, nk)
		for j := uint32(0); j < nk; j++ {
			k, err := r.field()
			if err != nil {
				return 0, nil, err
			}
			v, err := r.field()
			if err != nil {
				return 0, nil, err
			}
			// Values own their bytes: patches later modify them in place.
			b[string(k)] = append([]byte(nil), v...)
		}
		mem[string(bname)] = b
	}
	if r.off != len(body) {
		return 0, nil, errors.New("trailing bytes")
	}
	return seq, mem, nil
}
