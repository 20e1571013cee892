package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
	"repro/internal/testutil"
)

// dump flattens a store's visible state for comparison.
func dump(t *testing.T, s store.Store) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, bucket := range []string{"meta", "data", "b"} {
		keys, err := s.Keys(bucket)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			v, ok, err := s.Get(bucket, k)
			if err != nil || !ok {
				t.Fatalf("Get(%s,%s) = %v %v", bucket, k, ok, err)
			}
			out[bucket+"/"+k] = string(v)
		}
	}
	return out
}

// model replays batches[0:n] into a plain map.
func model(batches [][]store.Op, n int) map[string]string {
	m := make(map[string]string)
	for _, b := range batches[:n] {
		for _, op := range b {
			k := op.Bucket + "/" + op.Key
			switch {
			case op.Delete:
				delete(m, k)
			case op.Patch:
				v := []byte(m[k])
				if end := int(op.Off) + len(op.Val); end > len(v) {
					v = append(v, make([]byte, end-len(v))...)
				}
				copy(v[op.Off:], op.Val)
				m[k] = string(v)
			default:
				m[k] = string(op.Val)
			}
		}
	}
	return m
}

func equalState(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// randBatches generates nb random batches over a small key space so
// overwrites, deletes and patches are common. A patch only ever names a key
// that is live once every earlier op has applied, so every batch commits.
func randBatches(rng *rand.Rand, nb int) [][]store.Op {
	buckets := []string{"meta", "data", "b"}
	size := make(map[string]int) // live keys and their value lengths
	batches := make([][]store.Op, nb)
	for i := range batches {
		n := 1 + rng.Intn(6)
		ops := make([]store.Op, n)
		for j := range ops {
			op := store.Op{
				Bucket: buckets[rng.Intn(len(buckets))],
				Key:    fmt.Sprintf("k%d", rng.Intn(8)),
			}
			k := op.Bucket + "/" + op.Key
			cur, live := size[k]
			switch r := rng.Intn(5); {
			case r == 0:
				op.Delete = true
				delete(size, k)
			case r <= 2 && live:
				op.Patch = true
				op.Off = int64(rng.Intn(cur + 16))
				op.Val = make([]byte, rng.Intn(16))
				rng.Read(op.Val)
				size[k] = max(cur, int(op.Off)+len(op.Val))
			default:
				val := make([]byte, rng.Intn(64))
				rng.Read(val)
				op.Val = val
				size[k] = len(val)
			}
			ops[j] = op
		}
		batches[i] = ops
	}
	return batches
}

func TestLogPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]store.Op{
		{Bucket: "b", Key: "x", Val: []byte("1")},
		{Bucket: "b", Key: "y", Val: []byte("2")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("b", "y"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, ok, err := s2.Get("b", "x")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get x = %q %v %v", v, ok, err)
	}
	if _, ok, _ := s2.Get("b", "y"); ok {
		t.Error("deleted key resurrected by replay")
	}
}

// TestLogPatchReplay reopens a log whose suffix holds patches on top of a
// checkpointed base image; replay must rebuild the patched values exactly.
func TestLogPatchReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := store.OpenLog(dir, store.LogOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	base := bytes.Repeat([]byte("."), 64)
	if err := s.Put("data", "f", base); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	batches := [][]store.Op{{{Bucket: "data", Key: "f", Val: base}}}
	for i := 0; i < 10; i++ {
		b := []store.Op{
			{Bucket: "data", Key: "f", Patch: true, Off: 0, Val: []byte{byte(i)}},
			{Bucket: "data", Key: "f", Patch: true, Off: int64(8 * i), Val: bytes.Repeat([]byte{'a' + byte(i)}, 12)},
		}
		if err := s.PutBatch(b); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
	}
	want := model(batches, len(batches))
	if got := dump(t, s); !equalState(got, want) {
		t.Fatalf("live state %v, want %v", got, want)
	}
	s.Close()

	s2, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := dump(t, s2); !equalState(got, want) {
		t.Fatalf("replayed state %v, want %v", got, want)
	}
	if v, _, _ := s2.Get("data", "f"); len(v) != 8*9+12 {
		t.Fatalf("replayed length %d, want %d", len(v), 8*9+12)
	}
}

func TestLogGroupCommitOneSyncPerBatch(t *testing.T) {
	s, err := store.OpenLog(t.TempDir(), store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ops := make([]store.Op, 16)
	for i := range ops {
		ops[i] = store.Op{Bucket: "b", Key: fmt.Sprintf("k%d", i), Val: []byte("v")}
	}
	before := s.Syncs()
	if err := s.PutBatch(ops); err != nil {
		t.Fatal(err)
	}
	if got := s.Syncs() - before; got != 1 {
		t.Fatalf("16-op batch cost %d fsyncs, want 1", got)
	}
	st := s.Stats()
	if st.Commits != 1 || st.Ops != 16 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLogTornTailTruncated corrupts the log tail byte-for-byte — every
// possible torn-write length of the final frame — and checks recovery lands
// on the last fully committed batch each time.
func TestLogTornTailTruncated(t *testing.T) {
	build := func(dir string) {
		s, err := store.OpenLog(dir, store.LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("b", "committed", []byte("safe")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put("b", "tail", []byte("doomed")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	probe := t.TempDir()
	build(probe)
	whole, err := os.ReadFile(filepath.Join(probe, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	// Find the last frame's start by replaying lengths: frame header len
	// field is at offset+16. Walk frames until the next would pass the end.
	frameEnd := func(data []byte, off int) int {
		plen := int(uint32(data[off+16])<<24 | uint32(data[off+17])<<16 | uint32(data[off+18])<<8 | uint32(data[off+19]))
		return off + 24 + plen
	}
	lastStart := 0
	for off := 0; off < len(whole); {
		end := frameEnd(whole, off)
		if end >= len(whole) {
			lastStart = off
			break
		}
		lastStart = off
		off = end
	}

	for cut := lastStart; cut < len(whole); cut += 7 {
		dir := t.TempDir()
		build(dir)
		if err := os.Truncate(filepath.Join(dir, "wal"), int64(cut)); err != nil {
			t.Fatal(err)
		}
		s, err := store.OpenLog(dir, store.LogOptions{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if v, ok, _ := s.Get("b", "committed"); !ok || string(v) != "safe" {
			t.Fatalf("cut=%d: committed batch lost", cut)
		}
		if _, ok, _ := s.Get("b", "tail"); ok {
			t.Fatalf("cut=%d: torn frame replayed", cut)
		}
		// The store must keep working after truncating the torn tail.
		if err := s.Put("b", "after", []byte("ok")); err != nil {
			t.Fatalf("cut=%d: post-recovery commit: %v", cut, err)
		}
		s.Close()
	}
}

// TestLogCrashPointsProperty is the recovery property test: for every crash
// point, at randomized commit counts over randomized batches, the recovered
// state must equal the replay of some prefix of submitted batches, and that
// prefix must contain every acknowledged batch. Unacknowledged tails either
// vanish (torn) or replay whole (full frame on disk) — never partially.
func TestLogCrashPointsProperty(t *testing.T) {
	commitPoints := []store.CrashPoint{
		store.CrashBeforeCommit,
		store.CrashTornCommit,
		store.CrashBeforeSync,
		store.CrashAfterSync,
	}
	ckptPoints := []store.CrashPoint{
		store.CrashMidCheckpoint,
		store.CrashBeforeRename,
		store.CrashAfterRename,
	}

	check := func(t *testing.T, rng *rand.Rand, p store.CrashPoint, ckptEvery int64) {
		dir := t.TempDir()
		inj := testutil.NewCrashInjector()
		inj.SetTearFraction(rng.Float64())
		s, err := store.OpenLog(dir, store.LogOptions{Faults: inj, CheckpointBytes: ckptEvery})
		if err != nil {
			t.Fatal(err)
		}
		batches := randBatches(rng, 3+rng.Intn(12))
		// Arm the point to fire somewhere inside the run.
		inj.Arm(p, 1+rng.Intn(len(batches)))

		acked := 0
		crashed := false
		for _, b := range batches {
			if err := s.PutBatch(b); err == store.ErrCrashed {
				crashed = true
				break
			} else if err != nil {
				t.Fatal(err)
			}
			acked++
		}
		if !crashed {
			// Checkpoint points may not have been reached by organic growth;
			// force checkpoints until the armed point fires.
			for i := 0; i < 2*len(batches)+5 && !crashed; i++ {
				if err := s.Checkpoint(); err == store.ErrCrashed {
					crashed = true
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}
		if !crashed {
			t.Fatalf("point %s never fired", p)
		}
		// Simulated crash: every subsequent op fails.
		if err := s.Put("b", "k", nil); err != store.ErrCrashed {
			t.Fatalf("post-crash Put = %v, want ErrCrashed", err)
		}
		s.Close()

		// Reboot.
		s2, err := store.OpenLog(dir, store.LogOptions{})
		if err != nil {
			t.Fatalf("point %s: reopen: %v", p, err)
		}
		defer s2.Close()
		got := dump(t, s2)

		// Search from the longest prefix down: distinct prefixes can collide
		// on this small key space, and the invariant only needs SOME prefix
		// ≥ the acked count to match.
		prefix := -1
		for n := len(batches); n >= 0; n-- {
			if equalState(got, model(batches, n)) {
				prefix = n
				break
			}
		}
		if prefix < 0 {
			t.Fatalf("point %s after %d acked: recovered state is not a prefix replay", p, acked)
		}
		if prefix < acked {
			t.Fatalf("point %s: acknowledged batch lost: recovered prefix %d < acked %d", p, prefix, acked)
		}
		// The store must accept new commits after recovery.
		if err := s2.Put("b", "post", []byte("recovery")); err != nil {
			t.Fatal(err)
		}
	}

	for _, p := range commitPoints {
		t.Run(string(p), func(t *testing.T) {
			for iter := 0; iter < 25; iter++ {
				rng := rand.New(rand.NewSource(int64(iter)*7919 + 1))
				// Mix checkpoint cadences in: tiny thresholds force
				// checkpoints mid-run so commits land on log suffixes too.
				ckpt := int64(-1)
				if iter%3 == 1 {
					ckpt = 256
				}
				check(t, rng, p, ckpt)
			}
		})
	}
	for _, p := range ckptPoints {
		t.Run(string(p), func(t *testing.T) {
			for iter := 0; iter < 25; iter++ {
				rng := rand.New(rand.NewSource(int64(iter)*104729 + 7))
				ckpt := int64(-1) // checkpoints forced explicitly by check()
				if iter%2 == 1 {
					ckpt = 256
				}
				check(t, rng, p, ckpt)
			}
		})
	}
}

// TestLogCheckpointCompactionEquivalence: replay after compaction must equal
// replay of the full log — checkpoints change representation, never state.
func TestLogCheckpointCompactionEquivalence(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)*31 + 5))
		batches := randBatches(rng, 20)

		dirFull, dirCkpt := t.TempDir(), t.TempDir()
		full, err := store.OpenLog(dirFull, store.LogOptions{CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		ckpt, err := store.OpenLog(dirCkpt, store.LogOptions{CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range batches {
			if err := full.PutBatch(b); err != nil {
				t.Fatal(err)
			}
			if err := ckpt.PutBatch(b); err != nil {
				t.Fatal(err)
			}
			if i%3 == 2 {
				if err := ckpt.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if ckpt.Stats().WalBytes >= full.Stats().WalBytes {
			t.Fatal("checkpointing did not compact the log")
		}
		full.Close()
		ckpt.Close()

		rFull, err := store.OpenLog(dirFull, store.LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rCkpt, err := store.OpenLog(dirCkpt, store.LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a, b := dump(t, rFull), dump(t, rCkpt)
		if !equalState(a, b) {
			t.Fatalf("iter %d: compacted replay diverged from full replay:\nfull: %v\nckpt: %v", iter, a, b)
		}
		want := model(batches, len(batches))
		if !equalState(a, want) {
			t.Fatalf("iter %d: replay diverged from model", iter)
		}
		rFull.Close()
		rCkpt.Close()
	}
}

// TestLogCheckpointTempSwept: a torn checkpoint temp file left by a crash is
// removed on the next open and never mistaken for a checkpoint.
func TestLogCheckpointTempSwept(t *testing.T) {
	dir := t.TempDir()
	inj := testutil.NewCrashInjector()
	s, err := store.OpenLog(dir, store.LogOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	inj.Arm(store.CrashMidCheckpoint, 1)
	if err := s.Checkpoint(); err != store.ErrCrashed {
		t.Fatalf("Checkpoint = %v, want ErrCrashed", err)
	}
	s.Close()

	ents, _ := os.ReadDir(dir)
	sawTemp := false
	for _, e := range ents {
		if len(e.Name()) > 6 && e.Name()[:6] == ".ckpt-" {
			sawTemp = true
		}
	}
	if !sawTemp {
		t.Fatal("crash left no temp file; test is vacuous")
	}

	s2, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok, _ := s2.Get("b", "k"); !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatal("state lost to torn checkpoint")
	}
	ents, _ = os.ReadDir(dir)
	for _, e := range ents {
		if len(e.Name()) > 6 && e.Name()[:6] == ".ckpt-" {
			t.Fatalf("stale checkpoint temp %s not swept", e.Name())
		}
	}
}
