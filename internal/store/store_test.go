package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// storeImpls returns a fresh instance of every Store implementation.
func storeImpls(t *testing.T) map[string]Store {
	t.Helper()
	logst, err := OpenLog(t.TempDir(), LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem-sync":  NewMemStore(WriteSync),
		"mem-async": NewMemStore(WriteAsync),
		"log":       logst,
	}
}

func TestPutGetDeleteAllImpls(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if err := s.Put("b", "k", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := s.Get("b", "k")
			if err != nil || !ok || string(v) != "v1" {
				t.Fatalf("Get = %q %v %v", v, ok, err)
			}
			// Overwrite.
			if err := s.Put("b", "k", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			v, _, _ = s.Get("b", "k")
			if string(v) != "v2" {
				t.Fatalf("after overwrite = %q", v)
			}
			// Missing key.
			if _, ok, _ := s.Get("b", "missing"); ok {
				t.Error("missing key found")
			}
			// Bucket isolation.
			if _, ok, _ := s.Get("other", "k"); ok {
				t.Error("bucket leak")
			}
			// Delete, including idempotence.
			if err := s.Delete("b", "k"); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.Get("b", "k"); ok {
				t.Error("deleted key found")
			}
			if err := s.Delete("b", "k"); err != nil {
				t.Fatal("second delete errored:", err)
			}
		})
	}
}

func TestKeysSortedAllImpls(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			for _, k := range []string{"zebra", "alpha", "mid"} {
				if err := s.Put("b", k, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			keys, err := s.Keys("b")
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != 3 || keys[0] != "alpha" || keys[1] != "mid" || keys[2] != "zebra" {
				t.Fatalf("Keys = %v", keys)
			}
			keys, err = s.Keys("empty-bucket")
			if err != nil || len(keys) != 0 {
				t.Fatalf("empty bucket Keys = %v, %v", keys, err)
			}
		})
	}
}

func TestValueIsolationAllImpls(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			buf := []byte("data")
			if err := s.Put("b", "k", buf); err != nil {
				t.Fatal(err)
			}
			buf[0] = 'X' // mutate caller's buffer after Put
			v, _, _ := s.Get("b", "k")
			if string(v) != "data" {
				t.Errorf("Put aliased caller buffer: %q", v)
			}
			v[0] = 'Y' // mutate returned buffer
			v2, _, _ := s.Get("b", "k")
			if string(v2) != "data" {
				t.Errorf("Get returned aliased buffer: %q", v2)
			}
		})
	}
}

func TestBinaryKeysAllImpls(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			key := string([]byte{0, 1, '/', '\\', 0xFF, '.', '.'})
			if err := s.Put("b", key, []byte("bin")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := s.Get("b", key)
			if err != nil || !ok || string(v) != "bin" {
				t.Fatalf("binary key Get = %q %v %v", v, ok, err)
			}
			keys, _ := s.Keys("b")
			if len(keys) != 1 || keys[0] != key {
				t.Fatalf("Keys = %q", keys)
			}
		})
	}
}

func TestClosedStoreErrors(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			s.Close()
			if err := s.Put("b", "k", nil); err != ErrClosed {
				t.Errorf("Put err = %v", err)
			}
			if _, _, err := s.Get("b", "k"); err != ErrClosed {
				t.Errorf("Get err = %v", err)
			}
			if err := s.Delete("b", "k"); err != ErrClosed {
				t.Errorf("Delete err = %v", err)
			}
			if _, err := s.Keys("b"); err != ErrClosed {
				t.Errorf("Keys err = %v", err)
			}
			if err := s.Sync(); err != ErrClosed {
				t.Errorf("Sync err = %v", err)
			}
		})
	}
}

func TestPatchAllImpls(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			expect := func(key, want string) {
				t.Helper()
				v, ok, err := s.Get("b", key)
				if err != nil || !ok || string(v) != want {
					t.Fatalf("Get(%s) = %q %v %v, want %q", key, v, ok, err, want)
				}
			}
			if err := s.Put("b", "k", []byte("hello world")); err != nil {
				t.Fatal(err)
			}
			// Patch inside the value.
			if err := s.PutBatch([]Op{{Bucket: "b", Key: "k", Patch: true, Off: 6, Val: []byte("WORLD")}}); err != nil {
				t.Fatal(err)
			}
			expect("k", "hello WORLD")
			// Patch past the end: the gap is zero-filled.
			if err := s.PutBatch([]Op{{Bucket: "b", Key: "k", Patch: true, Off: 14, Val: []byte("!!")}}); err != nil {
				t.Fatal(err)
			}
			expect("k", "hello WORLD\x00\x00\x00!!")
			// Put then patches of the new key in one batch, applied in order.
			if err := s.PutBatch([]Op{
				{Bucket: "b", Key: "n", Val: []byte("abc")},
				{Bucket: "b", Key: "n", Patch: true, Off: 1, Val: []byte("XY")},
				{Bucket: "b", Key: "n", Patch: true, Off: 2, Val: []byte("Z")},
			}); err != nil {
				t.Fatal(err)
			}
			expect("n", "aXZ")
			// A patch must not alias the caller's buffer.
			buf := []byte("q")
			if err := s.PutBatch([]Op{{Bucket: "b", Key: "n", Patch: true, Off: 0, Val: buf}}); err != nil {
				t.Fatal(err)
			}
			buf[0] = '#'
			expect("n", "qXZ")
		})
	}
}

func TestPatchMissingKeyAllImpls(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if err := s.Put("b", "gone", []byte("v")); err != nil {
				t.Fatal(err)
			}
			walBytes := func() int64 {
				if ls, ok := s.(*LogStore); ok {
					fi, err := os.Stat(filepath.Join(ls.Dir(), walName))
					if err != nil {
						t.Fatal(err)
					}
					return fi.Size()
				}
				return 0
			}
			before := walBytes()
			for _, batch := range [][]Op{
				{{Bucket: "b", Key: "never", Patch: true, Val: []byte("x")}},
				// The put of "early" must not land: the batch is refused whole.
				{
					{Bucket: "b", Key: "early", Val: []byte("e")},
					{Bucket: "b", Key: "gone", Delete: true},
					{Bucket: "b", Key: "gone", Patch: true, Val: []byte("x")},
				},
			} {
				err := s.PutBatch(batch)
				if !errors.Is(err, ErrMissingKey) {
					t.Fatalf("PutBatch = %v, want ErrMissingKey", err)
				}
			}
			for _, bad := range []Op{
				{Bucket: "b", Key: "gone", Patch: true, Off: -1, Val: []byte("x")},
				{Bucket: "b", Key: "gone", Patch: true, Delete: true},
			} {
				if err := s.PutBatch([]Op{bad}); err == nil {
					t.Fatalf("invalid patch %+v accepted", bad)
				}
			}
			if walBytes() != before {
				t.Fatal("refused batch left a frame in the log")
			}
			if _, ok, _ := s.Get("b", "early"); ok {
				t.Fatal("op of a refused batch was applied")
			}
			if v, ok, _ := s.Get("b", "gone"); !ok || string(v) != "v" {
				t.Fatalf("refused batch changed a key: %q %v", v, ok)
			}
		})
	}
}

// TestPatchRandomAllImpls applies random batches of puts, deletes and patches
// to every implementation and checks each against a plain-map model; the log
// store is also checkpointed mid-run and reopened, so its checkpoint and its
// patch-holding log suffix must together reproduce the same state.
func TestPatchRandomAllImpls(t *testing.T) {
	for iter := 0; iter < 5; iter++ {
		rng := rand.New(rand.NewSource(int64(iter) + 1))
		model := make(map[string][]byte)
		var batches [][]Op
		for i := 0; i < 40; i++ {
			var ops []Op
			for j := 0; j < 1+rng.Intn(5); j++ {
				k := fmt.Sprintf("k%d", rng.Intn(6))
				op := Op{Bucket: "b", Key: k}
				cur, live := model[k]
				switch r := rng.Intn(6); {
				case r == 0:
					op.Delete = true
					delete(model, k)
				case r < 4 && live:
					op.Patch, op.Off = true, int64(rng.Intn(len(cur)+8))
					op.Val = make([]byte, rng.Intn(12))
					rng.Read(op.Val)
					model[k] = patched(append([]byte(nil), cur...), op.Off, op.Val)
				default:
					op.Val = make([]byte, rng.Intn(24))
					rng.Read(op.Val)
					model[k] = op.Val
				}
				ops = append(ops, op)
			}
			batches = append(batches, ops)
		}
		check := func(name string, s Store) {
			t.Helper()
			keys, err := s.Keys("b")
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != len(model) {
				t.Fatalf("iter %d %s: keys %v, model has %d", iter, name, keys, len(model))
			}
			for k, want := range model {
				if got, ok, err := s.Get("b", k); err != nil || !ok || !bytes.Equal(got, want) {
					t.Fatalf("iter %d %s: Get(%s) = %x %v %v, want %x", iter, name, k, got, ok, err, want)
				}
			}
		}
		for name, s := range storeImpls(t) {
			for i, b := range batches {
				if err := s.PutBatch(b); err != nil {
					t.Fatalf("iter %d %s batch %d: %v", iter, name, i, err)
				}
				if ls, ok := s.(*LogStore); ok && i == len(batches)/2 {
					if err := ls.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			check(name, s)
			if ls, ok := s.(*LogStore); ok {
				ls.Close()
				re, err := OpenLog(ls.Dir(), LogOptions{})
				if err != nil {
					t.Fatal(err)
				}
				check(name+" reopened", re)
				if err := re.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				re.Close()
				if re, err = OpenLog(ls.Dir(), LogOptions{}); err != nil {
					t.Fatal(err)
				}
				check(name+" checkpointed", re)
				re.Close()
				continue
			}
			s.Close()
		}
	}
}

// A patch in WriteAsync mode is volatile like any other unsynced write: a
// crash restores the synced value, untouched by the patch.
func TestMemAsyncPatchLostOnCrash(t *testing.T) {
	s := NewMemStore(WriteAsync)
	defer s.Close()
	if err := s.Put("b", "k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]Op{{Bucket: "b", Key: "k", Patch: true, Off: 1, Val: []byte("ZZZ")}}); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Get("b", "k"); string(v) != "aZZZ" {
		t.Fatalf("patched value = %q", v)
	}
	s.Crash()
	if v, _, _ := s.Get("b", "k"); string(v) != "abc" {
		t.Fatalf("after crash = %q, want the synced value", v)
	}
}

func TestMemCrashLosesUnsyncedWrites(t *testing.T) {
	s := NewMemStore(WriteAsync)
	defer s.Close()
	if err := s.Put("b", "durable", []byte("d")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", "volatile", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("b", "durable"); err != nil {
		t.Fatal(err)
	}
	// Before the crash the overlay is visible.
	if _, ok, _ := s.Get("b", "volatile"); !ok {
		t.Fatal("overlay write invisible")
	}
	if _, ok, _ := s.Get("b", "durable"); ok {
		t.Fatal("overlay delete invisible")
	}

	s.Crash()

	if _, ok, _ := s.Get("b", "volatile"); ok {
		t.Error("unsynced write survived crash")
	}
	v, ok, _ := s.Get("b", "durable")
	if !ok || string(v) != "d" {
		t.Error("unsynced delete survived crash")
	}
}

func TestMemSyncModeSurvivesCrash(t *testing.T) {
	s := NewMemStore(WriteSync)
	defer s.Close()
	if err := s.Put("b", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if _, ok, _ := s.Get("b", "k"); !ok {
		t.Error("sync-mode write lost on crash")
	}
}

// Property: a random sequence of puts/deletes leaves MemStore(WriteAsync)
// after Sync in the same state as MemStore(WriteSync).
func TestQuickAsyncSyncEquivalence(t *testing.T) {
	type op struct {
		Del bool
		Key uint8
		Val []byte
	}
	f := func(ops []op) bool {
		a := NewMemStore(WriteSync)
		b := NewMemStore(WriteAsync)
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%8)
			if o.Del {
				_ = a.Delete("b", k)
				_ = b.Delete("b", k)
			} else {
				_ = a.Put("b", k, o.Val)
				_ = b.Put("b", k, o.Val)
			}
		}
		if err := b.Sync(); err != nil {
			return false
		}
		ka, _ := a.Keys("b")
		kb, _ := b.Keys("b")
		if len(ka) != len(kb) {
			return false
		}
		for i := range ka {
			if ka[i] != kb[i] {
				return false
			}
			va, _, _ := a.Get("b", ka[i])
			vb, _, _ := b.Get("b", kb[i])
			if !bytes.Equal(va, vb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the log store round-trips arbitrary keys and binary values,
// live and after a reopen replays them from the log.
func TestQuickLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLog(dir, LogOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	f := func(key string, val []byte) bool {
		if err := s.Put("q", key, val); err != nil {
			return false
		}
		want[key] = val
		got, ok, err := s.Get("q", key)
		return err == nil && ok && bytes.Equal(got, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for k, v := range want {
		if got, ok, err := s2.Get("q", k); err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("after reopen Get(%q) = %q %v %v, want %q", k, got, ok, err, v)
		}
	}
}
