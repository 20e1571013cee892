// Package store implements the per-server non-volatile storage Deceit
// requires (§3.5, "Local Non-volatile Storage"): file/replica data, replica
// state, version pairs, token state, and the map between file handles and
// local names are all persisted here.
//
// The interface is a bucketed key/value store. Two implementations exist:
//
//   - MemStore, an in-memory store with crash simulation. The paper notes
//     that "some of a server's non-volatile storage is updated immediately
//     when values change, and some of it is written asynchronously,
//     depending on safety"; MemStore models this with synchronous and
//     asynchronous write modes and a Crash operation that discards
//     unsynced writes.
//   - LogStore (log.go), an append-only segment log with periodic
//     checkpoints: a whole batch of operations is group-committed as one
//     framed, CRC-protected record with a single fsync, and recovery is
//     checkpoint + log suffix with torn tail records truncated.
package store

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Op is one mutation inside a PutBatch group commit: a put of Val under
// (Bucket, Key), a removal of the key when Delete is set, or — when Patch is
// set — a write of Val at byte Off of the key's existing value, which is
// zero-extended first if Val ends past it. A patch persists only the bytes
// that changed; the value a later Get returns is still the whole image.
// Delete and Patch are exclusive.
type Op struct {
	Bucket string
	Key    string
	Val    []byte
	Delete bool
	Patch  bool
	Off    int64
}

// Store is the non-volatile storage interface.
type Store interface {
	// Put writes a value. Whether the write is immediately durable depends
	// on the implementation's write mode.
	Put(bucket, key string, val []byte) error
	// PutBatch applies a run of mutations as one group commit. On a
	// log-structured implementation the whole batch costs a single fsync;
	// other implementations apply the ops in order with their usual per-op
	// durability. An error means a prefix (possibly empty) of the batch may
	// have been applied.
	PutBatch(ops []Op) error
	// Get reads a value, reporting whether it exists.
	Get(bucket, key string) ([]byte, bool, error)
	// Delete removes a value; deleting a missing key is not an error.
	Delete(bucket, key string) error
	// Keys lists the keys in a bucket in sorted order.
	Keys(bucket string) ([]string, error)
	// Sync makes all prior writes durable.
	Sync() error
	// Close releases resources. The store must not be used afterwards.
	Close() error
}

// Syncer is implemented by stores that count the fsync (or simulated fsync)
// barriers they have issued; the A7 ablation reads it to report ops/fsync.
type Syncer interface {
	Syncs() uint64
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrMissingKey is returned (wrapped with the key) by a PutBatch holding a
// patch whose key neither exists nor is put earlier in the same batch. The
// whole batch is refused before anything is applied or logged.
var ErrMissingKey = errors.New("store: patch of a missing key")

// checkPatches validates every patch in ops before any op is applied: the
// key must exist (per has) or be put earlier in the batch and not deleted
// since, and the patched value must stay within the 32-bit value length the
// on-disk formats use.
func checkPatches(ops []Op, has func(bucket, key string) bool) error {
	for i, op := range ops {
		if !op.Patch {
			continue
		}
		if op.Delete {
			return fmt.Errorf("store: op on %s/%q both patches and deletes", op.Bucket, op.Key)
		}
		if op.Off < 0 || op.Off+int64(len(op.Val)) > math.MaxUint32 {
			return fmt.Errorf("store: patch of %s/%q at offset %d is out of range", op.Bucket, op.Key, op.Off)
		}
		live, found := false, false
		for j := i - 1; j >= 0; j-- {
			if p := ops[j]; !p.Patch && p.Bucket == op.Bucket && p.Key == op.Key {
				live, found = !p.Delete, true
				break
			}
		}
		if !found {
			live = has(op.Bucket, op.Key)
		}
		if !live {
			return fmt.Errorf("%w: %s/%q", ErrMissingKey, op.Bucket, op.Key)
		}
	}
	return nil
}

// patched writes p at off in v, zero-extending v when p ends past it, and
// returns the result; v's bytes are modified in place.
func patched(v []byte, off int64, p []byte) []byte {
	if end := int(off) + len(p); end > len(v) {
		v = append(v, make([]byte, end-len(v))...)
	}
	copy(v[off:], p)
	return v
}

// WriteMode selects durability behavior for MemStore.
type WriteMode int

// Write modes.
const (
	// WriteSync makes every Put durable immediately.
	WriteSync WriteMode = iota
	// WriteAsync buffers Puts until Sync; a Crash loses them.
	WriteAsync
)

type memEntry struct {
	val     []byte
	deleted bool
}

// MemStore is an in-memory Store with crash simulation.
type MemStore struct {
	mu     sync.RWMutex
	mode   WriteMode
	synced map[string]map[string][]byte   // durable state
	dirty  map[string]map[string]memEntry // unsynced overlay (WriteAsync)
	syncs  uint64                         // simulated fsync barriers
	closed bool
}

var _ Store = (*MemStore)(nil)
var _ Syncer = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore(mode WriteMode) *MemStore {
	return &MemStore{
		mode:   mode,
		synced: make(map[string]map[string][]byte),
		dirty:  make(map[string]map[string]memEntry),
	}
}

// Put implements Store.
func (s *MemStore) Put(bucket, key string, val []byte) error {
	return s.PutBatch([]Op{{Bucket: bucket, Key: key, Val: val}})
}

// PutBatch implements Store. In WriteSync mode the whole batch counts as one
// simulated fsync barrier, modeling the group commit a log-structured store
// gets for free; in WriteAsync mode the ops land in the overlay and cost no
// barrier until Sync.
func (s *MemStore) PutBatch(ops []Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := checkPatches(ops, func(b, k string) bool {
		_, ok := s.getLocked(b, k)
		return ok
	}); err != nil {
		return err
	}
	for _, op := range ops {
		if op.Delete {
			s.deleteLocked(op.Bucket, op.Key)
			continue
		}
		var val []byte
		if op.Patch {
			// A synced value may be patched in place in WriteSync mode;
			// in WriteAsync mode it must survive a crash, so the overlay
			// gets a patched copy unless the value is already the overlay's.
			cur, _ := s.getLocked(op.Bucket, op.Key)
			if e, ok := s.dirty[op.Bucket][op.Key]; s.mode == WriteAsync && !(ok && !e.deleted) {
				cur = append([]byte(nil), cur...)
			}
			val = patched(cur, op.Off, op.Val)
		} else {
			val = append([]byte(nil), op.Val...)
		}
		if s.mode == WriteSync {
			b := s.synced[op.Bucket]
			if b == nil {
				b = make(map[string][]byte)
				s.synced[op.Bucket] = b
			}
			b[op.Key] = val
			continue
		}
		b := s.dirty[op.Bucket]
		if b == nil {
			b = make(map[string]memEntry)
			s.dirty[op.Bucket] = b
		}
		b[op.Key] = memEntry{val: val}
	}
	if s.mode == WriteSync && len(ops) > 0 {
		s.syncs++
	}
	return nil
}

// getLocked returns the visible value of a key (overlay first), without
// copying it.
func (s *MemStore) getLocked(bucket, key string) ([]byte, bool) {
	if e, ok := s.dirty[bucket][key]; ok {
		return e.val, !e.deleted
	}
	v, ok := s.synced[bucket][key]
	return v, ok
}

// Get implements Store.
func (s *MemStore) Get(bucket, key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	v, ok := s.getLocked(bucket, key)
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Delete implements Store.
func (s *MemStore) Delete(bucket, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.deleteLocked(bucket, key)
	if s.mode == WriteSync {
		s.syncs++
	}
	return nil
}

func (s *MemStore) deleteLocked(bucket, key string) {
	if s.mode == WriteSync {
		delete(s.synced[bucket], key)
		return
	}
	b := s.dirty[bucket]
	if b == nil {
		b = make(map[string]memEntry)
		s.dirty[bucket] = b
	}
	b[key] = memEntry{deleted: true}
}

// Keys implements Store.
func (s *MemStore) Keys(bucket string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	set := make(map[string]bool)
	for k := range s.synced[bucket] {
		set[k] = true
	}
	for k, e := range s.dirty[bucket] {
		if e.deleted {
			delete(set, k)
		} else {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Sync implements Store: it merges the dirty overlay into durable state.
func (s *MemStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.syncs++
	for bucket, entries := range s.dirty {
		b := s.synced[bucket]
		if b == nil {
			b = make(map[string][]byte)
			s.synced[bucket] = b
		}
		for k, e := range entries {
			if e.deleted {
				delete(b, k)
			} else {
				b[k] = e.val
			}
		}
	}
	s.dirty = make(map[string]map[string]memEntry)
	return nil
}

// Syncs implements Syncer.
func (s *MemStore) Syncs() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.syncs
}

// Crash simulates a machine crash: all unsynced writes are lost. The store
// remains usable, modeling the server restarting with the durable state.
func (s *MemStore) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dirty = make(map[string]map[string]memEntry)
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
