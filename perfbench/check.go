package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/store"
	"repro/internal/version"
	"repro/internal/wire"
)

// blockHistory holds, per (file, block), the writes issued to it, so a block
// read back can be judged against them.
type blockHistory struct {
	w      workload
	writes map[[2]int][]uint64
	recs   []writeRec
}

func newBlockHistory(w workload, l *writeLog) *blockHistory {
	l.mu.Lock()
	recs := append([]writeRec(nil), l.recs...)
	l.mu.Unlock()
	h := &blockHistory{w: w, writes: map[[2]int][]uint64{}, recs: recs}
	for i, r := range recs {
		k := [2]int{r.file, r.block}
		h.writes[k] = append(h.writes[k], uint64(i+1))
	}
	return h
}

// verdict judges the content of one block. The content must be an intact
// stamp of a write issued to this block, or the prepopulated content, and
// it must not be superseded: no acknowledged write to the block may have
// been issued after it was acknowledged (for the prepopulated content:
// acknowledged at all). A write that failed or never returned may or may
// not have taken effect, so it is never superseded.
func (h *blockHistory) verdict(data []byte, file, block int) string {
	seq, ok := readStamp(data, file, block)
	if !ok {
		return "not a stamp of this block"
	}
	var ackedAt time.Time // zero: prepopulated, before every write
	if seq > 0 {
		if seq > uint64(len(h.recs)) || h.recs[seq-1].file != file || h.recs[seq-1].block != block {
			return fmt.Sprintf("holds write %d, never issued to this block", seq)
		}
		ackedAt = h.recs[seq-1].acked
		if ackedAt.IsZero() {
			return "" // failed or unanswered: allowed either way
		}
	}
	for _, s := range h.writes[[2]int{file, block}] {
		r := h.recs[s-1]
		if !r.acked.IsZero() && (seq == 0 || r.issued.After(ackedAt)) {
			return fmt.Sprintf("holds write %d, superseded by acknowledged write %d", seq, s)
		}
	}
	return ""
}

// checkOutput reads every file back through each server's envelope and
// fails on any block that is not a legitimate write, or on two servers
// returning different content.
func checkOutput(ctx context.Context, c *cell, fs *fileSet, h *blockHistory) []string {
	var bad []string
	w := h.w
	for f := 0; f < w.files; f++ {
		var first []byte
		for s, srv := range c.servers {
			data, _, err := srv.Envelope().Read(ctx, fs.handles[f], 0, uint32(w.fileSize))
			if err != nil {
				bad = append(bad, fmt.Sprintf("server %d: read %s: %v", s, fileName(f), err))
				continue
			}
			if len(data) != w.fileSize {
				bad = append(bad, fmt.Sprintf("server %d: %s has %d bytes, want %d", s, fileName(f), len(data), w.fileSize))
				continue
			}
			for b := 0; b < w.blocksPerFile(); b++ {
				if v := h.verdict(data[b*w.block:(b+1)*w.block], f, b); v != "" {
					bad = append(bad, fmt.Sprintf("server %d: %s block %d %s", s, fileName(f), b, v))
				}
			}
			if first == nil {
				first = data
			} else if string(first) != string(data) {
				bad = append(bad, fmt.Sprintf("servers disagree on %s", fileName(f)))
			}
		}
	}
	return bad
}

// checkDurable copies each stopped server's store directory, cut back to the
// last commit the store wrapper saw return, reopens the copy with
// store.OpenLog, and checks that every block holding an acknowledged write
// is durable on at least one replica: its newest acknowledged write, or a
// write that may legitimately have replaced it. Nothing is closed or synced
// before the copy, so bytes still only in the OS cache are not counted.
func checkDurable(c *cell, fs *fileSet, h *blockHistory, workdir string) []string {
	w := h.w
	replicas := make([][][]byte, w.files) // per file, the payload of each durable replica
	var bad []string
	for i, sc := range c.stores {
		dir := filepath.Join(workdir, fmt.Sprintf("durable%d", i))
		if err := copyStoreCut(sc, dir); err != nil {
			return append(bad, fmt.Sprintf("server %d: copy store: %v", i, err))
		}
		ls, err := store.OpenLog(dir, store.LogOptions{CheckpointBytes: -1})
		if err != nil {
			return append(bad, fmt.Sprintf("server %d: reopen store: %v", i, err))
		}
		for f, seg := range fs.segs {
			data, err := durableReplica(ls, uint64(seg))
			if err != nil {
				bad = append(bad, fmt.Sprintf("server %d: %s: %v", i, fileName(f), err))
				continue
			}
			if data == nil {
				continue // no replica here
			}
			if int64(len(data)) != fs.hdrSize+int64(w.fileSize) {
				bad = append(bad, fmt.Sprintf("server %d: durable %s has %d bytes", i, fileName(f), len(data)))
				continue
			}
			replicas[f] = append(replicas[f], data[fs.hdrSize:])
		}
		_ = ls.Close()
	}
	for f := 0; f < w.files; f++ {
		if len(replicas[f]) == 0 {
			bad = append(bad, fmt.Sprintf("%s has no durable replica", fileName(f)))
			continue
		}
		for b := 0; b < w.blocksPerFile(); b++ {
			if !h.hasAcked(f, b) {
				continue
			}
			var why string
			for _, data := range replicas[f] {
				if why = h.verdict(data[b*w.block:(b+1)*w.block], f, b); why == "" {
					break
				}
			}
			if why != "" {
				bad = append(bad, fmt.Sprintf("%s block %d not durable: %s", fileName(f), b, why))
			}
		}
	}
	return bad
}

func (h *blockHistory) hasAcked(file, block int) bool {
	for _, s := range h.writes[[2]int{file, block}] {
		if !h.recs[s-1].acked.IsZero() {
			return true
		}
	}
	return false
}

// copyStoreCut copies the store's checkpoint and the prefix of its log that
// the last returned commit covers.
func copyStoreCut(sc *storeCounter, dst string) error {
	seen := sc.lastSeen()
	walLen := seen.WalBytes
	if sc.Stats().CheckpointSeq != seen.CheckpointSeq {
		walLen = -1 // a checkpoint after the last returned commit: keep it whole
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	if err := copyFile(filepath.Join(sc.Dir(), "checkpoint"), filepath.Join(dst, "checkpoint"), -1); err != nil && !os.IsNotExist(err) {
		return err
	}
	return copyFile(filepath.Join(sc.Dir(), "wal"), filepath.Join(dst, "wal"), walLen)
}

// copyFile copies src to dst, only its first n bytes when n >= 0.
func copyFile(src, dst string, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	var r io.Reader = in
	if n >= 0 {
		r = io.LimitReader(in, n)
	}
	if _, err := io.Copy(out, r); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// durableReplica returns the newest major version's replica data of a
// segment from a reopened store, or nil when the store holds none. It reads
// core's on-disk layout: bucket "data", key "<seg>/<major>" in 16-digit hex,
// value = version pair, stable flag, length-prefixed data.
func durableReplica(ls *store.LogStore, seg uint64) ([]byte, error) {
	keys, err := ls.Keys("data")
	if err != nil {
		return nil, err
	}
	prefix := fmt.Sprintf("%016x/", seg)
	best, bestMajor := "", uint64(0)
	for _, k := range keys {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		m, err := strconv.ParseUint(k[len(prefix):], 16, 64)
		if err == nil && (best == "" || m > bestMajor) {
			best, bestMajor = k, m
		}
	}
	if best == "" {
		return nil, nil
	}
	raw, _, err := ls.Get("data", best)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(raw)
	var pair version.Pair
	if err := pair.UnmarshalWire(d); err != nil {
		return nil, err
	}
	_ = d.Bool() // stable
	data := d.Bytes32()
	return data, d.Err()
}
