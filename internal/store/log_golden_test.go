package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"
)

// The reference encoders below are the log format's original, copying
// implementations, kept verbatim so the exact-size encoders in log.go can be
// checked byte for byte against them: logs and checkpoints written before
// patch records existed must stay readable, and new ones identical.

func refEncodeFrame(seq uint64, ops []Op) []byte {
	payload := refEncodeOps(ops)
	out := make([]byte, frameHdrSz+len(payload))
	binary.BigEndian.PutUint32(out[0:], logMagic)
	binary.BigEndian.PutUint64(out[4:], seq)
	binary.BigEndian.PutUint32(out[12:], uint32(len(ops)))
	binary.BigEndian.PutUint32(out[16:], uint32(len(payload)))
	copy(out[frameHdrSz:], payload)
	crc := crc32.Update(0, crcTable, out[4:16])
	crc = crc32.Update(crc, crcTable, payload)
	binary.BigEndian.PutUint32(out[20:], crc)
	return out
}

func refEncodeOps(ops []Op) []byte {
	var out []byte
	var u32 [4]byte
	putStr := func(s string) {
		binary.BigEndian.PutUint32(u32[:], uint32(len(s)))
		out = append(out, u32[:]...)
		out = append(out, s...)
	}
	for _, op := range ops {
		kind := byte(0)
		if op.Delete {
			kind = 1
		}
		out = append(out, kind)
		putStr(op.Bucket)
		putStr(op.Key)
		binary.BigEndian.PutUint32(u32[:], uint32(len(op.Val)))
		out = append(out, u32[:]...)
		out = append(out, op.Val...)
	}
	return out
}

func refEncodeCheckpoint(seq uint64, mem map[string]map[string][]byte) []byte {
	buckets := make([]string, 0, len(mem))
	for b := range mem {
		buckets = append(buckets, b)
	}
	sort.Strings(buckets)
	out := make([]byte, 16)
	binary.BigEndian.PutUint32(out[0:], ckptMagic)
	binary.BigEndian.PutUint64(out[4:], seq)
	binary.BigEndian.PutUint32(out[12:], uint32(len(buckets)))
	var u32 [4]byte
	putStr := func(s string) {
		binary.BigEndian.PutUint32(u32[:], uint32(len(s)))
		out = append(out, u32[:]...)
		out = append(out, s...)
	}
	for _, b := range buckets {
		putStr(b)
		keys := make([]string, 0, len(mem[b]))
		for k := range mem[b] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		binary.BigEndian.PutUint32(u32[:], uint32(len(keys)))
		out = append(out, u32[:]...)
		for _, k := range keys {
			putStr(k)
			putStr(string(mem[b][k]))
		}
	}
	crc := crc32.Checksum(out[4:], crcTable)
	binary.BigEndian.PutUint32(u32[:], crc)
	return append(out, u32[:]...)
}

func randBytes(rng *rand.Rand, max int) []byte {
	b := make([]byte, rng.Intn(max+1))
	rng.Read(b)
	return b
}

// TestEncodersMatchReferenceFormat: for randomized batches of puts and
// deletes and randomized full states, encodeFrame and encodeCheckpoint emit
// exactly the reference bytes, and the decoders invert them.
func TestEncodersMatchReferenceFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		ops := make([]Op, rng.Intn(8))
		for i := range ops {
			ops[i] = Op{
				Bucket: string(randBytes(rng, 6)),
				Key:    string(randBytes(rng, 12)),
				Val:    randBytes(rng, 300),
				Delete: rng.Intn(4) == 0,
			}
		}
		seq := rng.Uint64()
		got, want := encodeFrame(seq, ops), refEncodeFrame(seq, ops)
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d: frame differs from the reference encoding", iter)
		}
		n, dseq, dops, ok := decodeFrame(got)
		if !ok || n != len(got) || dseq != seq || len(dops) != len(ops) {
			t.Fatalf("iter %d: decodeFrame = %d %d %d ops %v", iter, n, dseq, len(dops), ok)
		}
		for i, op := range dops {
			in := ops[i]
			if op.Bucket != in.Bucket || op.Key != in.Key || op.Delete != in.Delete ||
				(!in.Delete && !bytes.Equal(op.Val, in.Val)) {
				t.Fatalf("iter %d op %d: decoded %+v, want %+v", iter, i, op, in)
			}
		}

		mem := make(map[string]map[string][]byte)
		for b := rng.Intn(4); b > 0; b-- {
			kv := make(map[string][]byte)
			for k := rng.Intn(10); k > 0; k-- {
				kv[string(randBytes(rng, 10))] = randBytes(rng, 500)
			}
			mem[string(randBytes(rng, 5))] = kv
		}
		ck, ref := encodeCheckpoint(seq, mem), refEncodeCheckpoint(seq, mem)
		if !bytes.Equal(ck, ref) {
			t.Fatalf("iter %d: checkpoint differs from the reference encoding", iter)
		}
		cseq, cmem, err := decodeCheckpoint(ck)
		if err != nil || cseq != seq || fmt.Sprint(cmem) != fmt.Sprint(mem) {
			t.Fatalf("iter %d: decodeCheckpoint = %d %v %v", iter, cseq, len(cmem), err)
		}
	}
}

// TestPatchFrameRoundTrip: a patch op is kind 2 with its offset ahead of the
// value, and decodes back to the same op.
func TestPatchFrameRoundTrip(t *testing.T) {
	ops := []Op{
		{Bucket: "data", Key: "f", Val: []byte("base")},
		{Bucket: "data", Key: "f", Patch: true, Off: 1 << 40, Val: []byte("xy")},
		{Bucket: "data", Key: "f", Delete: true},
	}
	frame := encodeFrame(9, ops)
	payload := frame[frameHdrSz:]
	patch := payload[len(refEncodeOps(ops[:1])):]
	if patch[0] != kindPatch {
		t.Fatalf("patch kind byte = %d, want %d", patch[0], kindPatch)
	}
	if off := binary.BigEndian.Uint64(patch[1+4+4+4+1:]); off != 1<<40 {
		t.Fatalf("patch offset field = %d", off)
	}
	_, _, got, ok := decodeFrame(frame)
	if !ok || len(got) != 3 {
		t.Fatalf("decodeFrame ok=%v ops=%d", ok, len(got))
	}
	if p := got[1]; !p.Patch || p.Delete || p.Off != 1<<40 || string(p.Val) != "xy" {
		t.Fatalf("decoded patch = %+v", p)
	}
	if d := got[2]; !d.Delete || d.Patch {
		t.Fatalf("decoded delete = %+v", d)
	}
}
