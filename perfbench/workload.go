package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"
)

// opKind is one client operation class.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opGetattr
	opLookup
	opReaddir
	numOpKinds
)

var opNames = [numOpKinds]string{"read", "write", "getattr", "lookup", "readdir"}

func (k opKind) String() string { return opNames[k] }

// class groups op kinds the way the end-to-end latency metrics do.
func (k opKind) class() string {
	switch k {
	case opRead:
		return "read"
	case opWrite:
		return "write"
	default:
		return "meta"
	}
}

// workload is one traffic mix. Rates and the latency limit are part of the
// workload's definition, so both sides of any comparison run them unchanged.
type workload struct {
	name     string
	files    int
	fileSize int
	block    int     // bytes per read or write; every op touches one aligned block
	zipf     float64 // file-choice skew; 0 is uniform
	mix      [numOpKinds]float64

	nominal     float64       // ops/s of the nominal phase, where latency is measured
	ladderStart float64       // first ladder rate, ops/s
	overload    float64       // ops/s of the overload phase, above every knee measured
	limit       time.Duration // p99 latency limit of the knee search
}

// On a 2-vCPU VM with local ext4, the knee search found knees of 5000 to
// 7500 ops/s on read-mostly, 650 to 1400 on write-contended and 240 to 330
// on large-file while the host was quiet, and down to a third of that under
// heavy CPU steal. Nominal rates sit far below them, ladder starts below
// them too, and overload rates are about 1.5 times the quiet knees. See
// README.md for why each workload exists.
var workloads = []workload{
	{
		name: "read-mostly", files: 256, fileSize: 4 << 10, block: 512,
		mix:     [numOpKinds]float64{opRead: 85, opGetattr: 5, opLookup: 3, opReaddir: 2, opWrite: 5},
		nominal: 500, ladderStart: 1800, overload: 10000, limit: 200 * time.Millisecond,
	},
	{
		name: "write-contended", files: 256, fileSize: 4 << 10, block: 512, zipf: 1.2,
		mix:     [numOpKinds]float64{opWrite: 70, opRead: 25, opGetattr: 5},
		nominal: 100, ladderStart: 200, overload: 1500, limit: 300 * time.Millisecond,
	},
	{
		name: "large-file", files: 32, fileSize: 256 << 10, block: 4 << 10,
		mix:     [numOpKinds]float64{opRead: 48, opWrite: 48, opGetattr: 4},
		nominal: 40, ladderStart: 90, overload: 450, limit: 500 * time.Millisecond,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) blocksPerFile() int { return w.fileSize / w.block }

func fileName(f int) string { return fmt.Sprintf("f%03d", f) }

// op is one generated arrival's work: what to do, and to which block.
type op struct {
	kind  opKind
	file  int
	block int
}

// opGen draws ops from a workload's mix with a seeded generator, so a seed
// fixes the whole op sequence.
type opGen struct {
	w    workload
	rng  *rand.Rand
	zipf *rand.Zipf
	cum  [numOpKinds]float64
}

func newOpGen(w workload, seed int64) *opGen {
	g := &opGen{w: w, rng: rand.New(rand.NewSource(seed))}
	if w.zipf > 0 {
		g.zipf = rand.NewZipf(g.rng, w.zipf, 1, uint64(w.files-1))
	}
	total := 0.0
	for k := range w.mix {
		total += w.mix[k]
		g.cum[k] = total
	}
	for k := range g.cum {
		g.cum[k] /= total
	}
	return g
}

func (g *opGen) next() op {
	u := g.rng.Float64()
	kind := opReaddir
	for k := range g.cum {
		if u < g.cum[k] {
			kind = opKind(k)
			break
		}
	}
	var f int
	if g.zipf != nil {
		f = int(g.zipf.Uint64())
	} else {
		f = g.rng.Intn(g.w.files)
	}
	return op{kind: kind, file: f, block: g.rng.Intn(g.w.blocksPerFile())}
}

// Block stamps. Every block the benchmark writes, prepopulation included,
// starts with a header naming the file, block and write sequence, followed
// by filler derived from the same three values, so any block read back can
// be attributed to exactly one write (or found to be garbage).
const (
	stampMagic = 0x50424b31 // "PBK1"
	stampSize  = 4 + 4 + 4 + 8
)

func stampBlock(buf []byte, file, block int, seq uint64) {
	binary.BigEndian.PutUint32(buf[0:], stampMagic)
	binary.BigEndian.PutUint32(buf[4:], uint32(file))
	binary.BigEndian.PutUint32(buf[8:], uint32(block))
	binary.BigEndian.PutUint64(buf[12:], seq)
	x := seq*0x9e3779b97f4a7c15 ^ uint64(file)<<32 ^ uint64(block) | 1
	for i := stampSize; i < len(buf); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}

// readStamp returns the write sequence a block holds, or ok=false when the
// block is not an intact stamp for (file, block).
func readStamp(buf []byte, file, block int) (seq uint64, ok bool) {
	if len(buf) < stampSize || binary.BigEndian.Uint32(buf[0:]) != stampMagic ||
		binary.BigEndian.Uint32(buf[4:]) != uint32(file) ||
		binary.BigEndian.Uint32(buf[8:]) != uint32(block) {
		return 0, false
	}
	seq = binary.BigEndian.Uint64(buf[12:])
	want := make([]byte, len(buf))
	stampBlock(want, file, block, seq)
	for i := stampSize; i < len(buf); i++ {
		if buf[i] != want[i] {
			return 0, false
		}
	}
	return seq, true
}
