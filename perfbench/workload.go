package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
)

// opKind is one client operation type.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "put", "scan"}

// workload is one named traffic mix. Every workload loads keys
// 0..keys-1 at version 1 before it is measured, and every op draws ids
// from the same range, so a read never targets a key that was not loaded.
type workload struct {
	name      string
	wire      bool    // pipelined over RESP; otherwise in-process
	keys      int     // loaded keyspace
	valueSize int     // bytes per value, header included
	readShare float64 // share of GET (or SCAN when scan is set)
	scan      bool    // the read op is a SCAN of 1..maxScan keys
	maxScan   int
	zipf      bool  // zipfian 0.99 over the keyspace, else uniform
	shards    int   // hash shards behind the router
	svcBytes  int64 // DRAM value cache size
	ssdFactor int   // SSD capacity per shard, as a multiple of the shard's data
	depth     int   // requests in flight per RESP connection
}

// workloads, and why each was chosen, are documented in README.md.
var workloads = []workload{
	{
		// The only workload through internal/server and the core async
		// pipeline; small values make parsing a larger share.
		name: "wire-mixed", wire: true,
		keys: 50_000, valueSize: 256, readShare: 0.5, zipf: true, shards: 1,
		svcBytes: 8 << 20, ssdFactor: 8, depth: 16,
	},
	{
		// The dataset is 5x the value cache, so reads miss to tcq,
		// valuestore and ssd; bypasses the server and async pipeline.
		name: "read-uniform",
		keys: 100_000, valueSize: 1024, readShare: 0.95, shards: 1,
		svcBytes: 100_000 * 1024 / 5, ssdFactor: 2,
	},
	{
		// Range scans, the shard merge, SVC scan rewrites, PWB reclaim
		// and Value Storage GC, with writes beside the scans.
		name: "scan-update",
		keys: 50_000, valueSize: 1024, readShare: 0.5, scan: true, maxScan: 100, zipf: true, shards: 2,
		svcBytes: 50_000 * 1024 / 5, ssdFactor: 2,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// clients is the number of load-generating goroutines (and store
// threads, and RESP connections): one writer stripe each.
const clients = 2

// op is one generated request.
type op struct {
	kind    opKind
	id      int
	scanLen int
}

// generator draws a client's ops from its own seeded stream. Client c
// writes only ids with id%clients == c, so every key has one writer and
// its version sequence is exact; reads and scans draw from every id.
type generator struct {
	w      *workload
	client int
	rng    *rand.Rand
	zipf   *zipfian
}

func newGenerator(w *workload, seed uint64, stream, client int) *generator {
	g := &generator{w: w, client: client, rng: rand.New(rand.NewPCG(seed, uint64(stream)<<8|uint64(client)))}
	if w.zipf {
		g.zipf = newZipfian(w.keys, 0.99)
	}
	return g
}

func (g *generator) id() int {
	if g.zipf != nil {
		return g.zipf.scrambled(g.rng)
	}
	return g.rng.IntN(g.w.keys)
}

func (g *generator) next() op {
	id := g.id()
	if g.rng.Float64() >= g.w.readShare {
		id = id - id%clients + g.client
		if id >= g.w.keys {
			id -= clients
		}
		return op{kind: opPut, id: id}
	}
	if g.w.scan {
		return op{kind: opScan, id: id, scanLen: 1 + g.rng.IntN(g.w.maxScan)}
	}
	return op{kind: opGet, id: id}
}

// zipfian is YCSB's zipfian generator (Gray et al., "Quickly generating
// billion-record synthetic databases") over [0, n), with the scrambled
// variant hashing ranks so the hot keys spread over the keyspace.
type zipfian struct {
	n                        int
	theta, alpha, zetan, eta float64
	half                     float64 // 1 + 0.5^theta
}

func newZipfian(n int, theta float64) *zipfian {
	zeta := func(n int) float64 {
		var s float64
		for i := 1; i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipfian{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipfian) rank(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	v := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

func (z *zipfian) scrambled(r *rand.Rand) int {
	return int(fnv64(uint64(z.rank(r))) % uint64(z.n))
}

func fnv64(v uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// keyLen is the width of every key: "k" plus ten digits, so byte order
// is numeric order and a scan's expected keys are consecutive ids.
const keyLen = 11

func appendKey(dst []byte, id int) []byte {
	var b [keyLen]byte
	b[0] = 'k'
	for i := keyLen - 1; i > 0; i-- {
		b[i] = byte('0' + id%10)
		id /= 10
	}
	return append(dst, b[:]...)
}

func parseKey(k []byte) (int, bool) {
	if len(k) != keyLen || k[0] != 'k' {
		return 0, false
	}
	id := 0
	for _, c := range k[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + int(c-'0')
	}
	return id, true
}

// Value layout: key id, version, checksum, then a payload that is a pure
// function of (id, version). The checksum covers id, version and payload.
const valueHeader = 24

func encodeValue(dst []byte, id int, version uint64) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(id))
	binary.LittleEndian.PutUint64(dst[8:], version)
	x := fnv64(uint64(id)<<20 ^ version)
	p := dst[valueHeader:]
	for i := 0; i < len(p); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(p[i:], w[:])
	}
	binary.LittleEndian.PutUint64(dst[16:], checksum(dst))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(v []byte) uint64 {
	return uint64(crc32.Update(crc32.Checksum(v[:16], castagnoli), castagnoli, v[valueHeader:]))
}

// decodeValue returns the id and version a value claims, and whether it
// is intact: the right size and a matching checksum.
func decodeValue(v []byte, size int) (id int, version uint64, ok bool) {
	if len(v) != size || size < valueHeader {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint64(v[16:]) != checksum(v) {
		return 0, 0, false
	}
	return int(binary.LittleEndian.Uint64(v[0:])), binary.LittleEndian.Uint64(v[8:]), true
}
