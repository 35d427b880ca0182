package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
)

// The generator owns everything random in the benchmark. It builds the
// preload contents and every op stream from -seed before the clock
// starts, and it keeps a reference model of the store as it goes, so
// each op carries the reply the store must give. The program under test
// sees only keys and values; no seed and no workload name reach it.

const (
	farFuture  = int64(1) << 40 // the one expiry TTL writes carry: nothing expires inside a run
	numTenants = 4
	partitions = 16 // saturated workers: 2 connections × 8 in flight, one key partition each
	rangeItems = 100
	batchKeys  = 16
	// batchStride spreads a GetBatch's keys over the key space; it is
	// prime, so it shares no factor with any universe size.
	batchStride = 1_000_003
)

type opKind uint8

const (
	opGet opKind = iota
	opGetTTL
	opNSGet
	opPut
	opPutTTL
	opDel
	opNSPut
	opNSDel
	opRange
	opGetBatch
	numOpKinds
)

var opNames = [numOpKinds]string{"GET", "GETTTL", "NSGET", "PUT", "PUTTTL", "DEL", "NSPUT", "NSDEL", "RANGE", "BATCHGET"}

// op is one generated call with its expected reply.
type op struct {
	kind opKind
	ks   uint8  // key space: 0 is the default one, 1..numTenants the tenants
	ok   bool   // expected found / inserted / deleted flag
	ttl  bool   // expected: the entry read carries the farFuture expiry
	idx  uint32 // key index; keyOf gives the key
	val  int64  // value to write; for a read, the expected value or checksum
}

// keyOf maps a key index to its key. Order is preserved, so the model
// can predict scans; shard routing hashes the key, so index order says
// nothing about placement.
func keyOf(idx uint32) int64 { return (int64(idx) + 1) << 10 }

func idxOf(key int64) uint32 { return uint32(key>>10 - 1) }

// How a mix entry picks its key.
const (
	pickAny  = iota // uniform over the worker's indices: about a tenth are absent
	pickLive        // a key the model holds
	pickDead        // a key the model does not hold
)

// choice is one line of an op mix; weights are per mille.
type choice struct {
	kind   opKind
	pick   int
	weight int
}

var (
	mixNetRead = []choice{{opGet, pickAny, 850}, {opNSGet, pickAny, 100}, {opGetTTL, pickAny, 50}}
	// Fresh puts and deletes balance, so the key count stays where the
	// preload left it.
	mixNetWrite = []choice{
		{opPut, pickLive, 400}, {opPut, pickDead, 200}, {opDel, pickLive, 200}, {opPutTTL, pickLive, 100},
		{opNSPut, pickLive, 50}, {opNSPut, pickDead, 25}, {opNSDel, pickLive, 25},
	}
	mixEmbed = []choice{
		{opGet, pickAny, 600}, {opPut, pickLive, 50}, {opPut, pickDead, 100}, {opDel, pickLive, 100},
		{opRange, pickAny, 100}, {opGetBatch, pickAny, 50},
	}
	mixMutate = []choice{{opPut, pickLive, 500}, {opPut, pickDead, 250}, {opDel, pickLive, 250}}
)

// keyspace is the reference model of one key space, indexed by key
// index. Each of its partitions keeps a list of its live and of its
// dead indices, so a stream can pick either kind uniformly; pos is an
// index's place in whichever list holds it.
type keyspace struct {
	val       []int64
	live, ttl []bool
	pos       []uint32
	lists     [partitions][2][]uint32 // [partition][0 dead, 1 live]
	liveKeys  int
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (k *keyspace) setLive(idx uint32, live bool) {
	if k.live[idx] == live {
		return
	}
	p := &k.lists[idx%partitions]
	from, to := &p[b2i(!live)], &p[b2i(live)]
	last := (*from)[len(*from)-1]
	(*from)[k.pos[idx]] = last
	k.pos[last] = k.pos[idx]
	*from = (*from)[:len(*from)-1]
	k.pos[idx] = uint32(len(*to))
	*to = append(*to, idx)
	k.live[idx] = live
	k.liveKeys += 2*b2i(live) - 1
}

type generator struct {
	seed uint64
	ks   [1 + numTenants]*keyspace
}

func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// newGenerator builds the preload contents: in each key space nine
// indices in ten are live, and with ttl one live key in eight carries
// the farFuture expiry, so GETTTL sees both kinds.
func newGenerator(seed uint64, defKeys, tenantKeys int, ttl bool) *generator {
	g := &generator{seed: seed}
	for i := range g.ks {
		n := defKeys
		if i > 0 {
			n = tenantKeys
		}
		u := n * 10 / 9
		k := &keyspace{
			val: make([]int64, u), live: make([]bool, u), ttl: make([]bool, u), pos: make([]uint32, u),
		}
		for idx := uint32(0); idx < uint32(u); idx++ {
			h := mix64(seed ^ uint64(i)<<40 ^ uint64(idx))
			live := h%10 != 0
			l := &k.lists[idx%partitions][b2i(live)]
			k.pos[idx] = uint32(len(*l))
			*l = append(*l, idx)
			if live {
				k.live[idx], k.val[idx], k.ttl[idx] = true, int64(mix64(h)), ttl && h%8 == 1
				k.liveKeys++
			}
		}
		g.ks[i] = k
	}
	return g
}

func (g *generator) liveKeys() (n int) {
	for _, k := range g.ks {
		n += k.liveKeys
	}
	return n
}

// newRand returns the random stream of one consumer of the seed.
func newRand(seed, salt uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(seed ^ salt))))
}

// chunkSpec describes one chunk of a workload's op stream: workers
// streams of ops calls each, drawn from mix.
type chunkSpec struct {
	mix     []choice
	workers int
	ops     int
}

// chunk generates chunk number n of a workload. Worker w draws only
// from partition w (or, alone, from all of them), so concurrent
// workers never touch each other's keys and the model stays exact
// whatever order the server interleaves them in.
func (g *generator) chunk(spec chunkSpec, n int, reuse [][]op) [][]op {
	if len(reuse) != spec.workers {
		reuse = make([][]op, spec.workers)
	}
	for w := range reuse {
		rng := newRand(g.seed, uint64(n)<<20^uint64(w)<<8^0xC4)
		part := w
		if spec.workers == 1 {
			part = -1
		}
		s := reuse[w][:0]
		for i := 0; i < spec.ops; i++ {
			s = append(s, g.next(rng, spec.mix, part))
		}
		reuse[w] = s
	}
	return reuse
}

func (g *generator) next(rng *rand.Rand, mix []choice, part int) op {
	r := rng.Intn(1000)
	c := mix[len(mix)-1]
	for _, m := range mix {
		if r < m.weight {
			c = m
			break
		}
		r -= m.weight
	}
	o := op{kind: c.kind}
	switch c.kind {
	case opNSGet, opNSPut, opNSDel:
		o.ks = uint8(1 + rng.Intn(numTenants))
	}
	k := g.ks[o.ks]
	if part < 0 {
		part = rng.Intn(partitions)
	}
	if list := k.lists[part][b2i(c.pick == pickLive)]; c.pick != pickAny && len(list) > 0 {
		o.idx = list[rng.Intn(len(list))]
	} else {
		per := (len(k.val) - part + partitions - 1) / partitions
		o.idx = uint32(part + partitions*rng.Intn(per))
	}
	g.expect(&o, rng)
	return o
}

// expect fills in the reply the store must give to o and applies o to
// the model.
func (g *generator) expect(o *op, rng *rand.Rand) {
	k := g.ks[o.ks]
	switch o.kind {
	case opGet, opGetTTL, opNSGet:
		o.ok, o.val, o.ttl = k.live[o.idx], k.val[o.idx], k.ttl[o.idx]
	case opPut, opPutTTL, opNSPut:
		o.ok, o.val = !k.live[o.idx], rng.Int63()
		k.setLive(o.idx, true)
		k.val[o.idx], k.ttl[o.idx] = o.val, o.kind == opPutTTL
	case opDel, opNSDel:
		o.ok = k.live[o.idx]
		k.setLive(o.idx, false)
		k.val[o.idx], k.ttl[o.idx] = 0, false
	case opRange:
		h, n := uint64(0), 0
		for i := int(o.idx); i < len(k.val) && n < rangeItems; i++ {
			if k.live[i] {
				h = fold(fold(h, keyOf(uint32(i))), k.val[i])
				n++
			}
		}
		o.val = int64(fold(h, int64(n)))
	case opGetBatch:
		h := uint64(0)
		for j := 0; j < batchKeys; j++ {
			i := batchIdx(o.idx, j, len(k.val))
			h = fold(fold(h, int64(b2i(k.live[i]))), k.val[i])
		}
		o.val = int64(h)
	}
}

func batchIdx(base uint32, j, universe int) uint32 {
	return uint32((int(base) + j*batchStride) % universe)
}

// fold mixes one word into a reply checksum.
func fold(h uint64, x int64) uint64 { return (h ^ uint64(x)) * 0x100000001B3 }

// streamHash is the SHA-256 of every chunk a plan generates, in order:
// the identity of a workload's input.
func streamHash(g *generator, plan []chunkSpec) [32]byte {
	h := sha256.New()
	var buf [16]byte
	var chunk [][]op
	for n, spec := range plan {
		chunk = g.chunk(spec, n, chunk)
		for _, s := range chunk {
			for _, o := range s {
				buf[0], buf[1], buf[2], buf[3] = byte(o.kind), o.ks, byte(b2i(o.ok)), byte(b2i(o.ttl))
				binary.LittleEndian.PutUint32(buf[4:], o.idx)
				binary.LittleEndian.PutUint64(buf[8:], uint64(o.val))
				h.Write(buf[:])
			}
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
