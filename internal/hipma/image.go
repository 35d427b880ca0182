package hipma

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/hialloc"
	"repro/internal/iomodel"
	"repro/internal/veb"
	"repro/internal/xrand"
)

// Disk image format. The image is, deliberately, exactly the PMA's
// memory representation — the array (slots and gaps), the rank tree and
// the balance-key tree in their physical van Emde Boas order — because
// history independence is a property of that representation
// (Definition 4): an image of the structure must not carry anything
// the in-memory layout would not. The only extras are the header needed
// to reinterpret the bytes (config, N, N̂) and a checksum.
//
//	magic   [8]byte  "HIPMA\x00v1"
//	c1      float64 bits
//	cl      float64 bits
//	minTree int64
//	n       int64
//	nhat    int64
//	slots   [N_S]{key int64, val int64}
//	ranks   [2^{h+1}-1]int64   (physical vEB order)
//	keys    [2^{h+1}-1]int64   (physical vEB order)
//	crc32   uint32 (IEEE, over everything above)
//
// All integers little-endian. N_S and h are derived from (config, N̂)
// exactly as at run time, so the image's length is a function of its
// header (ImageSize) and a mismatch is detected before a slot is read.

var imageMagic = [8]byte{'H', 'I', 'P', 'M', 'A', 0, 'v', '1'}

const (
	headerLen = 8 + 5*8
	slotLen   = 16
)

// ImageSize returns the exact length in bytes of the image of a PMA
// built with cfg whose size parameter is nhat — a function of the
// header alone, whatever the contents. It returns -1 when the length
// does not fit an int64, which only a hostile header can ask for.
func ImageSize(cfg Config, nhat int) int64 {
	h, leafSlots, _ := cfg.geometry(nhat)
	return imageLen(h, leafSlots)
}

// imageLen is ImageSize for an already-derived geometry.
func imageLen(h, leafSlots int) int64 {
	// leafSlots·2^h slots of 16 bytes plus two trees of 2^(h+1)−1 nodes
	// of 8 bytes must stay below 2^63; the shift leaves a bit to spare.
	if h > 56 || leafSlots < 1 || int64(leafSlots) > math.MaxInt64>>uint(h+6) {
		return -1
	}
	nodes := int64(2)<<uint(h) - 1
	return headerLen + slotLen*(int64(leafSlots)<<uint(h)) + 2*8*nodes + 4
}

// CanonicalSize returns the length of the image WriteCanonical emits
// for n items under seed, without emitting it: the canonical N̂ is the
// first thing the seed decides.
func CanonicalSize(cfg Config, n int, seed uint64) int64 {
	return ImageSize(cfg, hialloc.NewSizer(n, xrand.New(seed).Split()).Size())
}

// imageWriter stages an image through one fixed scratch: bytes are
// checksummed and handed to w a scratch-full at a time, so emitting an
// image costs the same memory whatever its size.
type imageWriter struct {
	w       io.Writer
	buf     []byte
	n       int // bytes staged in buf
	crc     uint32
	written int64
	err     error // first write error; later writes are dropped
}

// imageScratch caps the staging size: large enough that a hasher or a
// file behind w sees few, big writes; small next to any image worth
// staging.
const imageScratch = 16 << 10

// newImageWriter returns a writer for one image of the given length
// (imageLen), staging through buf when it is large enough; an image
// smaller than the scratch gets a scratch of its own size.
func newImageWriter(w io.Writer, size int64, buf []byte) *imageWriter {
	if size < 0 || size > imageScratch {
		size = imageScratch
	}
	if int64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	return &imageWriter{w: w, buf: buf[:size]}
}

func (iw *imageWriter) flush() {
	if iw.err == nil && iw.n > 0 {
		iw.crc = crc32.Update(iw.crc, crc32.IEEETable, iw.buf[:iw.n])
		var m int
		m, iw.err = iw.w.Write(iw.buf[:iw.n])
		iw.written += int64(m)
	}
	iw.n = 0
}

func (iw *imageWriter) u64(v uint64) {
	if iw.n+8 > len(iw.buf) {
		iw.flush()
	}
	binary.LittleEndian.PutUint64(iw.buf[iw.n:], v)
	iw.n += 8
}

func (iw *imageWriter) item(it Item) {
	if iw.n+slotLen > len(iw.buf) {
		iw.flush()
	}
	binary.LittleEndian.PutUint64(iw.buf[iw.n:], uint64(it.Key))
	binary.LittleEndian.PutUint64(iw.buf[iw.n+8:], uint64(it.Val))
	iw.n += slotLen
}

// gap writes the given number of empty (all-zero) slots.
func (iw *imageWriter) gap(slots int) {
	for left := slots * slotLen; left > 0; {
		if iw.n == len(iw.buf) {
			iw.flush()
		}
		c := min(left, len(iw.buf)-iw.n)
		clear(iw.buf[iw.n : iw.n+c])
		iw.n += c
		left -= c
	}
}

func (iw *imageWriter) header(cfg Config, n, nhat int) {
	iw.n += copy(iw.buf[iw.n:], imageMagic[:])
	iw.u64(math.Float64bits(cfg.C1))
	iw.u64(math.Float64bits(cfg.CL))
	iw.u64(uint64(cfg.MinTreeNhat))
	iw.u64(uint64(n))
	iw.u64(uint64(nhat))
}

// tree writes a tree's nodes as they lie in memory: physical (vEB)
// order, so the on-disk representation is the in-memory one exactly.
func (iw *imageWriter) tree(phys []int64) {
	for _, v := range phys {
		iw.u64(uint64(v))
	}
}

// finish flushes the body, appends its checksum, and reports the total
// written and the first error.
func (iw *imageWriter) finish() (int64, error) {
	iw.flush()
	sum := iw.crc
	binary.LittleEndian.PutUint32(iw.buf, sum)
	iw.n = 4
	iw.flush()
	return iw.written, iw.err
}

// WriteTo serializes the PMA's exact memory representation. It
// implements io.WriterTo.
func (p *PMA) WriteTo(w io.Writer) (int64, error) {
	iw := newImageWriter(w, imageLen(p.h, p.leafSlots), nil)
	iw.header(p.cfg, p.n, p.nhat)
	// The array, verbatim: occupied slots and zeroed gaps alike.
	for _, it := range p.slots {
		iw.item(it)
	}
	iw.tree(p.ranks.Physical())
	iw.tree(p.keys.Physical())
	return iw.finish()
}

// WriteCanonical writes the image of the PMA that
// BulkLoadWithConfig(cfg, items, seed, nil) builds — the same bytes its
// WriteTo writes — without building it. The layout is a pure function
// of (sorted contents, N̂, balance elements): N̂ and the balance ranks
// are drawn from the seed in the order the bulk load draws them (node
// before children, left before right), which is also the order that
// meets the leaves left to right, so each leaf is spread (Lemma 9)
// straight into the output while the two trees fill in physical order
// on the side. Memory is the trees plus one fixed scratch; items is
// only read.
func WriteCanonical(cfg Config, items []Item, seed uint64, w io.Writer) (int64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	rng := xrand.New(seed)
	nhat := hialloc.NewSizer(len(items), rng.Split()).Size()
	sc, _ := canonPool.Get().(*canonScratch)
	if sc == nil {
		sc = new(canonScratch)
	}
	defer canonPool.Put(sc)
	e := emitter{rng: rng}
	e.h, e.leafSlots, e.cand = cfg.geometry(nhat)
	e.out = newImageWriter(w, imageLen(e.h, e.leafSlots), sc.buf)
	sc.buf = e.out.buf
	e.layout = veb.For(e.h + 1)
	nodes := e.layout.NumNodes()
	if cap(sc.trees) < 2*nodes {
		sc.trees = make([]int64, 2*nodes)
	}
	trees := sc.trees[:2*nodes]
	clear(trees) // leaves carry no balance key: theirs stay zero
	e.ranks, e.keys = trees[:nodes], trees[nodes:]

	e.out.header(cfg, len(items), nhat)
	e.emit(1, 0, items)
	e.out.tree(trees)
	return e.out.finish()
}

// canonScratch is WriteCanonical's working memory beside its output:
// the two trees under construction and the staging buffer. Renders
// recycle it through canonPool, so a checkpoint rendering shard after
// shard allocates it about once instead of once per image.
type canonScratch struct {
	trees []int64
	buf   []byte
}

var canonPool sync.Pool

// emitter is WriteCanonical's state: the geometry, the random stream,
// the two trees under construction and the output.
type emitter struct {
	rng          *xrand.Source
	h, leafSlots int
	cand         []int
	layout       *veb.Layout
	ranks, keys  []int64 // physical order
	out          *imageWriter
}

// emit lays out elems under the node at bfs/depth exactly as
// rebuildRange does: count, balance draw, left subtree, right subtree.
func (e *emitter) emit(bfs, depth int, elems []Item) {
	phys := e.layout.Phys(bfs)
	e.ranks[phys] = int64(len(elems))
	if depth == e.h {
		e.leaf(elems)
		return
	}
	rho, key := 0, int64(noKey)
	if l := len(elems); l > 0 {
		s0, m := middleWindow(l, e.cand[depth])
		rho = s0 + e.rng.Intn(m)
		if rho < l {
			key = elems[rho].Key
		}
	}
	e.keys[phys] = key
	e.emit(2*bfs, depth+1, elems[:rho])
	e.emit(2*bfs+1, depth+1, elems[rho:])
}

// leaf writes one leaf's slots: elems at their canonical spread
// positions, by the same quotient/remainder stepping as writeLeaf, with
// zeroed gaps between them.
func (e *emitter) leaf(elems []Item) {
	S := e.leafSlots
	if len(elems) > S {
		panic(fmt.Sprintf("hipma: leaf overflow: %d elements, %d slots", len(elems), S))
	}
	next := 0 // first slot not yet written
	if n := len(elems); n > 0 {
		den := 2 * n
		pos, rem := S/den, S%den
		stepQ, stepR := 2*S/den, 2*S%den
		for _, v := range elems {
			e.out.gap(pos - next)
			e.out.item(v)
			next = pos + 1
			pos += stepQ
			rem += stepR
			if rem >= den {
				pos++
				rem -= den
			}
		}
	}
	e.out.gap(S - next)
}

// ReadBounded appends the next size bytes of r to buf and returns it.
// size comes from an untrusted header or length prefix, so space is
// reserved at most streamReserve ahead of the bytes that have actually
// arrived: a short or lying stream cannot cost more memory than that.
func ReadBounded(r io.Reader, size int64, buf []byte) ([]byte, error) {
	const streamReserve = 1 << 20
	for end := int64(len(buf)) + size; int64(len(buf)) < end; {
		step := int(min(end-int64(len(buf)), streamReserve))
		buf = slices.Grow(buf, step)
		n, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+n]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// ReadImage reads one PMA image from r — exactly its bytes, no
// read-ahead, so images may follow one another on a stream — and
// decodes it with DecodeImage.
func ReadImage(r io.Reader, seed uint64, io2 *iomodel.Tracker) (*PMA, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("hipma: reading header: %w", err)
	}
	cfg, _, nhat, err := decodeHeader(hdr)
	if err != nil {
		return nil, err
	}
	size := ImageSize(cfg, nhat)
	if size < 0 {
		return nil, fmt.Errorf("hipma: implausible geometry in image header (Nhat %d)", nhat)
	}
	img, err := ReadBounded(r, size-headerLen, hdr)
	if err != nil {
		return nil, fmt.Errorf("hipma: reading image body (%d of %d bytes): %w", len(img), size, err)
	}
	return DecodeImage(img, seed, io2)
}

// decodeHeader parses and validates an image's fixed header.
func decodeHeader(b []byte) (cfg Config, n, nhat int, err error) {
	if len(b) < headerLen {
		return cfg, 0, 0, fmt.Errorf("hipma: image of %d bytes is shorter than its header", len(b))
	}
	if [8]byte(b[:8]) != imageMagic {
		return cfg, 0, 0, fmt.Errorf("hipma: bad magic %q", b[:8])
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8+8*i:]) }
	cfg = Config{
		C1:          math.Float64frombits(word(0)),
		CL:          math.Float64frombits(word(1)),
		MinTreeNhat: int(int64(word(2))),
	}
	if err := cfg.validate(); err != nil {
		return cfg, 0, 0, err
	}
	n, nhat = int(int64(word(3))), int(int64(word(4)))
	if n < 0 {
		return cfg, 0, 0, fmt.Errorf("hipma: negative n %d in image", n)
	}
	// A plausibility ceiling keeps the geometry arithmetic far from
	// overflow on a hostile header; real images are nowhere near.
	if n > 1<<48 {
		return cfg, 0, 0, fmt.Errorf("hipma: implausible n %d in image", n)
	}
	switch {
	case n == 0 && nhat != 0, n == 1 && nhat != 1:
		return cfg, 0, 0, fmt.Errorf("hipma: Nhat %d invalid for n=%d", nhat, n)
	case n >= 2 && (nhat < n || nhat > 2*n-1):
		return cfg, 0, 0, fmt.Errorf("hipma: Nhat %d outside [n, 2n-1] for n=%d", nhat, n)
	}
	return cfg, n, nhat, nil
}

// DecodeImage deserializes a PMA from img, which must be exactly one
// image. The header fixes the image's length, so the length is checked
// — and then the checksum — before anything is allocated: a hostile
// header cannot cost more memory than the bytes that actually arrived.
// The seed supplies fresh randomness for all future operations — weak
// history independence is preserved because the persisted state's
// distribution depends only on the logical state, and future coins are
// independent of the past. io may be nil. The structural invariants are
// verified before the PMA is returned.
func DecodeImage(img []byte, seed uint64, io2 *iomodel.Tracker) (*PMA, error) {
	cfg, n, nhat, err := decodeHeader(img)
	if err != nil {
		return nil, err
	}
	if want := ImageSize(cfg, nhat); want != int64(len(img)) {
		return nil, fmt.Errorf("hipma: image is %d bytes, its header implies %d", len(img), want)
	}
	body := img[:len(img)-4]
	if stored, sum := binary.LittleEndian.Uint32(img[len(body):]), crc32.ChecksumIEEE(body); stored != sum {
		return nil, fmt.Errorf("hipma: checksum mismatch: image %08x, computed %08x", stored, sum)
	}

	p := &PMA{cfg: cfg, rng: xrand.New(seed), io: io2, nhat: nhat, n: n}
	if p.sizer, err = hialloc.RestoreSizer(n, nhat, p.rng.Split()); err != nil {
		return nil, err
	}
	p.h, p.leafSlots, p.cand = cfg.geometry(nhat)
	ns := (1 << uint(p.h)) * p.leafSlots
	p.slots = make([]Item, ns)
	raw := body[headerLen:]
	for i := range p.slots {
		p.slots[i] = Item{
			Key: int64(binary.LittleEndian.Uint64(raw[slotLen*i:])),
			Val: int64(binary.LittleEndian.Uint64(raw[slotLen*i+8:])),
		}
	}
	raw = raw[slotLen*ns:]
	layout := veb.For(p.h + 1)
	p.ranks = veb.NewTree(layout, int64(ns), io2)
	p.keys = veb.NewTree(layout, int64(ns)+int64(layout.NumNodes()), io2)
	for _, t := range []*veb.Tree{p.ranks, p.keys} {
		phys := t.Physical()
		for i := range phys {
			phys[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		raw = raw[8*len(phys):]
	}
	if err := p.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("hipma: corrupt image: %w", err)
	}
	return p, nil
}
