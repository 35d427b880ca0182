package shard

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/cobt"
	"repro/internal/hipma"
	"repro/internal/iomodel"
)

// Disk image: a fixed header followed by each shard's canonical image,
// length-prefixed, in shard order.
//
//	magic   [8]byte  "ASHARD02"
//	shards  uint64   power of two >= 1
//	hseed   uint64   routing seed (needed to route lookups after a load)
//	per shard: len uint64, then len bytes of the shard's canonical image
//
// A shard's canonical image is a pair of PMA images (each carrying its
// own checksum, see hipma.WriteTo): the data dictionary, then the TTL
// expiry index (key -> absolute expiry for exactly the keys that have
// one; empty when no TTLs are in play). The data image is length-
// prefixed (u64 little-endian); the prefix is redundant with the data
// image's own header and is checked against it on load.
//
// The persisted shard images are CANONICAL: WriteTo does not dump the
// in-memory incarnation (whose layout depends on the random stream the
// update history happened to consume — history independent only in
// distribution). Each image instead EQUALS the image of a fresh bulk
// load of the shard's sorted contents under a seed derived from (hseed,
// shard index) — but no second PMA is built to obtain it: the layout is
// a pure function of (sorted contents, N̂, balance elements), so
// hipma.WriteCanonical emits it in one pass over the sorted items, and
// its length is known (hipma.CanonicalSize) before a byte is written.
// The byte stream is therefore a pure function of the store's contents
// and its persisted randomness: two stores with the same seed and the
// same (key, value, expiry) set produce byte-identical images for every
// shard, whatever operation sequences built them — including whatever
// schedule of TTL sweeps physically removed their dead entries. That is
// the paper's anti-persistence goal stated at the layer the observer
// actually sees — the disk.
const storeMagic = "ASHARD02"

// maxImageShards bounds the shard count accepted from an untrusted
// image, so a corrupt header cannot drive a huge allocation (the cell
// slice is allocated before any shard data is read).
const maxImageShards = 1 << 16

// canonSeed derives shard i's canonical-image seed from the persisted
// routing seed, so the canonical image survives save/load round trips.
func canonSeed(hseed uint64, i int) uint64 {
	return mix((hseed ^ 0xbadc0ffee0ddf00d) + 0x9e3779b97f4a7c15*uint64(i))
}

// canonExpSeed derives shard i's canonical expiry-index seed, a stream
// independent of the data image's but equally a pure function of the
// persisted routing seed.
func canonExpSeed(hseed uint64, i int) uint64 {
	return mix(canonSeed(hseed, i) ^ 0x7ee150deadc0ffee)
}

// snapshot is one shard's sorted contents copied out of its
// dictionaries: what a canonical image is rendered from once the
// shard's lock has been released. Stores recycle them through snapPool.
type snapshot struct {
	data, exps []Item
}

// capture copies c's two sorted item runs into sn, reusing its capacity
// when it suffices and otherwise allocating exactly the runs' lengths —
// never regrowing by appends, which would allocate about twice what a
// run holds whenever the pool comes back empty. The caller holds c's
// lock.
func (sn *snapshot) capture(c *cell) {
	sn.data = c.dict.PMA().AppendAll(sized(sn.data, c.dict.Len()))
	sn.exps = c.exps.PMA().AppendAll(sized(sn.exps, c.exps.Len()))
}

// sized returns an empty slice with room for n items: buf's, if it has
// the room.
func sized(buf []Item, n int) []Item {
	if cap(buf) < n {
		return make([]Item, 0, n)
	}
	return buf[:0]
}

func (s *Store) getSnapshot() *snapshot {
	if sn, ok := s.snapPool.Get().(*snapshot); ok {
		return sn
	}
	return new(snapshot)
}

// shardImageSize returns the length of shard i's canonical image when
// it holds nData entries, nExps of them with an expiry: the data-part
// length prefix plus the two PMA images.
func shardImageSize(cfg hipma.Config, hseed uint64, i, nData, nExps int) (data, total int64) {
	data = hipma.CanonicalSize(cfg, nData, canonSeed(hseed, i))
	return data, 8 + data + hipma.CanonicalSize(cfg, nExps, canonExpSeed(hseed, i))
}

// ShardImageSize returns the length SnapshotShard's image of shard i
// would have for the shard's current contents: what a checkpointer
// sizes its staging buffer by.
func (s *Store) ShardImageSize(i int) int64 {
	c := &s.cells[i]
	c.rlock()
	nData, nExps := c.dict.Len(), c.exps.Len()
	c.runlock()
	_, total := shardImageSize(s.cfg, s.hseed, i, nData, nExps)
	return total
}

// canonicalShardImage writes shard i's canonical image for the captured
// contents: the data dictionary's canonical image, length-prefixed,
// followed by the expiry index's. Every length is computed up front, so
// nothing is staged. No lock is needed — sn is a private copy.
func canonicalShardImage(sn *snapshot, cfg hipma.Config, hseed uint64, i int, w io.Writer) (int64, error) {
	dataLen, _ := shardImageSize(cfg, hseed, i, len(sn.data), len(sn.exps))
	var lenHdr [8]byte
	binary.LittleEndian.PutUint64(lenHdr[:], uint64(dataLen))
	n, err := w.Write(lenHdr[:])
	written := int64(n)
	if err != nil {
		return written, err
	}
	n64, err := hipma.WriteCanonical(cfg, sn.data, canonSeed(hseed, i), w)
	written += n64
	if err != nil {
		return written, err
	}
	n64, err = hipma.WriteCanonical(cfg, sn.exps, canonExpSeed(hseed, i), w)
	return written + n64, err
}

// decodeShardImage decodes one shard's canonical image pair — img must
// be exactly that — returning the data dictionary and the expiry index.
// Each part's own header fixes its length (hipma.DecodeImage), so a
// wrong prefix, a short image or trailing bytes all fail before any
// slot array is allocated.
func decodeShardImage(img []byte, seed uint64, i int, t *iomodel.Tracker) (dict, exps *cobt.Dictionary, err error) {
	if len(img) < 8 {
		return nil, nil, fmt.Errorf("image of %d bytes has no data image length", len(img))
	}
	dataLen := binary.LittleEndian.Uint64(img)
	if dataLen > uint64(len(img)-8) {
		return nil, nil, fmt.Errorf("data image length %d exceeds the %d-byte image", dataLen, len(img))
	}
	dict, err = cobt.DecodeDictionary(img[8:8+dataLen], shardSeed(seed, i), t)
	if err != nil {
		return nil, nil, err
	}
	exps, err = cobt.DecodeDictionary(img[8+dataLen:], expShardSeed(seed, i), nil)
	if err != nil {
		return nil, nil, fmt.Errorf("expiry index: %w", err)
	}
	return dict, exps, nil
}

// WriteTo serializes the whole store. It holds every shard's lock, so
// the image is an atomic snapshot. It implements io.WriterTo.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	s.lockAllShared()
	defer s.unlockAllShared()
	var hdr [24]byte
	copy(hdr[:8], storeMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(s.cells)))
	binary.LittleEndian.PutUint64(hdr[16:], s.hseed)
	total := int64(0)
	n, err := w.Write(hdr[:])
	total += int64(n)
	if err != nil {
		return total, err
	}
	sn := s.getSnapshot()
	defer s.snapPool.Put(sn)
	for i := range s.cells {
		sn.capture(&s.cells[i])
		var lenHdr [8]byte
		_, size := shardImageSize(s.cfg, s.hseed, i, len(sn.data), len(sn.exps))
		binary.LittleEndian.PutUint64(lenHdr[:], uint64(size))
		n, err := w.Write(lenHdr[:])
		total += int64(n)
		if err != nil {
			return total, err
		}
		n64, err := canonicalShardImage(sn, s.cfg, s.hseed, i, w)
		total += n64
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// WriteShard serializes shard i's canonical image alone (no container
// header): a pure function of the shard's contents and the store seed,
// byte-identical across any two operation histories that reach the same
// contents.
func (s *Store) WriteShard(i int, w io.Writer) (int64, error) {
	_, written, err := s.SnapshotShard(i, w)
	return written, err
}

// SnapshotShard writes shard i's canonical image to w, like WriteShard,
// and additionally returns the shard's version counter at the moment of
// the snapshot. The version is captured and the shard's sorted contents
// are copied out under one hold of the shard's read lock — held for
// that copy only; the image is rendered from the copy after the lock is
// released, so writers wait for a memcpy, never for a render. A later
// ShardVersion(i) == version therefore guarantees the image still
// describes the shard's exact contents — the contract an incremental
// checkpointer needs.
func (s *Store) SnapshotShard(i int, w io.Writer) (version uint64, written int64, err error) {
	if i < 0 || i >= len(s.cells) {
		return 0, 0, fmt.Errorf("shard: SnapshotShard(%d) out of range, %d shards", i, len(s.cells))
	}
	sn := s.getSnapshot()
	defer s.snapPool.Put(sn)
	c := &s.cells[i]
	c.rlock()
	version = c.version
	sn.capture(c)
	c.runlock()
	written, err = canonicalShardImage(sn, s.cfg, s.hseed, i, w)
	return version, written, err
}

// AssembleStore rebuilds a store of nsh shards (a power of two >= 1)
// from one canonical image per shard (as produced by WriteShard or
// SnapshotShard) plus the persisted routing seed. It is the one loader
// of the durable layer: the manifest carries hseed and the shard count,
// and image(i) supplies shard i's bytes — exactly its image — from a
// file or a peer. image is called once per shard, in shard order, and
// its result is decoded into the shard's slot before the next call and
// never retained, so the caller may hand back the same buffer every
// time: no more than one image is held at once. trackers must be nil or
// hold one tracker per shard. The caller's seed supplies fresh
// randomness for future operations. Every dictionary's invariants are
// verified as it is decoded, then the store's routing and TTL
// invariants. The returned store has no clock; the caller attaches one
// with SetClock before sharing it.
func AssembleStore(hseed uint64, nsh int, image func(i int) ([]byte, error), seed uint64, trackers []*iomodel.Tracker) (*Store, error) {
	if nsh < 1 || nsh&(nsh-1) != 0 {
		return nil, fmt.Errorf("shard: %d shard images is not a power of two >= 1", nsh)
	}
	if trackers != nil && len(trackers) != nsh {
		return nil, fmt.Errorf("shard: %d trackers for %d shard images", len(trackers), nsh)
	}
	s := &Store{mask: uint64(nsh - 1), hseed: hseed, cells: make([]cell, nsh)}
	for i := range s.cells {
		img, err := image(i)
		if err != nil {
			return nil, err
		}
		if err := s.loadCell(i, img, seed, trackers); err != nil {
			return nil, err
		}
	}
	return s.loaded()
}

// loadCell decodes shard i's image into its cell.
func (s *Store) loadCell(i int, img []byte, seed uint64, trackers []*iomodel.Tracker) error {
	var t *iomodel.Tracker
	if trackers != nil {
		t = trackers[i]
	}
	d, e, err := decodeShardImage(img, seed, i, t)
	if err != nil {
		return fmt.Errorf("shard: shard %d: %w", i, err)
	}
	s.cells[i].dict, s.cells[i].exps, s.cells[i].io = d, e, t
	return nil
}

// loaded finishes a store whose every cell was just decoded — so every
// dictionary has already passed its own invariants — by checking what
// only the store can: routing and the TTL index.
func (s *Store) loaded() (*Store, error) {
	s.cfg = s.cells[0].dict.PMA().Config()
	for i := range s.cells {
		if err := s.checkRouting(i); err != nil {
			return nil, fmt.Errorf("shard: corrupt image: %w", err)
		}
	}
	return s, nil
}

// ReadStore deserializes a store image produced by WriteTo. The routing
// seed is part of the image (lookups must keep routing to the shards
// that hold the keys); the caller's seed supplies only fresh randomness
// for future per-shard operations. trackers must be nil or hold one
// tracker per stored shard. Shard, routing, and TTL invariants are
// verified.
func ReadStore(r io.Reader, seed uint64, trackers []*iomodel.Tracker) (*Store, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("shard: reading header: %w", err)
	}
	if string(hdr[:8]) != storeMagic {
		return nil, fmt.Errorf("shard: bad magic %q", hdr[:8])
	}
	nsh64 := binary.LittleEndian.Uint64(hdr[8:])
	hseed := binary.LittleEndian.Uint64(hdr[16:])
	if nsh64 < 1 || nsh64 > maxImageShards || nsh64&(nsh64-1) != 0 {
		return nil, fmt.Errorf("shard: implausible shard count %d", nsh64)
	}
	nsh := int(nsh64)
	if trackers != nil && len(trackers) != nsh {
		return nil, fmt.Errorf("shard: %d trackers for %d stored shards", len(trackers), nsh)
	}
	s := &Store{mask: nsh64 - 1, hseed: hseed, cells: make([]cell, nsh)}
	var img []byte
	for i := 0; i < nsh; i++ {
		var lenHdr [8]byte
		if _, err := io.ReadFull(r, lenHdr[:]); err != nil {
			return nil, fmt.Errorf("shard: reading shard %d length: %w", i, err)
		}
		// The prefix is untrusted: ReadBounded reserves only a bounded
		// distance ahead of the bytes that actually arrive.
		imgLen := int64(binary.LittleEndian.Uint64(lenHdr[:]))
		if imgLen < 0 {
			return nil, fmt.Errorf("shard: shard %d: implausible image length", i)
		}
		var err error
		if img, err = hipma.ReadBounded(r, imgLen, img[:0]); err != nil {
			return nil, fmt.Errorf("shard: reading shard %d: %w", i, err)
		}
		if err := s.loadCell(i, img, seed, trackers); err != nil {
			return nil, err
		}
	}
	return s.loaded()
}
