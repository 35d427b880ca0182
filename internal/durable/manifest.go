package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/namespace"
	"repro/internal/shard"
)

// The manifest is the database's single commit record. It is
// deliberately free of anything history-shaped: no generation counter,
// no timestamps, no log sequence numbers — every field is a pure
// function of the store's current contents and its persisted seed, so
// the manifest bytes themselves are canonical (two databases with the
// same seed and the same per-keyspace key-value sets have byte-identical
// manifests, whatever operation sequences, checkpoint schedules, or
// tenant creation/drop histories produced them).
//
//	magic    [8]byte  "HIDBMF03"
//	shards   uint64   power of two >= 1; every cell has this many
//	hseed    uint64   root routing seed (mixed), restored verbatim on open
//	cells    uint64   committed cells, >= 1
//	per cell, byte-sorted by name (canonical order — never creation
//	order, so the record encodes nothing about when tenants arrived).
//	The default keyspace is the cell named "": it sorts first and is
//	always present.
//	    nameLen uint64, name [nameLen]byte
//	    per shard: size uint64, sha256 [32]byte of the shard image file
//	crc32    uint32   IEEE, over everything above
//
// A tenant's routing seed is NOT stored: it is recomputed as
// MixSeed(DeriveSeed(hseed, name)), so the derivation invariant holds
// by construction — a manifest cannot describe a tenant cell filed
// under anything but its derived seed. A tenant whose cell is
// physically empty at checkpoint time is excluded entirely:
// created-then-emptied is byte-identical to never-existed.
//
// Shard image files are content-addressed — imageFileName derives the
// name from the cell's routing seed and the image hash, never from a
// tenant name — so a crash can never leave a half-written file under a
// name the manifest already trusts: the manifest swap is the only
// commit point.
const manifestMagic = "HIDBMF03"

// manifestName is the manifest's filename inside a DB directory.
const manifestName = "MANIFEST"

// maxManifestShards bounds the shard count accepted from an untrusted
// manifest so a corrupt header cannot drive a huge allocation.
const maxManifestShards = 1 << 16

// maxManifestCells bounds the cell count the same way.
const maxManifestCells = 1 << 16

// imageEntry describes one committed shard image file: its size and
// SHA-256 (the type lives beside the cells that carry it).
type imageEntry = namespace.Image

// cellEntry describes one committed keyspace: its name ("" for the
// default keyspace) and one image entry per shard. A tenant's name
// appears here and nowhere else on disk — dropping the tenant
// atomically replaces the manifest, so the name vanishes with the
// commit.
type cellEntry struct {
	name   string
	shards []imageEntry
}

// manifest is the decoded commit record. cells is byte-sorted by name,
// so cells[0] is the default keyspace.
type manifest struct {
	hseed uint64
	cells []cellEntry
}

// cell returns the entry for name, or nil.
func (m *manifest) cell(name string) *cellEntry {
	for i := range m.cells {
		if m.cells[i].name == name {
			return &m.cells[i]
		}
	}
	return nil
}

// cellSeed returns the routing seed of the cell called name: the
// persisted root seed for the default keyspace, the one-way derivation
// from it for a tenant.
func (m *manifest) cellSeed(name string) uint64 {
	if name == "" {
		return m.hseed
	}
	return shard.MixSeed(namespace.DeriveSeed(m.hseed, name))
}

// imageFileName returns the name of a cell's shard i image. It is a
// pure function of (cell routing seed, index, image bytes): the
// directory listing leaks nothing beyond the contents, a tenant's name
// never reaches it, and the derived seed is one-way, so co-tenants
// scanning file names learn nothing.
func imageFileName(hseed uint64, i int, hash [32]byte) string {
	return fmt.Sprintf("shard-%016x-%04d-%016x.img", hseed, i, binary.BigEndian.Uint64(hash[:8]))
}

// encode renders the manifest with its trailing checksum.
func (m *manifest) encode() []byte {
	n := 8 + 8 + 8 + 8
	for _, e := range m.cells {
		n += 8 + len(e.name) + len(e.shards)*40
	}
	buf := make([]byte, 0, n+4)
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(m.cells[0].shards)))
	buf = binary.LittleEndian.AppendUint64(buf, m.hseed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(m.cells)))
	for _, e := range m.cells {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(e.name)))
		buf = append(buf, e.name...)
		for _, s := range e.shards {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Size))
			buf = append(buf, s.Hash[:]...)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeManifest parses and verifies a manifest image. The bytes may be
// hostile — replicas decode manifests fetched from a peer — so both
// counts are checked against the bytes that actually arrived before
// anything is sized by them, and only the canonical encoding is
// accepted: whatever decodes re-encodes to the identical bytes.
func decodeManifest(b []byte) (*manifest, error) {
	if len(b) < 8+8+8+8+4 {
		return nil, fmt.Errorf("durable: manifest too short (%d bytes)", len(b))
	}
	if string(b[:8]) != manifestMagic {
		return nil, fmt.Errorf("durable: bad manifest magic %q", b[:8])
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("durable: manifest checksum mismatch: stored %08x, computed %08x", sum, got)
	}
	rest := body[32:]
	nsh := binary.LittleEndian.Uint64(b[8:16])
	if nsh < 1 || nsh > maxManifestShards || nsh&(nsh-1) != 0 {
		return nil, fmt.Errorf("durable: implausible shard count %d in manifest", nsh)
	}
	// Every cell takes a name length and nsh 40-byte entries at least.
	cnt := binary.LittleEndian.Uint64(b[24:32])
	if cnt < 1 || cnt > maxManifestCells || cnt > uint64(len(rest))/(8+40*nsh) {
		return nil, fmt.Errorf("durable: implausible cell count %d in a %d-byte manifest of %d shards", cnt, len(b), nsh)
	}
	m := &manifest{hseed: binary.LittleEndian.Uint64(b[16:24]), cells: make([]cellEntry, cnt)}
	take := func(n int, what string) ([]byte, error) {
		if len(rest) < n {
			return nil, fmt.Errorf("durable: manifest truncated reading %s", what)
		}
		out := rest[:n]
		rest = rest[n:]
		return out, nil
	}
	for k := range m.cells {
		lb, err := take(8, "cell name length")
		if err != nil {
			return nil, err
		}
		nl := binary.LittleEndian.Uint64(lb)
		if nl > namespace.MaxName {
			return nil, fmt.Errorf("durable: implausible cell name length %d in manifest", nl)
		}
		nb, err := take(int(nl), "cell name")
		if err != nil {
			return nil, err
		}
		name := string(nb)
		// Strictly ascending names with "" first: the default keyspace
		// is present exactly once, and every later name is a tenant's.
		if k == 0 && name != "" {
			return nil, fmt.Errorf("durable: manifest does not start with the default keyspace")
		}
		if k > 0 {
			if err := namespace.ValidateName(name); err != nil {
				return nil, fmt.Errorf("durable: manifest cell %d: %w", k, err)
			}
			if m.cells[k-1].name >= name {
				return nil, fmt.Errorf("durable: manifest cells not in canonical order at %q", name)
			}
		}
		m.cells[k] = cellEntry{name: name, shards: make([]imageEntry, nsh)}
		for i := range m.cells[k].shards {
			e, err := take(40, "shard table")
			if err != nil {
				return nil, err
			}
			size := int64(binary.LittleEndian.Uint64(e))
			if size < 0 {
				return nil, fmt.Errorf("durable: negative size in cell %d shard entry %d", k, i)
			}
			m.cells[k].shards[i].Size = size
			copy(m.cells[k].shards[i].Hash[:], e[8:40])
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("durable: %d trailing bytes in manifest", len(rest))
	}
	return m, nil
}
