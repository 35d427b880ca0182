package durable

// Replication surface: export the committed checkpoint as per-shard
// canonical images, and install a checkpoint shipped from elsewhere.
//
// Because every shard image is a pure function of (contents, seed),
// replication needs no operation log — an oplog would be an operation
// history, the exact artifact this system keeps off the disk. A replica
// compares content hashes, fetches only divergent images, and installs
// them through the same atomic commit sequence checkpoints use. After a
// successful install the replica's directory is byte-identical to the
// primary's checkpoint: same manifest bytes, same content-addressed
// file names, same image bytes.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"

	"repro/internal/namespace"
)

// ErrStaleShard is returned by ShardImage when the requested hash is no
// longer the committed image for that shard — a newer checkpoint
// superseded it between the caller's hash fetch and the image fetch.
// The caller should re-fetch the hashes and retry.
var ErrStaleShard = errors.New("durable: shard image superseded by a newer checkpoint")

// ErrNoNamespace is returned when a namespace is absent from the last
// committed checkpoint.
var ErrNoNamespace = errors.New("durable: namespace not committed")

var errNoCheckpoint = errors.New("durable: no committed checkpoint")

// ShardHash describes one shard's committed canonical image file: what
// a manifest records per shard and what a replica compares.
type ShardHash struct {
	Size int64
	Hash [32]byte
}

// committedCell returns the last manifest's entry for keyspace ns ("":
// the default one). Caller holds cpMu.
func (db *DB) committedCell(ns string) (*cellEntry, error) {
	if db.man == nil {
		return nil, errNoCheckpoint
	}
	e := db.man.cell(ns)
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoNamespace, ns)
	}
	return e, nil
}

// ShardHashes returns the routing seed and per-shard canonical image
// hashes of keyspace ns ("": the default one) in the last committed
// checkpoint; a tenant's seed is its derived one. Two databases with
// equal contents and equal seeds return equal hashes for every shard —
// the comparison a replica's anti-entropy round starts with. A tenant
// absent from the last manifest returns ErrNoNamespace.
func (db *DB) ShardHashes(ns string) (hseed uint64, entries []ShardHash, err error) {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	e, err := db.committedCell(ns)
	if err != nil {
		return 0, nil, err
	}
	return db.man.cellSeed(ns), append([]ShardHash(nil), e.shards...), nil
}

// ShardImage returns the committed canonical image of keyspace ns's
// shard i, which must still be the checkpointed one: a hash that is no
// longer current fails with ErrStaleShard (re-fetch ShardHashes and
// retry). The bytes are verified against the manifest hash before they
// are returned, so a corrupted file cannot propagate.
func (db *DB) ShardImage(ns string, i int, hash [32]byte) ([]byte, error) {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	e, err := db.committedCell(ns)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= len(e.shards) {
		return nil, fmt.Errorf("durable: shard %d out of range, %d shards", i, len(e.shards))
	}
	if e.shards[i].Hash != hash {
		return nil, fmt.Errorf("%w: shard %d", ErrStaleShard, i)
	}
	img, err := db.readFile(imageFileName(db.man.cellSeed(ns), i, hash), e.shards[i].Size)
	if err != nil {
		return nil, fmt.Errorf("durable: shard %d image: %w", i, err)
	}
	if sha256.Sum256(img) != hash {
		return nil, fmt.Errorf("durable: shard %d image corrupt on disk", i)
	}
	return img, nil
}

// CellImages is one keyspace's canonical image set — one image per
// shard — as shipped to InstallCheckpoint. Name "" is the default
// keyspace.
type CellImages struct {
	Name   string
	Images [][]byte
}

// InstallCheckpoint replaces the database's entire state — in memory
// and on disk — with the checkpoint described by the root routing seed
// hseed and one image set per committed keyspace: the default keyspace
// (Name "", required) plus every tenant. All sets must hold the same
// power-of-two number of images. Tenants absent from set are dropped —
// the installed manifest omits them and the sweep wipes their files, so
// a replica tracks the primary's tenant erasures byte for byte. Every
// cell is assembled and verified (per-image checksums, structural and
// routing invariants, tenants at their derived seeds) BEFORE anything
// touches the directory; publication then follows the standard atomic
// commit sequence (content-addressed image files → dir fsync → manifest
// swap → dir fsync), so a crash at any step recovers to either the old
// or the new checkpoint, never a mix. Images whose bytes are already
// committed under the same hash are not rewritten.
//
// This is the read-replica install path. It assumes no concurrent local
// writers: operations applied between the images' capture and the
// install are silently superseded (that is the semantics of replacing
// state). Concurrent readers are safe — they keep the store snapshot
// they loaded until the swap publishes the new one.
//
// Every cell is re-assembled even when only a few shards changed. That
// costs O(total contents) per install, but it is what makes every
// install a CONSISTENT cut: swapping dictionaries into the live store
// shard by shard would let a concurrent cross-shard read (Range, Len)
// observe half of one checkpoint and half of another. Replicas that
// need cheaper installs should shard more finely, not trade away the
// snapshot.
func (db *DB) InstallCheckpoint(hseed uint64, set []CellImages) error {
	if db.closed.Load() {
		return ErrClosed
	}
	set = append([]CellImages(nil), set...)
	sort.Slice(set, func(i, j int) bool { return set[i].Name < set[j].Name })
	if len(set) == 0 || set[0].Name != "" {
		return errors.New("durable: installing checkpoint: no default-keyspace image set")
	}
	cells := make([]*namespace.Cell, len(set))
	newMan := &manifest{hseed: hseed, cells: make([]cellEntry, len(set))}
	for k, ci := range set {
		if k > 0 {
			// Sorted, so a duplicate is adjacent — and a second "" fails
			// name validation.
			if err := namespace.ValidateName(ci.Name); err != nil {
				return fmt.Errorf("durable: installing checkpoint: %w", err)
			}
			if set[k-1].Name == ci.Name {
				return fmt.Errorf("durable: installing checkpoint: duplicate namespace %q", ci.Name)
			}
		}
		// The manifest records one shard count for every cell; a set of
		// another size would commit a manifest no Open can decode.
		if len(ci.Images) != len(set[0].Images) {
			return fmt.Errorf("durable: installing checkpoint: keyspace %q has %d shard images, the default keyspace %d",
				ci.Name, len(ci.Images), len(set[0].Images))
		}
		var err error
		if cells[k], err = db.assembleCell(hseed, ci.Name, ci.Images, db.opts.Seed); err != nil {
			return fmt.Errorf("durable: installing checkpoint: %w", err)
		}
		ent := cellEntry{name: ci.Name, shards: make([]ShardHash, len(ci.Images))}
		for i, img := range ci.Images {
			ent.shards[i] = ShardHash{Size: int64(len(img)), Hash: sha256.Sum256(img)}
		}
		newMan.cells[k] = ent
	}

	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	manBytes := newMan.encode()
	if bytes.Equal(manBytes, db.manBytes) {
		// Already exactly this checkpoint; installing again would change
		// no byte on disk. Leave the live store untouched too.
		return nil
	}
	for k, ci := range set {
		// Same root seed means same file names: an image whose hash is
		// already committed at the same index needs no rewrite.
		var prev *cellEntry
		if db.man != nil && db.man.hseed == hseed {
			prev = db.man.cell(ci.Name)
		}
		for i, img := range ci.Images {
			h := newMan.cells[k].shards[i].Hash
			if prev != nil && i < len(prev.shards) && prev.shards[i].Hash == h {
				continue // committed file already has these exact bytes
			}
			if err := db.publishImage(cells[k].Store.RoutingSeed(), i, h, img); err != nil {
				return err
			}
		}
	}
	if err := db.commitManifest(newMan, manBytes); err != nil {
		return err
	}
	// Committed: publish the new state to readers and reset the
	// checkpoint bookkeeping to "clean at exactly this image set".
	db.publish(cells)
	db.dirtyOps.Store(0)
	db.checkpoints.Add(1)
	db.sweep()
	return nil
}
