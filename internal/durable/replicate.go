package durable

// Replication surface: a committed checkpoint is its manifest. The
// manifest is canonical and lists every image file by SHA-256, so its
// own SHA-256 names the checkpoint, and the whole checkpoint is a set of
// content-addressed blobs: OpenBlob exports any one of them by hash,
// range by range, and Install takes a manifest plus a way to fetch the
// blobs it names.
//
// Because every shard image is a pure function of (contents, seed),
// replication needs no operation log — an oplog would be an operation
// history, the exact artifact this system keeps off the disk. After a
// successful install the replica's directory is byte-identical to the
// primary's checkpoint: same manifest bytes, same content-addressed
// file names, same image bytes.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"repro/internal/namespace"
)

// ErrStale is returned by OpenBlob and BlobReader.ReadAt when the
// committed checkpoint names no blob with the requested hash —
// typically because a newer checkpoint superseded the one the caller is
// fetching. The caller should start over from the current manifest.
var ErrStale = errors.New("durable: no blob of the committed checkpoint has that hash")

// BlobReader reads one blob of the committed checkpoint — the
// manifest's own encoding, or an image file the manifest names — by
// range, straight from the committed file into the caller's buffer: no
// copy of the blob is ever held. It is not safe for concurrent use; a
// server keeps one per fetch stream.
type BlobReader struct {
	db   *DB
	hash [32]byte
	size int64
	gen  uint64 // db.fileGen when the blob was last found committed
	f    File   // the image file (nil: the blob is the manifest)
}

// OpenBlob opens the blob of the committed checkpoint whose SHA-256 is
// hash: the manifest's own encoding (the hash CheckpointStamp reports),
// or an image file the manifest names. Any other hash fails with
// ErrStale. An image file's size and SHA-256 are checked against the
// manifest before the reader is returned — one pass through a fixed
// scratch — so a file that rotted on disk is refused, never served.
func (db *DB) OpenBlob(hash [32]byte) (*BlobReader, error) {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	r := &BlobReader{db: db, hash: hash}
	if err := r.open(); err != nil {
		return nil, err
	}
	return r, nil
}

// open binds r to the committed blob named r.hash, (re)opening and
// verifying its file. Only success records the generation, so a reader
// that failed tries again on its next read. Caller holds cpMu.
func (r *BlobReader) open() error {
	db := r.db
	r.Close()
	if r.hash == *db.manHash.Load() { // never nil: Open commits or recovers a manifest
		r.size, r.gen = int64(len(db.manBytes)), db.fileGen
		return nil
	}
	name, idx, size, ok := db.committedImage(r.hash)
	if !ok {
		return ErrStale
	}
	f, _, err := db.openSized(name, size)
	if err != nil {
		return fmt.Errorf("durable: shard %d image: %w", idx, err)
	}
	h := sha256.New()
	var sum [sha256.Size]byte
	if err := hashFrom(f, size, h, db.hashBuf); err != nil {
		f.Close()
		return fmt.Errorf("durable: shard %d image: %w", idx, err)
	}
	if [32]byte(h.Sum(sum[:0])) != r.hash {
		f.Close()
		return fmt.Errorf("durable: shard %d image corrupt on disk", idx)
	}
	r.f, r.size, r.gen = f, size, db.fileGen
	return nil
}

// committedImage looks hash up among the image files the committed
// manifest names. Caller holds cpMu.
func (db *DB) committedImage(hash [32]byte) (name string, idx int, size int64, ok bool) {
	for _, e := range db.man.cells {
		for i, se := range e.shards {
			if se.Hash == hash {
				return imageFileName(db.man.cellSeed(e.name), i, hash), i, se.Size, true
			}
		}
	}
	return "", 0, 0, false
}

// Hash returns the SHA-256 that names the blob.
func (r *BlobReader) Hash() [32]byte { return r.hash }

// Size returns the blob's length in bytes.
func (r *BlobReader) Size() int64 { return r.size }

// ReadAt reads len(p) bytes of the blob at offset off, like
// io.ReaderAt. Every read takes the checkpoint lock and first re-checks
// that the blob is still committed, failing with ErrStale once a newer
// checkpoint superseded it. The check is the directory's generation:
// every commit publishes a MANIFEST and every sweep wipes files, and
// both move it, so while it stands still the blob is committed and its
// file is the one r holds; once it moves, r looks the blob up and opens
// and verifies its file again. A sweep therefore never hands a reader
// the zeros it wiped into a file — not even when a later checkpoint
// commits the same blob again under a new file.
func (r *BlobReader) ReadAt(p []byte, off int64) (int, error) {
	db := r.db
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	if r.gen != db.fileGen {
		if err := r.open(); err != nil {
			return 0, err
		}
	}
	if off < 0 || off > r.size {
		return 0, fmt.Errorf("durable: offset %d outside the %d-byte blob", off, r.size)
	}
	want := len(p)
	p = p[:min(int64(want), r.size-off)]
	var n int
	var err error
	if r.f == nil {
		n = copy(p, db.manBytes[off:])
	} else {
		n, err = r.f.ReadAt(p, off)
	}
	if err == nil && n < want {
		err = io.EOF
	}
	return n, err
}

// Close releases the reader's file.
func (r *BlobReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// Install replaces the database's entire state — in memory and on disk
// — with the checkpoint manifestBytes describes: a manifest exactly as
// another node committed it (the blob that node's CheckpointStamp hash
// names; Install keeps the slice). It is decoded by the decoder
// recovery uses, which trusts nothing, and loaded by the loader
// recovery uses (loadCells): an image already on local disk with the
// right size and hash is used where it lies, never rewritten; every
// other one comes from fetch, is verified, and is staged under its
// content-addressed name. fetch(dst, hash, size) appends the blob to dst
// and returns the result: dst is the install's one image buffer, the
// one local images are read into too, so an install holds one image at
// a time wherever its images come from. Tenants the manifest does not
// name are dropped — the sweep wipes their files, so a replica tracks
// the primary's tenant erasures byte for byte.
//
// Nothing is committed unless every cell decoded and passed its
// structural, routing and derived-seed checks; a failure before that
// wipes what was staged. Publication follows the standard atomic commit
// sequence (content-addressed image files → dir fsync → manifest swap →
// dir fsync), so a crash at any step recovers to either the old or the
// new checkpoint, never a mix. Installing the checkpoint already
// committed touches nothing, unless a failed attempt left files behind
// (see clearDebris).
//
// This is the read-replica install path, and only a replica takes it: on
// a primary Install touches nothing and fails with ErrNotReplica. The
// role is read under the checkpoint lock, held from there to the end, so
// an install and a promotion never overlap — Promote waits for the
// install to land whole, and no install starts after it (see Promote).
// Install assumes no concurrent local writers: operations applied
// between the checkpoint's capture and the install are superseded (that
// is the semantics of replacing state). Concurrent readers are safe —
// they keep the snapshot of the live keyspaces they loaded until one
// store publishes the new one. Checkpoints wait: fetch runs under the
// checkpoint lock, so nothing can sweep a staged image before its
// manifest lands.
//
// A cell the install does not change is carried over, not re-decoded:
// the live cell — the same *Store — goes into the new set when it has
// the same name, the manifest keeps the same routing seed and shard
// count, and every shard's committed (hash, size) is the new manifest's
// and still current (its version has not moved since the image was
// captured, so no local write is carried with it). Every other cell is
// re-assembled whole, even when only one of its shards changed. The
// install is still a CONSISTENT cut: a carried cell's contents are
// exactly what the new checkpoint says they are, so the new set is the
// new checkpoint, published with one store — whereas swapping
// dictionaries into a live store shard by shard would let a concurrent
// cross-shard read (Range, Len) observe half of one checkpoint and half
// of another. Install cost therefore follows the cells that changed:
// replicas that need cheaper installs should shard more finely, not
// trade away the snapshot.
func (db *DB) Install(manifestBytes []byte, fetch func(dst []byte, hash [32]byte, size int64) ([]byte, error)) error {
	if db.closed.Load() {
		return ErrClosed
	}
	man, err := decodeManifest(manifestBytes)
	if err != nil {
		return fmt.Errorf("durable: installing checkpoint: %w", err)
	}
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	if !db.replica.Load() {
		return ErrNotReplica
	}
	if bytes.Equal(manifestBytes, db.manBytes) {
		return db.clearDebris()
	}
	var carry *namespace.Set
	if man.hseed == db.man.hseed {
		carry = db.live.Load()
	}
	cells, err := db.loadCells(man, carry, fetch)
	if err != nil {
		db.clearDebris() //nolint:errcheck // best effort: the committed manifest names nothing that was staged
		return fmt.Errorf("durable: installing checkpoint: %w", err)
	}
	if err := db.commitManifest(man, manifestBytes); err != nil {
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
