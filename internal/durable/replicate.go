package durable

// Replication surface: a committed checkpoint is its manifest. The
// manifest is canonical and lists every image file by SHA-256, so its
// own SHA-256 names the checkpoint, and the whole checkpoint is a set of
// content-addressed blobs: Blob exports any one of them by hash, and
// Install takes a manifest plus a way to fetch the blobs it names.
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
)

// ErrStale is returned by Blob when the committed checkpoint names no
// blob with the requested hash — typically because a newer checkpoint
// superseded the one the caller is fetching. The caller should start
// over from the current manifest.
var ErrStale = errors.New("durable: no blob of the committed checkpoint has that hash")

// Blob returns the blob of the committed checkpoint whose SHA-256 is
// hash: the manifest's own encoding (the hash CheckpointStamp reports),
// or an image file the manifest names. Any other hash fails with
// ErrStale. An image's bytes are verified against the hash before they
// are returned, so a corrupted file cannot propagate. The result must
// not be modified.
func (db *DB) Blob(hash [32]byte) ([]byte, error) {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	if hash == *db.manHash.Load() { // never nil: Open commits or recovers a manifest
		return db.manBytes, nil
	}
	for _, e := range db.man.cells {
		for i, se := range e.shards {
			if se.Hash != hash {
				continue
			}
			img, err := db.readFile(imageFileName(db.man.cellSeed(e.name), i, hash), se.Size, nil)
			if err != nil {
				return nil, fmt.Errorf("durable: shard %d image: %w", i, err)
			}
			if sha256.Sum256(img) != hash {
				return nil, fmt.Errorf("durable: shard %d image corrupt on disk", i)
			}
			return img, nil
		}
	}
	return nil, ErrStale
}

// Install replaces the database's entire state — in memory and on disk
// — with the checkpoint manifestBytes describes: a manifest exactly as
// another node committed it (what Blob returns for that node's
// CheckpointStamp hash; Install keeps the slice). It is decoded by the
// decoder recovery uses, which trusts nothing, and loaded by the loader
// recovery uses (loadCells): an image already on local disk with the
// right size and hash is used where it lies, never rewritten; every
// other one comes from fetch(hash, size), is verified, and is staged
// under its content-addressed name. Tenants the manifest does not name
// are dropped — the sweep wipes their files, so a replica tracks the
// primary's tenant erasures byte for byte.
//
// Nothing is committed unless every cell decoded and passed its
// structural, routing and derived-seed checks; a failure before that
// wipes what was staged. Publication follows the standard atomic commit
// sequence (content-addressed image files → dir fsync → manifest swap →
// dir fsync), so a crash at any step recovers to either the old or the
// new checkpoint, never a mix. Installing the checkpoint already
// committed touches nothing.
//
// This is the read-replica install path, and only a replica takes it: on
// a primary Install touches nothing and fails with ErrNotReplica. The
// role is read under the checkpoint lock, held from there to the end, so
// an install and a promotion never overlap — Promote waits for the
// install to land whole, and no install starts after it (see Promote).
// Install assumes no concurrent local writers: operations applied
// between the checkpoint's capture and the install are silently
// superseded (that is the semantics of replacing state). Concurrent
// readers are safe — they keep the snapshot of the live keyspaces they
// loaded until one store publishes the new one. Checkpoints wait: fetch
// runs under the checkpoint lock, so nothing can sweep a staged image
// before its manifest lands.
//
// Every cell is re-assembled even when only a few shards changed. That
// costs O(total contents) per install, but it is what makes every
// install a CONSISTENT cut: swapping dictionaries into the live store
// shard by shard would let a concurrent cross-shard read (Range, Len)
// observe half of one checkpoint and half of another. Replicas that
// need cheaper installs should shard more finely, not trade away the
// snapshot.
func (db *DB) Install(manifestBytes []byte, fetch func(hash [32]byte, size int64) ([]byte, error)) error {
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
		return nil
	}
	cells, err := db.loadCells(man, fetch)
	if err != nil {
		db.sweep() // the committed manifest names nothing that was staged
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
