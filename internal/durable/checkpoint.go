package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/expiry"
	"repro/internal/namespace"
	"repro/internal/trace"
)

// Checkpoint persists the store's current contents: on a primary it
// first sweeps every entry already expired at the current epoch (a
// replica mirrors its primary's swept images instead — see DB.Replica),
// so the committed images hold exactly the live-set-at-E — an expired
// entry can never outlive the checkpoint that follows its deadline, and
// WHEN earlier sweeps happened to run leaves no trace in the bytes. It
// then renders a canonical image for every shard whose version counter
// moved since the last commit, publishes the changed images and a new
// manifest with the atomic commit sequence, and wipes and unlinks
// whatever the new manifest no longer references. A checkpoint that
// changes nothing is a no-op. Checkpoints serialize with each other;
// readers and writers on clean shards are never blocked, and a dirty
// shard's lock is held only while its sorted contents are copied out —
// rendering, hashing and publishing happen after it is released, one
// shard at a time.
func (db *DB) Checkpoint() error {
	return db.CheckpointTraced(0, 0)
}

// CheckpointTraced is Checkpoint carrying the trace identity of the
// request that demanded the barrier: the committed checkpoint's span
// joins trace tid as a child of span psid, so /debug/traces shows the
// fsync cost inside the request that paid it. Zero ids mean untraced
// — the checkpoint span (if a store is wired) mints its own trace.
func (db *DB) CheckpointTraced(tid, psid uint64) error {
	if db.closed.Load() {
		return ErrClosed
	}
	return db.checkpoint(tid, psid)
}

// checkpoint commits the current contents (see Checkpoint). tid/psid
// carry the requesting trace (0,0: untraced). When a span store is
// wired and the checkpoint commits, it records a checkpoint span —
// minting a fresh trace id for untraced (background) runs — whose
// Link is the committed manifest hash's first eight bytes, the same
// value replicas link their sync rounds to; the sweep that precedes
// rendering records a sweep child when it removed anything.
func (db *DB) checkpoint(tid, psid uint64) error {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	cpStart := time.Now()

	tr := db.trc.Load()
	var cpSID uint64
	if tr != nil {
		if tid == 0 {
			tid = tr.NewID()
		}
		cpSID = tr.NewID()
	}

	// Operations that land while the checkpoint runs must keep their
	// claim on the threshold trigger, so only the ops seen up to this
	// point are deducted after the commit (never a blanket reset).
	dirtyAtStart := db.dirtyOps.Load()

	cells := db.cells()
	// The live-set-at-E sweep, over every keyspace: what gets committed
	// is a pure function of (contents, epoch), never of any earlier
	// sweeper's schedule.
	if !db.replica.Load() {
		if epoch := expiry.Epoch(db.opts.Clock); epoch > 0 {
			swept := db.sweepCells(cells, epoch)
			if swept > 0 {
				db.m.sweptPerRun.Observe(int64(swept))
			}
			db.m.sweepSecs.ObserveSince(cpStart)
			if tr != nil && swept > 0 {
				tr.Record(trace.Span{
					Trace: tid, ID: tr.NewID(), Parent: cpSID,
					Start: cpStart.UnixNano(), Dur: int64(time.Since(cpStart)),
					Kind: trace.KindSweep, Shard: -1, In: int32(swept),
				})
			}
		}
	}
	newMan := &manifest{hseed: cells[0].Store.RoutingSeed()}
	// dirtyShard is one shard whose version moved since its cell's
	// committed image was rendered (or that has none): where its new
	// manifest entry goes and — once published — the version its image was
	// captured at.
	type dirtyShard struct {
		cell      *namespace.Cell
		idx       int
		ent       *imageEntry
		version   uint64
		published bool
	}
	var dirty []dirtyShard
	maxImage := int64(0)
	// Cells in canonical order: the root, then tenants byte-sorted by
	// name. The root is always committed; a tenant that is physically
	// empty after the sweep is excluded from the manifest entirely:
	// created-then-emptied commits the same bytes as never-existed.
	for _, c := range cells {
		if c.Name != "" && c.PhysicalLen() == 0 {
			// The manifest this commits drops the cell's files, so its
			// record of them goes too: refilled, it renders in full — the
			// shards that were empty all along included, whose versions
			// never moved.
			clear(c.Images)
			continue
		}
		ent := cellEntry{name: c.Name, shards: make([]imageEntry, c.Store.NumShards())}
		for i := range ent.shards {
			if im := c.Images[i]; im.OK && im.Version == c.Store.ShardVersion(i) {
				ent.shards[i] = im.Image // image still current
				continue
			}
			dirty = append(dirty, dirtyShard{cell: c, idx: i, ent: &ent.shards[i]})
			maxImage = max(maxImage, c.Store.ShardImageSize(i))
		}
		newMan.cells = append(newMan.cells, ent)
	}

	// Each dirty shard goes render → hash → compare → publish before the
	// next one is touched, all through one buffer sized for the largest
	// of them. The image files land under content-addressed names the old
	// manifest does not reference, so they are invisible to recovery
	// until the manifest swap below — the single commit point — and
	// publishing as we go is as safe as publishing at the end: a failure
	// part-way leaves orphans for the next sweep (or Open), never a mixed
	// checkpoint.
	var buf bytes.Buffer
	buf.Grow(int(maxImage))
	cpBytes, cpShards := 0, 0
	for k := range dirty {
		d := &dirty[k]
		buf.Reset()
		ver, _, err := d.cell.Store.SnapshotShard(d.idx, &buf)
		if err != nil {
			return fmt.Errorf("durable: snapshotting keyspace %q shard %d: %w", d.cell.Name, d.idx, err)
		}
		img := buf.Bytes()
		h := sha256.Sum256(img)
		*d.ent = imageEntry{Size: int64(len(img)), Hash: h}
		if im := &d.cell.Images[d.idx]; im.OK && h == im.Image.Hash {
			// Version moved but the canonical bytes did not (e.g. an
			// insert undone by a delete): the committed file is already
			// exact, so just advance the version it is current at.
			im.Version = ver
			continue
		}
		if err := db.publishImage(d.cell.Store.RoutingSeed(), d.idx, h, img); err != nil {
			return err
		}
		d.version, d.published = ver, true
		cpBytes += len(img)
		cpShards++
	}
	manBytes := newMan.encode()
	if cpShards == 0 && bytes.Equal(manBytes, db.manBytes) {
		// Nothing changed: the committed checkpoint covers the ops so far.
		// What an earlier, failed attempt published is still to be wiped:
		// no commit of this call will sweep it.
		db.dirtyOps.Add(-dirtyAtStart)
		return db.clearDebris()
	}
	if err := db.commitManifest(newMan, manBytes); err != nil {
		return err
	}
	cpBytes += len(manBytes)

	// Committed. Everything below is housekeeping.
	for _, d := range dirty {
		if d.published {
			d.cell.Images[d.idx] = namespace.ShardImage{Image: *d.ent, Version: d.version, OK: true}
		}
	}
	db.dirtyOps.Add(-dirtyAtStart)
	db.checkpoints.Add(1)
	db.sweep()
	db.m.cpSeconds.ObserveSince(cpStart)
	db.m.cpBytes.Observe(int64(cpBytes))
	db.m.cpShards.Observe(int64(cpShards))
	if tr != nil {
		// Link carries the committed manifest hash's first eight bytes:
		// the same stamp CheckpointStamp exposes and a replica's
		// sync-round span links to, so cross-node spans correlate by
		// value with no shared id plumbing.
		h := db.manHash.Load()
		tr.Record(trace.Span{
			Trace: tid, ID: cpSID, Parent: psid,
			Start: cpStart.UnixNano(), Dur: int64(time.Since(cpStart)),
			Kind: trace.KindCheckpoint, Shard: -1,
			In: int32(cpShards), Out: int32(cpBytes),
			Link: binary.BigEndian.Uint64(h[:8]),
		})
	}
	return nil
}

// publishImage writes one shard image under its content-addressed
// name. The old manifest does not reference that name — or, when an
// install replaces a rotten file, references it for exactly these bytes
// — so the file is invisible to recovery until a manifest that names it
// is committed. Caller holds cpMu.
func (db *DB) publishImage(hseed uint64, idx int, hash [32]byte, data []byte) error {
	db.markDebris(debrisFiles)
	if err := db.writeFileAtomic(imageFileName(hseed, idx, hash), data); err != nil {
		return fmt.Errorf("durable: publishing shard %d image: %w", idx, err)
	}
	return nil
}

// commitManifest makes the images published so far durable and then
// swaps in newMan (encoded as manBytes) — the single commit point of
// the atomic commit sequence. Caller holds cpMu.
func (db *DB) commitManifest(newMan *manifest, manBytes []byte) error {
	if err := db.fs.SyncDir(db.dir); err != nil {
		return fmt.Errorf("durable: syncing %s: %w", db.dir, err)
	}
	db.markDebris(debrisManifest)
	if err := db.writeFileAtomic(manifestName, manBytes); err != nil {
		return fmt.Errorf("durable: publishing manifest: %w", err)
	}
	if err := db.fs.SyncDir(db.dir); err != nil {
		return fmt.Errorf("durable: syncing %s after manifest swap: %w", db.dir, err)
	}
	db.setCommitted(newMan, manBytes)
	db.debris = debrisFiles // the MANIFEST on disk is the committed one; the sweep follows
	return nil
}

// What a failed checkpoint or install may have left in the directory
// beyond the files the committed manifest names (DB.debris).
const (
	debrisNone     = iota
	debrisFiles    // image or temp files
	debrisManifest // files, and a MANIFEST rename that may have landed
)

// markDebris records that the directory may now hold more than the
// committed manifest names. Caller holds cpMu.
func (db *DB) markDebris(d uint8) { db.debris = max(db.debris, d) }

// clearDebris returns the directory to exactly the committed manifest's
// files after a failed checkpoint or install left more. The sweep alone
// is not safe when that attempt may have swapped in its own MANIFEST —
// the rename may have landed even though the call failed — because
// wiping by db.man would then delete images a reboot loads: the
// committed manifest is written back and the directory fsynced first.
// With no debris it does nothing, so a clean no-op checkpoint stays
// free of I/O. Caller holds cpMu.
func (db *DB) clearDebris() error {
	if db.debris == debrisManifest {
		if err := db.writeFileAtomic(manifestName, db.manBytes); err != nil {
			return fmt.Errorf("durable: restoring the committed manifest: %w", err)
		}
		if err := db.fs.SyncDir(db.dir); err != nil {
			return fmt.Errorf("durable: syncing %s after restoring the manifest: %w", db.dir, err)
		}
		db.debris = debrisFiles
	}
	if db.debris != debrisNone {
		db.sweep()
	}
	return nil
}

// setCommitted records man, encoded as manBytes, as the committed
// checkpoint, hashing it once for every later reader of its name.
// Caller holds cpMu.
func (db *DB) setCommitted(man *manifest, manBytes []byte) {
	h := sha256.Sum256(manBytes)
	db.man, db.manBytes = man, manBytes
	db.manHash.Store(&h)
}

// writeFileAtomic publishes data under name via the temp-file dance:
// the bytes are complete and fsynced before the name ever exists.
func (db *DB) writeFileAtomic(name string, data []byte) error {
	db.fileGen++
	tmp := db.path(name + ".tmp")
	f, err := db.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return db.fs.Rename(tmp, db.path(name))
}

// sweep wipes and unlinks every file in the directory that the current
// manifest does not reference: temp files and superseded or orphaned
// shard images. Best-effort — the commit has already happened, and
// anything left behind is picked up by the next sweep or by Open.
// A listed directory is clean of debris afterwards, as far as wiping
// succeeds. Caller holds cpMu.
func (db *DB) sweep() {
	names, err := db.fs.List(db.dir)
	if err != nil {
		return
	}
	db.debris = debrisNone
	keep := map[string]bool{manifestName: true}
	for _, c := range db.man.cells {
		hseed := db.man.cellSeed(c.name)
		for i, e := range c.shards {
			keep[imageFileName(hseed, i, e.Hash)] = true
		}
	}
	for _, n := range names {
		if !keep[n] {
			db.wipeRemove(n)
		}
	}
}

// zeros is the shared wipe block: read-only, so every wipeRemove can
// use it without allocating its own.
var zeros = make([]byte, 32*1024)

// wipeRemove overwrites name with zeros, fsyncs the overwrite, and
// unlinks the file. Secure deletion on modern storage is
// inherently best-effort — journaling filesystems and SSD FTLs may keep
// stale blocks — so errors are swallowed: the file's confidentiality
// already rests on the history independence of its contents, and its
// *existence* is removed either way.
func (db *DB) wipeRemove(name string) {
	db.fileGen++
	p := db.path(name)
	if size, err := db.fs.Size(p); err == nil && size > 0 {
		if f, err := db.fs.OpenWrite(p); err == nil {
			for left := size; left > 0; {
				n := min(int64(len(zeros)), left)
				if _, err := f.Write(zeros[:n]); err != nil {
					break
				}
				left -= n
			}
			f.Sync()
			f.Close()
		}
	}
	db.fs.Remove(p)
}

// background is the checkpointer goroutine: while the node is a primary
// it commits dirty state every CheckpointInterval, or sooner when the
// dirty-op count crosses the threshold (noteDirty's kick); while it is
// a replica the ticks pass unused — installs, not local checkpoints,
// keep that directory current — so a promotion has nothing to start. At
// most one checkpoint is in flight, and the loop re-checks the count
// after each: a threshold's worth of writes landing during a checkpoint
// gets one follow-up, less waits for its own crossing or the next tick.
// Errors are not fatal — the next tick retries, and Close surfaces the
// final attempt's error.
func (db *DB) background() {
	defer db.wg.Done()
	t := time.NewTicker(db.opts.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-db.stop:
			return
		case <-t.C:
		case <-db.kick:
		}
		if db.replica.Load() {
			continue
		}
		err := db.checkpoint(0, 0)
		// A kick sent while that checkpoint ran is answered here: drain it,
		// then — in that order, so a crossing in between keeps its own —
		// re-arm if a threshold's worth is pending.
		select {
		case <-db.kick:
		default:
		}
		if err == nil && db.dirtyOps.Load() >= uint64(db.opts.CheckpointThreshold) {
			select {
			case db.kick <- struct{}{}:
			default:
			}
		}
	}
}
