package durable

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"path"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expiry"
	"repro/internal/hipma"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Item re-exports the store element type.
type Item = shard.Item

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("durable: database is closed")

// ErrNotReplica is returned by Promote and Install on a node that is
// already a primary: a double promotion, a PROMOTE aimed at the primary,
// or a peer's checkpoint arriving after this node began taking writes.
var ErrNotReplica = errors.New("durable: node is a primary, not a replica")

// Options configures Open. The zero value is usable: 8 shards, seed 0,
// the paper's PMA constants, background checkpointing every second or
// every 4096 dirty operations, secure wipe on, real filesystem.
type Options struct {
	// Shards is the shard count for a NEWLY CREATED database (power of
	// two; 0 means 8). Ignored when opening an existing directory — the
	// shard count is part of the durable state.
	Shards int
	// Seed drives all randomness. For a new database it also fixes the
	// routing seed and therefore the canonical image bytes; for an
	// existing one it supplies only fresh randomness for future
	// operations (the routing seed is restored from the manifest).
	Seed uint64
	// PMA overrides the per-shard dictionary constants for a newly
	// created database (zero value: the paper's defaults). Ignored on
	// recovery — the constants are part of each shard image.
	PMA hipma.Config
	// CheckpointInterval is the background checkpointer's poll period
	// (0: one second). Each tick persists all dirty shards.
	CheckpointInterval time.Duration
	// CheckpointThreshold triggers an early background checkpoint once
	// this many mutating operations have accumulated (0: 4096).
	CheckpointThreshold int
	// NoBackground disables the checkpointer goroutine; persistence
	// then happens only on explicit Checkpoint or Close.
	NoBackground bool
	// Clock supplies the TTL epoch (nil: the system clock, unix
	// seconds). Tests inject an expiry.Manual to make expiry — and
	// therefore the checkpoint bytes of TTL workloads — deterministic.
	Clock expiry.Clock
	// NoSweep opens the database in the replica role (see DB.Replica):
	// the directory follows a peer's checkpoints through Install instead
	// of the node's own writes. The name is the first thing the role
	// turns off — a replica's dead entries leave when the primary's
	// swept checkpoint ships, never on the replica's own schedule (lazy
	// read filtering still applies: a dead entry is invisible from the
	// moment it expires). Promote and Demote change the role later.
	NoSweep bool
	// FS is the filesystem to commit through (nil: the real one).
	FS FS
	// Metrics registers the durable layer's checkpoint and sweep
	// histograms (duration and bytes) on the given registry. Nil is
	// valid: the metrics still record, they just aren't scraped.
	Metrics *obs.Registry
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Shards == 0 {
		out.Shards = 8
	}
	if out.PMA == (hipma.Config{}) {
		out.PMA = hipma.DefaultConfig()
	}
	// Non-positive trigger values get the defaults too: a negative
	// interval would panic time.NewTicker in the background goroutine,
	// and a negative threshold would wrap to a huge uint64 and silently
	// disable the dirty-op trigger.
	if out.CheckpointInterval <= 0 {
		out.CheckpointInterval = time.Second
	}
	if out.CheckpointThreshold <= 0 {
		out.CheckpointThreshold = 4096
	}
	if out.Clock == nil {
		out.Clock = expiry.System()
	}
	if out.FS == nil {
		out.FS = OS()
	}
	return out
}

// DB is a durable, crash-safe, history-independent key-value database:
// the concurrent sharded Store plus a checkpointing engine that keeps a
// canonical on-disk image of it inside one directory. All methods are
// safe for concurrent use.
type DB struct {
	dir  string
	fs   FS
	opts Options
	// live is the set of live keyspaces, an immutable snapshot behind one
	// pointer: the default keyspace — the cell named "" — first, then the
	// tenants' cells; every engine path (load, checkpoint, verify) is one
	// loop over it, and a point op costs one pointer load and a store
	// call. Install publishes freshly assembled cells with a single
	// store while concurrent readers keep whichever snapshot they loaded
	// — before or after, never the root of one checkpoint beside the
	// tenants of another. Tenant cells are created lazily on first write;
	// liveMu serializes the copy-on-write replacements (create, drop and
	// its undo, publish). Each cell's committed images are guarded by
	// cpMu.
	live   atomic.Pointer[namespace.Set]
	liveMu sync.Mutex

	// cpMu serializes checkpoints, installs and role changes, and guards
	// the committed-state fields below.
	cpMu sync.Mutex
	// man is the last committed manifest (nil: none yet), manBytes its
	// encoding — the bytes in the MANIFEST file — and manHash their
	// SHA-256, computed once per commit: the checkpoint's name. manHash
	// alone is also readable without cpMu (see CheckpointStamp).
	man      *manifest
	manBytes []byte
	manHash  atomic.Pointer[[32]byte]
	// fileGen counts changes to the directory's entries — every file
	// published or wiped — so a BlobReader can tell that the file it holds
	// open may no longer be the one its name now leads to. hashBuf is the
	// one fixed buffer files are hashed through. Both under cpMu.
	fileGen uint64
	hashBuf []byte
	// debris says what a failed checkpoint or install may have left
	// beyond the committed manifest's files (debrisNone, debrisFiles,
	// debrisManifest): a commit's sweep clears it, and so does a call that
	// finds nothing to commit (clearDebris). Under cpMu.
	debris uint8

	dirtyOps    atomic.Uint64 // mutating ops since the last checkpoint
	checkpoints atomic.Uint64 // committed checkpoints (in-memory stat)
	sweptKeys   atomic.Uint64 // expired entries physically removed since Open
	closed      atomic.Bool
	// trc is the span store checkpoint and sweep spans are recorded
	// into (nil pointer: tracing off). An atomic pointer because
	// SetTrace may race an already-running background checkpointer.
	// Spans carry counts, durations, and the committed manifest hash's
	// first eight bytes — never keys, values, or tenant names — so the
	// trace buffer stays forensically clean by construction.
	trc atomic.Pointer[trace.Store]
	// replica is the node's role, the one place it is stated: set, the
	// directory follows a peer's checkpoints (Install allowed; no expiry
	// sweep, no background checkpoint; the server refuses writes); clear,
	// it follows the node's own writes (the reverse of each). Opened from
	// Options.NoSweep, flipped only by Promote and Demote under cpMu, so
	// a flip never lands inside a checkpoint or an install. promotions
	// counts the flips to primary. Both are in-memory only — nothing
	// about the role ever reaches the disk.
	replica    atomic.Bool
	promotions atomic.Uint64

	m dbMetrics

	kick chan struct{}  // threshold trigger for the background loop
	stop chan struct{}  // closed once, by whichever of Close/Abandon wins closed
	wg   sync.WaitGroup // the background checkpointer, if Open started one
}

// Open opens the database directory dir, creating it (and an initial
// empty checkpoint) if no manifest exists, or recovering and verifying
// the last complete checkpoint if one does. Recovery checks the
// manifest checksum, every shard file's size and SHA-256 against the
// manifest, every shard image's own checksum, and the store's
// structural and routing invariants; any leftover temporary or
// superseded files from an interrupted commit are wiped and removed.
func Open(dir string, opts *Options) (*DB, error) {
	o := opts.withDefaults()
	fs := o.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: creating %s: %w", dir, err)
	}
	names, err := fs.List(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: listing %s: %w", dir, err)
	}
	hasManifest := false
	for _, n := range names {
		if n == manifestName {
			hasManifest = true
			break
		}
	}

	db := &DB{dir: dir, fs: fs, opts: o, hashBuf: make([]byte, 32<<10)}
	db.m.init(o.Metrics)
	db.replica.Store(o.NoSweep)
	if hasManifest {
		if err := db.recover(); err != nil {
			return nil, err
		}
	} else {
		// No commit record: any files present are debris from a crash
		// before the first commit. Wipe them and start empty.
		for _, n := range names {
			db.wipeRemove(n)
		}
		cfg := shard.Config{Shards: o.Shards, PMA: o.PMA}
		s, err := shard.NewWithConfig(cfg, o.Seed, nil)
		if err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
		s.SetClock(o.Clock)
		db.publish([]*namespace.Cell{newCell("", s)})
		if err := db.checkpoint(0, 0); err != nil {
			return nil, fmt.Errorf("durable: initial checkpoint: %w", err)
		}
	}

	// kick exists even when the checkpointer does not: writers consult it
	// either way.
	db.kick = make(chan struct{}, 1)
	db.stop = make(chan struct{})
	if !o.NoBackground {
		db.wg.Add(1)
		go db.background()
	}
	return db, nil
}

// newCell wraps st as the cell called name, no image committed yet.
func newCell(name string, st *shard.Store) *namespace.Cell {
	return &namespace.Cell{Name: name, Store: st, Images: make([]namespace.ShardImage, st.NumShards())}
}

// recover rebuilds every committed cell from the last checkpoint.
func (db *DB) recover() error {
	data, err := db.readFile(manifestName, -1, nil)
	if err != nil {
		return fmt.Errorf("durable: reading manifest: %w", err)
	}
	man, err := decodeManifest(data)
	if err != nil {
		return err
	}
	cells, err := db.loadCells(man, nil, nil)
	if err != nil {
		return err
	}
	db.publish(cells)
	db.setCommitted(man, data)
	db.sweep() // clear debris from any interrupted commit
	return nil
}

// loadCells is the one way a keyspace gets from image bytes into
// memory: recovery and Install both end here. It walks man in canonical
// order and builds every cell it names, one image at a time. An image
// comes from its content-addressed local file when that file is there
// with the manifest's size and SHA-256 — so "is the local file good" is
// decided exactly where the file is used. Otherwise, when fetch is
// non-nil, the image is fetched into the same buffer, checked against
// the manifest's size and hash, published under its content-addressed
// name (replacing a rotten file of that name, if any) and decoded; with
// a nil fetch a missing or corrupt file is an error. That one buffer is
// all the image bytes a load holds, whichever way they arrive. Per-image
// checksums and each store's structural and routing invariants are
// verified as it is assembled. The default keyspace routes under
// man.hseed and draws fresh randomness from Options.Seed; a tenant must
// sit at the seed derived from (man.hseed, name), so an image set filed
// under the wrong tenant fails assembly. A cell of carry — live cells
// routed under man.hseed, or nil — whose committed images are man's and
// current is taken over as it is instead (see carried). Cells come back
// carrying man's entries as their committed images: callers publish
// them only together with man. Caller holds cpMu (or is Open).
func (db *DB) loadCells(man *manifest, carry *namespace.Set, fetch func(dst []byte, hash [32]byte, size int64) ([]byte, error)) ([]*namespace.Cell, error) {
	cells := make([]*namespace.Cell, len(man.cells))
	// The one image held at a time, sized once for the largest image the
	// load reads: the manifest states every size, and loadCells refuses
	// an image of any other size.
	largest := int64(0)
	for k, e := range man.cells {
		if cells[k] = carried(carry, e); cells[k] == nil {
			for _, se := range e.shards {
				largest = max(largest, se.Size)
			}
		}
	}
	buf := make([]byte, 0, min(largest, maxReserve))
	for k, e := range man.cells {
		if cells[k] != nil {
			continue // carried over
		}
		hseed, seed := man.hseed, db.opts.Seed
		if e.name != "" {
			seed = namespace.DeriveSeed(man.hseed, e.name)
			hseed = shard.MixSeed(seed)
		}
		st, err := shard.AssembleStore(hseed, len(e.shards), func(i int) ([]byte, error) {
			want := e.shards[i]
			var err error
			buf, err = db.readFile(imageFileName(hseed, i, want.Hash), want.Size, buf[:0])
			if err == nil && sha256.Sum256(buf) != want.Hash {
				err = errors.New("hash mismatch")
			}
			if err == nil {
				return buf, nil
			}
			if fetch == nil {
				return nil, fmt.Errorf("shard %d image: %w", i, err)
			}
			if buf, err = fetch(buf[:0], want.Hash, want.Size); err != nil {
				return nil, err
			}
			if int64(len(buf)) != want.Size || sha256.Sum256(buf) != want.Hash {
				return nil, fmt.Errorf("fetched shard %d image does not match the manifest's size and hash", i)
			}
			return buf, db.publishImage(hseed, i, want.Hash, buf)
		}, seed, nil)
		if err != nil {
			return nil, fmt.Errorf("durable: keyspace %q: %w", e.name, err)
		}
		st.SetClock(db.opts.Clock)
		cells[k] = newCell(e.name, st)
		for i, se := range e.shards {
			cells[k].Images[i] = namespace.ShardImage{Image: se, Version: st.ShardVersion(i), OK: true}
		}
	}
	return cells, nil
}

// carried returns the cell of carry that already is what e describes —
// same name, same shard count, and for every shard an image of e's hash
// and size committed and still current — or nil. carry's cells route
// under the manifest's seed, so a name fixes the routing seed; the
// version check keeps a cell written since its last commit (a local
// write on a replica) from being taken for the checkpoint's contents.
// Caller holds cpMu, which guards the cells' committed images.
func carried(carry *namespace.Set, e cellEntry) *namespace.Cell {
	if carry == nil {
		return nil
	}
	c := carry.Get(e.name)
	if c == nil || c.Store.NumShards() != len(e.shards) {
		return nil
	}
	for i, se := range e.shards {
		if im := c.Images[i]; !im.OK || im.Image != se || im.Version != c.Store.ShardVersion(i) {
			return nil
		}
	}
	return c
}

// maxReserve bounds the image buffer loadCells sizes on a manifest's
// word alone: an installed manifest comes from a peer, and a size in it
// is checked only when an image of that size arrives. Larger images
// still load; their buffer grows as their bytes arrive.
const maxReserve = 64 << 20

// publish makes cells — the root first, then the tenants — the live
// state, replacing whatever was there with one store.
func (db *DB) publish(cells []*namespace.Cell) {
	db.liveMu.Lock()
	defer db.liveMu.Unlock()
	db.live.Store(namespace.NewSet(cells))
}

// cells returns every live cell: the root, then the tenants
// byte-sorted by name — the manifest's canonical order.
func (db *DB) cells() []*namespace.Cell { return db.live.Load().Cells() }

// cell returns the live cell called ns ("": the root), or nil.
func (db *DB) cell(ns string) *namespace.Cell { return db.live.Load().Get(ns) }

func (db *DB) path(name string) string { return path.Join(db.dir, name) }

// openSized opens name for reading after checking that it is exactly
// size bytes long (size < 0: however long the filesystem says it is),
// and returns its length: a wrong-length file fails before a byte of it
// is read.
func (db *DB) openSized(name string, size int64) (File, int64, error) {
	p := db.path(name)
	onDisk, err := db.fs.Size(p)
	if err != nil {
		return nil, 0, err
	}
	if size >= 0 && onDisk != size {
		return nil, 0, fmt.Errorf("file is %d bytes, manifest says %d", onDisk, size)
	}
	f, err := db.fs.Open(p)
	return f, onDisk, err
}

// readFile reads the whole of name (see openSized for size) into buf,
// which is grown — once, to the file's length — only when too small.
func (db *DB) readFile(name string, size int64, buf []byte) ([]byte, error) {
	f, size, err := db.openSized(name, size)
	if err != nil {
		return buf, err
	}
	if int64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	_, err = io.ReadFull(f, buf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return buf, err
}

// Store returns the underlying concurrent store. Mutations made
// directly on it are picked up by the next checkpoint via the shard
// version counters, but do not count toward the dirty-op threshold.
func (db *DB) Store() *shard.Store { return db.cells()[0].Store }

// Dir returns the database directory.
func (db *DB) Dir() string { return db.dir }

// Checkpoints returns the number of checkpoints committed since Open.
func (db *DB) Checkpoints() uint64 { return db.checkpoints.Load() }

// noteDirty accumulates mutating operations toward the threshold
// trigger and kicks the background loop when the count CROSSES the
// threshold. A kick on every write at or above it would refill the
// one-slot channel during the kicked checkpoint and buy a second,
// nearly empty one the moment it returns; what accumulates during a
// checkpoint is the loop's to re-check (see background).
func (db *DB) noteDirty(n int) {
	if n <= 0 {
		return
	}
	t := uint64(db.opts.CheckpointThreshold)
	if now := db.dirtyOps.Add(uint64(n)); now >= t && now-uint64(n) < t {
		select {
		case db.kick <- struct{}{}:
		default:
		}
	}
}

// Put inserts or updates the value for key and reports whether the key
// was newly inserted. A plain Put clears any previously recorded TTL.
func (db *DB) Put(key, val int64) bool {
	inserted := db.Store().Put(key, val)
	db.noteDirty(1)
	return inserted
}

// PutTTL inserts or updates the value for key with an absolute expiry
// epoch (unix seconds; 0: never expires) and reports whether the key
// was newly inserted — counting a key whose previous entry had already
// expired as new.
func (db *DB) PutTTL(key, val, exp int64) bool {
	inserted := db.Store().PutTTL(key, val, exp)
	db.noteDirty(1)
	return inserted
}

// GetTTL returns the value and recorded absolute expiry (0: none) for
// key, and whether the key is live at the current epoch.
func (db *DB) GetTTL(key int64) (val, exp int64, ok bool) { return db.Store().GetTTL(key) }

// Clock returns the database's TTL epoch clock.
func (db *DB) Clock() expiry.Clock { return db.opts.Clock }

// Epoch returns the database's current TTL epoch.
func (db *DB) Epoch() int64 { return expiry.Epoch(db.opts.Clock) }

// SweepExpired physically removes every entry already expired at
// epoch, in every keyspace, and returns how many it removed. A primary's
// Checkpoint runs the same sweep at the current epoch, so committed
// directories always hold exactly the live-set-at-E; the network server
// calls this on each epoch transition.
func (db *DB) SweepExpired(epoch int64) int {
	n := db.sweepCells(db.cells(), epoch)
	db.noteDirty(n)
	return n
}

// sweepCells is the one expiry sweep: cells' entries dead at epoch go.
func (db *DB) sweepCells(cells []*namespace.Cell, epoch int64) int {
	n := 0
	for _, c := range cells {
		n += c.Store.SweepExpired(epoch)
	}
	db.sweptKeys.Add(uint64(n))
	return n
}

// SweptKeys returns the number of expired entries physically removed
// since Open, by explicit and checkpoint-time sweeps alike.
func (db *DB) SweptKeys() uint64 { return db.sweptKeys.Load() }

// Get returns the value stored for key and whether it exists.
func (db *DB) Get(key int64) (int64, bool) { return db.Store().Get(key) }

// Has reports whether key is present.
func (db *DB) Has(key int64) bool { return db.Store().Has(key) }

// Delete removes key and reports whether it was present.
func (db *DB) Delete(key int64) bool {
	deleted := db.Store().Delete(key)
	db.noteDirty(1)
	return deleted
}

// PutBatch applies every item as an upsert and returns the number of
// keys newly inserted.
func (db *DB) PutBatch(items []Item) int {
	inserted := db.Store().PutBatch(items)
	db.noteDirty(len(items))
	return inserted
}

// GetBatch looks up every key; values and presence flags align with
// keys.
func (db *DB) GetBatch(keys []int64) ([]int64, []bool) { return db.Store().GetBatch(keys) }

// DeleteBatch removes every key and returns the number that were
// present.
func (db *DB) DeleteBatch(keys []int64) int {
	deleted := db.Store().DeleteBatch(keys)
	db.noteDirty(len(keys))
	return deleted
}

// ApplyBatch applies a mixed sequence of upserts and deletes to the
// default keyspace with each shard's lock taken exactly once,
// recording per-op outcomes in changed (nil to discard; otherwise
// len(ops)) and returning the number of ops that changed key presence.
// Same-shard operations apply in batch order. It is NSApplyBatch on
// the keyspace named "".
func (db *DB) ApplyBatch(ops []shard.Op, changed []bool) (int, error) {
	return db.NSApplyBatch("", ops, changed)
}

// NSApplyBatch is the write path the network server's coalescer uses:
// many connections' pipelined writes to keyspace ns ("": the default
// one) become one batch, one lock take per shard, one dirty-op note
// per operation. A tenant's cell is created by its first upsert;
// deletes aimed at an absent tenant change nothing and leave it absent.
func (db *DB) NSApplyBatch(ns string, ops []shard.Op, changed []bool) (int, error) {
	puts := false
	for i := range ops {
		puts = puts || !ops[i].Delete
	}
	if !puts && db.cell(ns) == nil {
		clear(changed)
		return 0, nil
	}
	c, err := db.cellOrCreate(ns)
	if err != nil {
		return 0, err
	}
	n, err := c.Store.ApplyBatch(ops, changed)
	db.noteDirty(len(ops))
	return n, err
}

// Range appends all items with lo <= key <= hi to out in ascending key
// order.
func (db *DB) Range(lo, hi int64, out []Item) []Item { return db.Store().Range(lo, hi, out) }

// RangeN appends at most max such items and reports whether the window
// held more; work and memory are bounded by max, not the window size.
func (db *DB) RangeN(lo, hi int64, max int, out []Item) ([]Item, bool) {
	return db.Store().RangeN(lo, hi, max, out)
}

// Ascend calls fn on every item in ascending key order until fn
// returns false.
func (db *DB) Ascend(fn func(Item) bool) { db.Store().Ascend(fn) }

// Len returns the number of keys.
func (db *DB) Len() int { return db.Store().Len() }

// PendingOps returns the number of mutating operations accepted since
// the last committed checkpoint — the write-loss window a power cut
// right now would expose. It is zero immediately after a successful
// Checkpoint with no concurrent writers. Operations applied directly on
// Store() bypass this counter (see Store).
func (db *DB) PendingOps() uint64 { return db.dirtyOps.Load() }

// SetTrace wires a span store into the durable layer: every committed
// checkpoint records a checkpoint span (linked to the manifest hash)
// and every expiry sweep a sweep span. Synchronous barriers triggered
// by a traced request join that request's trace (CheckpointTraced,
// DropNamespaceSync); background checkpoints mint their own
// trace ids. Safe to call while the background checkpointer runs; a
// nil store is ignored.
func (db *DB) SetTrace(st *trace.Store) {
	if st != nil {
		db.trc.Store(st)
	}
}

// Close stops the background checkpointer, commits a final checkpoint,
// and marks the DB closed. Operations after Close are not persisted.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return ErrClosed
	}
	close(db.stop)
	db.wg.Wait()
	return db.checkpoint(0, 0)
}

// Abandon stops the background checkpointer and marks the DB closed
// WITHOUT committing a final checkpoint: every operation since the last
// commit is deliberately dropped, exactly as a crash would drop it. The
// on-disk directory is untouched and remains a valid last-checkpoint
// state. This is the kill -9 path — crash drills, torture tests, and
// supervisors that prefer losing the tail to blocking on a slow disk.
func (db *DB) Abandon() {
	if db.closed.Swap(true) {
		return
	}
	close(db.stop)
	db.wg.Wait()
}

// Replica reports the node's role: true while the directory follows a
// peer's checkpoints, false while it follows the node's own writes.
func (db *DB) Replica() bool { return db.replica.Load() }

// Promotions returns how many times this process has been promoted. A
// replication client remembers the count it was created under, so a
// promotion retires it for good — even after a later Demote.
func (db *DB) Promotions() uint64 { return db.promotions.Load() }

// Promote flips a replica into the primary role and returns the node's
// promotion count; on a primary it changes nothing and fails with
// ErrNotReplica. The flip is taken under the checkpoint lock, which
// Install holds for its whole run: Promote waits out an install in
// flight, and every later one is refused — so no write the node accepts
// as primary can be replaced by a peer's checkpoint. Everything else
// the role decides follows from the same bit: checkpoints sweep expired
// entries again (the node now owns the live-set-at-E contract instead of
// mirroring the old primary's swept images), the background checkpointer
// acts on its ticks, the server accepts writes. Promotion writes nothing
// to disk — the directory stays a pure function of contents, and the
// role change becomes visible there only through what future
// checkpoints commit.
func (db *DB) Promote() (uint64, error) {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	if !db.replica.Load() {
		return db.promotions.Load(), ErrNotReplica
	}
	n := db.promotions.Add(1)
	db.replica.Store(false)
	return n, nil
}

// Demote returns a primary to the replica role (the rejoin path: an old
// primary that crashed and recovered demotes itself before syncing off
// the new one); on a replica it fails. Writes already accepted stay
// applied — demotion is a role change, not a barrier; callers quiesce
// their own clients first.
func (db *DB) Demote() error {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	if db.replica.Load() {
		return errors.New("durable: node is already a replica")
	}
	db.replica.Store(true)
	return nil
}

// CheckpointStamp returns the node's checkpoint epoch — checkpoints
// committed or installed since process start — together with the
// SHA-256 of the committed manifest encoding: the checkpoint's name.
// Two nodes serving identical checkpoints report identical hashes (the
// manifest is canonical), so a failover coordinator can rank replicas
// by content and a replica asks for exactly this blob. Both values are
// in-memory state; neither is ever persisted. It takes no lock — two
// atomic loads, the hash computed once at commit — so a HEALTH probe
// never waits behind a checkpoint or an install in progress; the epoch
// may trail the hash by the one commit being counted.
func (db *DB) CheckpointStamp() (epoch uint64, hash [32]byte) {
	if h := db.manHash.Load(); h != nil {
		hash = *h
	}
	return db.checkpoints.Load(), hash
}

// VerifyCanonical re-renders every committed cell's shards and re-reads
// the committed on-disk files, streaming both through SHA-256 against
// the manifest's hash — so render, file and manifest agree byte for
// byte without either image ever being held whole — confirming that the
// directory is exactly the canonical image of the current contents. It
// fails if uncheckpointed changes are pending.
func (db *DB) VerifyCanonical() error {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	if db.man == nil {
		return errors.New("durable: no committed checkpoint")
	}
	// Every committed cell must be live, version-clean, and re-render
	// to exactly its committed files.
	h := sha256.New()
	var sum [sha256.Size]byte
	hashIs := func(want [32]byte) bool { return [32]byte(h.Sum(sum[:0])) == want }
	live := db.live.Load()
	for _, e := range db.man.cells {
		c := live.Get(e.name)
		if c == nil {
			return fmt.Errorf("durable: manifest commits keyspace %q with no live cell", e.name)
		}
		hseed := db.man.cellSeed(e.name)
		for i, se := range e.shards {
			if im := c.Images[i]; !im.OK || im.Version != c.Store.ShardVersion(i) {
				return fmt.Errorf("durable: keyspace %q shard %d has uncheckpointed changes", e.name, i)
			}
			h.Reset()
			if _, n, err := c.Store.SnapshotShard(i, h); err != nil {
				return fmt.Errorf("durable: rendering keyspace %q shard %d: %w", e.name, i, err)
			} else if n != se.Size || !hashIs(se.Hash) {
				return fmt.Errorf("durable: keyspace %q shard %d canonical image diverges from manifest", e.name, i)
			}
			h.Reset()
			if err := db.hashFile(imageFileName(hseed, i, se.Hash), se.Size, h); err != nil {
				return fmt.Errorf("durable: keyspace %q shard %d image: %w", e.name, i, err)
			}
			if !hashIs(se.Hash) {
				return fmt.Errorf("durable: keyspace %q shard %d on-disk image is not canonical", e.name, i)
			}
		}
	}
	// And every live tenant with physical contents must be committed (a
	// cell's images are committed all together: the first speaks for all).
	for _, c := range live.Cells()[1:] {
		if !c.Images[0].OK && c.PhysicalLen() > 0 {
			return fmt.Errorf("durable: keyspace %q has uncheckpointed contents", c.Name)
		}
	}
	return nil
}

// hashFile streams name, which must be exactly size bytes long, into h.
// Caller holds cpMu.
func (db *DB) hashFile(name string, size int64, h io.Writer) error {
	f, _, err := db.openSized(name, size)
	if err != nil {
		return err
	}
	defer f.Close()
	return hashFrom(f, size, h, db.hashBuf)
}

// hashFrom streams f, which must hold exactly size bytes, into h
// through buf. LimitReader bounds the copy at size+1 bytes, enough to
// notice a file that outgrew its size without reading on without bound.
func hashFrom(f File, size int64, h io.Writer, buf []byte) error {
	n, err := io.CopyBuffer(h, io.LimitReader(f, size+1), buf)
	if err == nil && n != size {
		err = fmt.Errorf("read %d bytes, manifest says %d", n, size)
	}
	return err
}
