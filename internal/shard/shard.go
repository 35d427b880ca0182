package shard

import (
	"fmt"
	"sync"

	"repro/internal/cobt"
	"repro/internal/expiry"
	"repro/internal/hipma"
	"repro/internal/iomodel"
)

// Item re-exports the dictionary element type: a key with a payload.
type Item = hipma.Item

// Config holds the store's construction parameters.
type Config struct {
	// Shards is the number of shards; it must be a power of two >= 1.
	Shards int
	// PMA supplies the per-shard dictionary constants.
	PMA hipma.Config
}

// DefaultConfig returns cfg with the paper's PMA constants and the given
// shard count.
func DefaultConfig(shards int) Config {
	return Config{Shards: shards, PMA: hipma.DefaultConfig()}
}

// cell is one shard: a dictionary plus its lock and optional tracker.
type cell struct {
	mu   sync.RWMutex
	dict *cobt.Dictionary
	// exps maps key -> absolute expiry epoch for exactly the keys that
	// have one; recorded expiries are never zero, and every recorded key
	// is present in dict. It lives under the same lock as dict, so an
	// entry and its expiry always mutate together. Stores that never use
	// TTLs keep it empty and pay one Len() == 0 check per operation.
	exps *cobt.Dictionary
	io   *iomodel.Tracker
	// version counts content mutations, bumped under mu by every
	// operation that may have changed the dictionary. Readers take at
	// least the shared lock.
	version uint64
}

// rlock takes the shard's lock for a read-only dictionary operation.
// With a tracker attached even reads mutate shared state (I/O counters,
// LRU cache), so accounting shards fall back to the exclusive lock.
func (c *cell) rlock() {
	if c.io != nil {
		c.mu.Lock()
	} else {
		c.mu.RLock()
	}
}

func (c *cell) runlock() {
	if c.io != nil {
		c.mu.Unlock()
	} else {
		c.mu.RUnlock()
	}
}

// Store is a concurrent sharded dictionary. It is safe for concurrent
// use by multiple goroutines; see the package comment for the locking
// contract. The zero value is unusable; use New.
type Store struct {
	mask  uint64 // shards-1
	hseed uint64 // routing seed: shard assignment is mix(key, hseed)
	cfg   hipma.Config
	// clock supplies the TTL epoch for lazy read-side filtering. nil
	// pins the store at epoch 0, under which nothing ever expires. Set
	// it with SetClock before the store is shared.
	clock expiry.Clock
	cells []cell
	// mergePool recycles the k-way merge's per-scan state (run structs
	// and per-shard item buffers) across Range/RangeN/Ascend calls.
	// Item is pointer-free, so pooled buffers pin no user data.
	mergePool sync.Pool
	// snapPool recycles the sorted-contents copies (*snapshot) that
	// canonical images are rendered from, so a steady checkpointer copies
	// each shard into the same scratch every time.
	snapPool sync.Pool
	// planPool recycles the batch operations' shard groupings (*plan).
	planPool sync.Pool
}

// New returns an empty store with the given power-of-two shard count.
// The seed drives all of the store's randomness: the shard-routing hash
// and every per-shard dictionary's random choices. trackers must be nil
// (no DAM accounting) or hold exactly one tracker per shard.
func New(shards int, seed uint64, trackers []*iomodel.Tracker) (*Store, error) {
	return NewWithConfig(DefaultConfig(shards), seed, trackers)
}

// NewWithConfig returns an empty store with custom per-shard dictionary
// constants.
func NewWithConfig(cfg Config, seed uint64, trackers []*iomodel.Tracker) (*Store, error) {
	if cfg.Shards < 1 || cfg.Shards&(cfg.Shards-1) != 0 {
		return nil, fmt.Errorf("shard: shard count %d is not a power of two >= 1", cfg.Shards)
	}
	if trackers != nil && len(trackers) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d trackers for %d shards", len(trackers), cfg.Shards)
	}
	s := &Store{
		mask:  uint64(cfg.Shards - 1),
		hseed: mix(seed),
		cfg:   cfg.PMA,
		cells: make([]cell, cfg.Shards),
	}
	for i := range s.cells {
		var t *iomodel.Tracker
		if trackers != nil {
			t = trackers[i]
		}
		d, err := cobt.NewWithConfig(cfg.PMA, shardSeed(seed, i), t)
		if err != nil {
			return nil, err
		}
		// The expiry index never carries a tracker: it is TTL metadata,
		// and charging its probes to the DAM counters would distort the
		// paper's I/O accounting of the data structure itself.
		e, err := cobt.NewWithConfig(cfg.PMA, expShardSeed(seed, i), nil)
		if err != nil {
			return nil, err
		}
		s.cells[i].dict = d
		s.cells[i].exps = e
		s.cells[i].io = t
	}
	return s, nil
}

// mix is the splitmix64 finalizer, a strong 64-bit mixing function.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MixSeed applies the store's seed finalizer. NewWithConfig(cfg, seed)
// produces a store whose RoutingSeed() is MixSeed(seed); callers that
// know only a construction seed (e.g. a derived per-tenant seed) can
// compute the persisted routing identity without building a store.
func MixSeed(seed uint64) uint64 { return mix(seed) }

// shardSeed derives shard i's dictionary seed from the master seed so
// that shards consume independent randomness streams.
func shardSeed(seed uint64, i int) uint64 {
	return mix(seed + 0x9e3779b97f4a7c15*uint64(i+1))
}

// expShardSeed derives shard i's expiry-index seed, a stream independent
// of the data dictionary's.
func expShardSeed(seed uint64, i int) uint64 {
	return mix(shardSeed(seed, i) ^ 0x7ee150deadc0ffee)
}

// ShardOf returns the shard index key routes to: a deterministic
// function of (key, seed) only, never of the operation history, which is
// what keeps the sharded image set history independent.
func (s *Store) ShardOf(key int64) int {
	return int(mix(uint64(key)+s.hseed) & s.mask)
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.cells) }

// PMAConfig returns the per-shard dictionary constants the store was
// built with, so satellite stores (per-tenant cells) can mirror them
// and stay structurally canonical alongside the default keyspace.
func (s *Store) PMAConfig() hipma.Config { return s.cfg }

// RoutingSeed returns the store's mixed routing seed. It is part of the
// persistent identity of the store: shard assignment and the canonical
// per-shard image seeds are both derived from it, so a durable layer
// must persist it to keep lookups routing to the shards that hold the
// keys and to keep checkpoint images canonical across reopenings.
func (s *Store) RoutingSeed() uint64 { return s.hseed }

// SetClock attaches the epoch clock that drives TTL expiry (see
// repro/internal/expiry). It must be called before the store is shared
// between goroutines — the field is read without synchronization on
// every operation. A store without a clock sits at epoch 0 forever,
// under which nothing expires. The clock governs only the LAZY read
// filtering; sweeps take their epoch explicitly, so physical removal
// stays a deterministic function of (contents, epoch).
func (s *Store) SetClock(c expiry.Clock) { s.clock = c }

// Clock returns the store's epoch clock (nil: none attached).
func (s *Store) Clock() expiry.Clock { return s.clock }

// epoch reads the current TTL epoch (0 without a clock).
func (s *Store) epoch() int64 { return expiry.Epoch(s.clock) }

// ShardVersion returns shard i's modification counter: it advances on
// every operation that may have changed the shard's contents, and is
// stable otherwise. Compare against the value returned by SnapshotShard
// to decide whether a persisted image of the shard is stale.
func (s *Store) ShardVersion(i int) uint64 {
	c := &s.cells[i]
	c.rlock()
	v := c.version
	c.runlock()
	return v
}

// Put inserts or updates the value for key and reports whether the key
// was newly inserted (counting a key whose previous entry had already
// expired as new). A plain Put clears any previously recorded expiry:
// the entry never expires until a PutTTL says otherwise. It locks one
// shard.
func (s *Store) Put(key, val int64) (inserted bool) {
	return s.PutTTL(key, val, 0)
}

// Get returns the value stored for key and whether it exists. An entry
// whose expiry has passed is reported absent even before a sweep has
// physically removed it. It locks one shard (shared unless the shard
// has a tracker).
func (s *Store) Get(key int64) (val int64, ok bool) {
	epoch := s.epoch()
	c := &s.cells[s.ShardOf(key)]
	c.rlock()
	val, ok = c.dict.Get(key)
	if ok && !c.liveAt(key, epoch) {
		val, ok = 0, false
	}
	c.runlock()
	return val, ok
}

// Has reports whether key is present (and not expired).
func (s *Store) Has(key int64) bool {
	epoch := s.epoch()
	c := &s.cells[s.ShardOf(key)]
	c.rlock()
	ok := c.dict.Has(key) && c.liveAt(key, epoch)
	c.runlock()
	return ok
}

// Delete removes key and reports whether it was LOGICALLY present: a
// physically present entry whose expiry has passed is removed too (the
// bytes must go either way) but reported absent, exactly as Get would
// have reported it. It locks one shard.
func (s *Store) Delete(key int64) bool {
	epoch := s.epoch()
	c := &s.cells[s.ShardOf(key)]
	c.mu.Lock()
	deleted := c.remove(key, epoch)
	c.mu.Unlock()
	return deleted
}

// Len returns the number of live keys across all shards — entries whose
// expiry has passed are excluded even before a sweep physically removes
// them — observed at an atomic cut (all shard locks held). The cost is
// O(shards + TTL'd entries): shards without expiries pay nothing extra.
func (s *Store) Len() int {
	epoch := s.epoch()
	s.lockAllShared()
	n := 0
	for i := range s.cells {
		c := &s.cells[i]
		n += c.dict.Len() - c.deadCount(epoch)
	}
	s.unlockAllShared()
	return n
}

// ShardLen returns the number of PHYSICAL keys in shard i — including
// expired-but-unswept entries — for load-balance diagnostics.
func (s *Store) ShardLen(i int) int {
	c := &s.cells[i]
	c.rlock()
	n := c.dict.Len()
	c.runlock()
	return n
}

// Stats returns the aggregated DAM-model counters across all shard
// trackers (zero if the store was built without trackers). B is taken
// from the first tracker.
func (s *Store) Stats() iomodel.Stats {
	s.lockAllShared()
	var agg iomodel.Stats
	agg.B = 1
	first := true
	for i := range s.cells {
		t := s.cells[i].io
		if t == nil {
			continue
		}
		snap := t.Snapshot()
		if first {
			agg.B = snap.B
			first = false
		}
		agg.Reads += snap.Reads
		agg.Writes += snap.Writes
		agg.Hits += snap.Hits
	}
	s.unlockAllShared()
	return agg
}

// CheckInvariants verifies every shard's dictionary invariants plus the
// sharding invariant (every stored key routes to the shard holding it)
// and the TTL invariants: every recorded expiry is nonzero, routes to
// its shard, and names a key the shard actually holds.
func (s *Store) CheckInvariants() error {
	s.lockAllShared()
	defer s.unlockAllShared()
	for i := range s.cells {
		if err := s.cells[i].dict.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if err := s.cells[i].exps.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d expiry index: %w", i, err)
		}
		if err := s.checkRouting(i); err != nil {
			return err
		}
	}
	return nil
}

// checkRouting verifies the store-level invariants of shard i: its
// keys and recorded expiries route to it, and every expiry is nonzero
// and names a key the shard holds. The caller holds the shard's lock or
// owns the store outright.
func (s *Store) checkRouting(i int) error {
	var err error
	s.cells[i].dict.Ascend(func(it Item) bool {
		if got := s.ShardOf(it.Key); got != i {
			err = fmt.Errorf("shard: key %d stored in shard %d but routes to %d", it.Key, i, got)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	s.cells[i].exps.Ascend(func(it Item) bool {
		switch {
		case it.Val == 0:
			err = fmt.Errorf("shard: key %d has a zero expiry recorded in shard %d", it.Key, i)
		case s.ShardOf(it.Key) != i:
			err = fmt.Errorf("shard: expiry for key %d stored in shard %d but routes to %d",
				it.Key, i, s.ShardOf(it.Key))
		case !s.cells[i].dict.Has(it.Key):
			err = fmt.Errorf("shard: shard %d records an expiry for absent key %d", i, it.Key)
		}
		return err == nil
	})
	return err
}

// lockAllShared acquires every shard's read-path lock in shard order.
// The fixed order makes concurrent whole-store operations deadlock-free.
func (s *Store) lockAllShared() {
	for i := range s.cells {
		s.cells[i].rlock()
	}
}

func (s *Store) unlockAllShared() {
	for i := range s.cells {
		s.cells[i].runlock()
	}
}
