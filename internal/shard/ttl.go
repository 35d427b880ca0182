package shard

// TTL support. The model (epoch clock, liveness predicate, sweep
// schedule) is owned by repro/internal/expiry; this file executes it
// under the shard locks:
//
//   - Each cell keeps an expiry index (exps) next to its data
//     dictionary, holding key -> absolute expiry for exactly the keys
//     that have one. Both mutate under the same lock, so an entry and
//     its expiry are always consistent.
//
//   - Reads filter lazily against the store clock's current epoch: a
//     dead entry is invisible the moment it expires, before anything
//     physically removes it.
//
//   - SweepExpired physically removes the entries dead at a given
//     epoch. The epoch is an explicit argument, never the wall clock,
//     so the surviving contents — and the canonical images rendered
//     from them — are a pure function of (contents, epoch). When the
//     sweep ran is unrecoverable from the bytes.

import "repro/internal/expiry"

// liveAt reports whether key is live at epoch. The caller holds the
// cell's lock; key need not be present (absent keys report live, which
// composes with a preceding dict presence check).
func (c *cell) liveAt(key, epoch int64) bool {
	if epoch <= 0 || c.exps.Len() == 0 {
		return true
	}
	e, ok := c.exps.Get(key)
	return !ok || expiry.Live(e, epoch)
}

// expOf returns key's recorded absolute expiry (0: none). The caller
// holds the cell's lock.
func (c *cell) expOf(key int64) int64 {
	if c.exps.Len() == 0 {
		return 0
	}
	e, ok := c.exps.Get(key)
	if !ok {
		return 0
	}
	return e
}

// setExp records (exp != 0) or clears (exp == 0) key's expiry. The
// caller holds the cell's exclusive lock.
func (c *cell) setExp(key, exp int64) {
	if exp != 0 {
		c.exps.Put(key, exp)
	} else if c.exps.Len() > 0 {
		c.exps.Delete(key)
	}
}

// deadCount counts entries already expired at epoch. The caller holds
// the cell's lock.
func (c *cell) deadCount(epoch int64) int {
	if epoch <= 0 || c.exps.Len() == 0 {
		return 0
	}
	dead := 0
	c.exps.Ascend(func(it Item) bool {
		if !expiry.Live(it.Val, epoch) {
			dead++
		}
		return true
	})
	return dead
}

// filterLive drops the items already expired at epoch, in place. items
// must be a run of this cell's entries in ascending key order, so the
// expiry index entries in the run's key span are fetched once into
// *exps (caller-owned scratch) and merge-joined against it: one index
// descent per run, not one per item. The caller holds the cell's lock.
func (c *cell) filterLive(items []Item, epoch int64, exps *[]Item) []Item {
	if epoch <= 0 || c.exps.Len() == 0 || len(items) == 0 {
		return items
	}
	es := c.exps.Range(items[0].Key, items[len(items)-1].Key, (*exps)[:0])
	*exps = es
	out := items[:0]
	for _, it := range items {
		for len(es) > 0 && es[0].Key < it.Key {
			es = es[1:]
		}
		if len(es) > 0 && es[0].Key == it.Key && !expiry.Live(es[0].Val, epoch) {
			continue
		}
		out = append(out, it)
	}
	return out
}

// upsert and remove are the cell's mutation kernel: every write entry
// point (Put, PutTTL, Delete, the batches, ApplyBatch) applies its
// operations through them, so the TTL rules — what counts as a logical
// change, when an expiry is recorded or cleared, when the version
// moves — are stated once. The caller holds the cell's exclusive lock.

// upsert sets key to val with absolute expiry exp (0: never expires,
// clearing any recorded expiry) and reports whether the key is
// logically new at epoch: physically inserted, or written over an entry
// that had already expired. The version moves either way — an upsert
// may rewrite the value.
func (c *cell) upsert(key, val, exp, epoch int64) (inserted bool) {
	prevExp := c.expOf(key)
	physIns := c.dict.Put(key, val)
	c.setExp(key, exp)
	c.version++
	return physIns || !expiry.Live(prevExp, epoch)
}

// remove deletes key and its expiry and reports whether the key was
// LOGICALLY present at epoch: a physically present entry whose expiry
// has passed is removed too (the bytes must go either way) but reported
// absent. The version moves only if an entry was physically removed.
func (c *cell) remove(key, epoch int64) (deleted bool) {
	exp := c.expOf(key)
	if !c.dict.Delete(key) {
		return false
	}
	c.setExp(key, 0)
	c.version++
	return expiry.Live(exp, epoch)
}

// PutTTL inserts or updates the value for key with an absolute expiry
// epoch (unix seconds; 0: never expires) and reports whether the key
// was newly inserted — counting a key whose previous entry had already
// expired as new, exactly as a reader would have seen it. The recorded
// expiry replaces any previous one. It locks one shard.
func (s *Store) PutTTL(key, val, exp int64) (inserted bool) {
	epoch := s.epoch()
	c := &s.cells[s.ShardOf(key)]
	c.mu.Lock()
	inserted = c.upsert(key, val, exp, epoch)
	c.mu.Unlock()
	return inserted
}

// GetTTL returns the value and recorded absolute expiry (0: none) for
// key, and whether the key is live. An entry whose expiry has passed is
// reported absent. It locks one shard.
func (s *Store) GetTTL(key int64) (val, exp int64, ok bool) {
	epoch := s.epoch()
	c := &s.cells[s.ShardOf(key)]
	c.rlock()
	defer c.runlock()
	val, ok = c.dict.Get(key)
	if !ok {
		return 0, 0, false
	}
	exp = c.expOf(key)
	if !expiry.Live(exp, epoch) {
		return 0, 0, false
	}
	return val, exp, true
}

// SweepExpired physically removes every entry that is already dead at
// epoch and returns how many it removed. The removal set is exactly
// {keys with 0 < exp <= epoch}, so the surviving contents are a pure
// function of (prior contents, epoch) — running the sweep late, twice,
// or shard by shard yields identical bytes, which is what keeps sweep
// TIMING out of the canonical images. Each shard is swept under its own
// exclusive lock; the cut is per-shard, which is harmless because a
// dead entry is invisible to readers whether or not it has been swept.
// A shard's dead keys are listed and removed under one hold of its lock:
// a concurrent upsert lands before (seen live, so not listed) or after.
func (s *Store) SweepExpired(epoch int64) (swept int) {
	if epoch <= 0 {
		return 0
	}
	var dead []int64
	for i := range s.cells {
		c := &s.cells[i]
		c.mu.Lock()
		dead = dead[:0]
		if c.exps.Len() > 0 { // Ascend allocates its chunk buffer even when empty
			c.exps.Ascend(func(it Item) bool {
				if !expiry.Live(it.Val, epoch) {
					dead = append(dead, it.Key)
				}
				return true
			})
		}
		for _, k := range dead {
			c.exps.Delete(k)
			c.dict.Delete(k)
			c.version++
		}
		c.mu.Unlock()
		swept += len(dead)
	}
	return swept
}
