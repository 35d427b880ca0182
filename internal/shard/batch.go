package shard

// Batch operations: group keys by destination shard, then visit each
// shard exactly once, taking its lock once for the whole group. On a
// store with S shards this turns k point-op lock acquisitions into at
// most min(k, S), and keeps every key's operations in their original
// batch order (the grouping below is a stable counting sort), so
// duplicate keys within a batch apply left to right.

import "slices"

// plan is a reusable shard-grouping of batch indices: order holds the
// input indices stably sorted by shard; group g occupies
// order[start[g]:start[g+1]]. Stores recycle plans through planPool —
// each batch call takes one, walks its groups and puts it back — so a
// steady batch workload groups without allocating, and concurrent
// callers never share one.
type plan struct {
	order []int
	start []int
	// Scratch of the grouping itself: each batch slot's shard, and each
	// group's write cursor during the scatter.
	shardOf []int
	next    []int
}

// groupByShard stably buckets the n batch slots by shard of key(i). The
// caller hands the plan back with s.planPool.Put when done with it.
func (s *Store) groupByShard(n int, key func(i int) int64) *plan {
	p, _ := s.planPool.Get().(*plan)
	if p == nil {
		p = new(plan)
	}
	nsh := len(s.cells)
	p.shardOf, p.order = slices.Grow(p.shardOf[:0], n)[:n], slices.Grow(p.order[:0], n)[:n]
	p.start, p.next = slices.Grow(p.start[:0], nsh+1)[:nsh+1], slices.Grow(p.next[:0], nsh)[:nsh]
	clear(p.start)
	for i := 0; i < n; i++ {
		sh := s.ShardOf(key(i))
		p.shardOf[i] = sh
		p.start[sh+1]++
	}
	for g := 0; g < nsh; g++ {
		p.start[g+1] += p.start[g]
	}
	copy(p.next, p.start)
	for i, g := range p.shardOf { // stable scatter: preserves batch order per shard
		p.order[p.next[g]] = i
		p.next[g]++
	}
	return p
}

// PutBatch applies every item as an upsert and returns the number of
// keys that were newly inserted (counting keys whose previous entry had
// already expired as new). Like Put, a batch upsert clears any
// previously recorded expiry. Items are grouped by shard; each shard's
// lock is taken once. Duplicate keys within the batch apply in batch
// order (the last value wins) and count as one insert.
func (s *Store) PutBatch(items []Item) (inserted int) {
	if len(items) == 0 {
		return 0
	}
	epoch := s.epoch()
	p := s.groupByShard(len(items), func(i int) int64 { return items[i].Key })
	for g := range s.cells {
		lo, hi := p.start[g], p.start[g+1]
		if lo == hi {
			continue
		}
		c := &s.cells[g]
		c.mu.Lock()
		for _, i := range p.order[lo:hi] {
			if c.upsert(items[i].Key, items[i].Val, 0, epoch) {
				inserted++
			}
		}
		c.mu.Unlock()
	}
	s.planPool.Put(p)
	return inserted
}

// GetBatch looks up every key and returns values and presence flags
// aligned with keys; entries whose expiry has passed read as absent.
// Each shard's lock is taken once.
func (s *Store) GetBatch(keys []int64) (vals []int64, ok []bool) {
	vals = make([]int64, len(keys))
	ok = make([]bool, len(keys))
	if len(keys) == 0 {
		return vals, ok
	}
	epoch := s.epoch()
	p := s.groupByShard(len(keys), func(i int) int64 { return keys[i] })
	for g := range s.cells {
		lo, hi := p.start[g], p.start[g+1]
		if lo == hi {
			continue
		}
		c := &s.cells[g]
		c.rlock()
		for _, i := range p.order[lo:hi] {
			vals[i], ok[i] = c.dict.Get(keys[i])
			if ok[i] && !c.liveAt(keys[i], epoch) {
				vals[i], ok[i] = 0, false
			}
		}
		c.runlock()
	}
	s.planPool.Put(p)
	return vals, ok
}

// DeleteBatch removes every key and returns the number of keys that
// were LOGICALLY present; physically present entries whose expiry has
// passed are removed too, but not counted. Each shard's lock is taken
// once. Duplicate keys within the batch count at most once (the second
// delete finds nothing).
func (s *Store) DeleteBatch(keys []int64) (deleted int) {
	if len(keys) == 0 {
		return 0
	}
	epoch := s.epoch()
	p := s.groupByShard(len(keys), func(i int) int64 { return keys[i] })
	for g := range s.cells {
		lo, hi := p.start[g], p.start[g+1]
		if lo == hi {
			continue
		}
		c := &s.cells[g]
		c.mu.Lock()
		for _, i := range p.order[lo:hi] {
			if c.remove(keys[i], epoch) {
				deleted++
			}
		}
		c.mu.Unlock()
	}
	s.planPool.Put(p)
	return deleted
}
