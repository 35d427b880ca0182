package shard

import "math"

// Cross-shard ordered iteration. The hash routing scatters any key
// interval across all shards, so Range and Ascend query every shard and
// merge the per-shard sorted streams with a k-way binary heap. Keys are
// unique across shards (each key routes to exactly one), so the merge
// needs no tie-breaking. Every variant yields only LIVE items: entries
// whose TTL expiry has passed are filtered under the same lock hold
// that copied them, before the merge ever sees them.
//
// Locking: Range and Ascend do NOT hold all shard locks for the
// duration of the scan, and never hold more than one lock at a time.
// Range copies each shard's [lo,hi] run under that shard's own brief
// read lock, then merges the copies with no locks held. Ascend streams
// each shard in fixed-size chunks, re-taking the shard's lock per
// refill and continuing strictly above the last key seen, so an early-
// exiting caller pays O(shards·chunk), not O(N), and a long scan never
// blocks writers on unrelated shards
// (BenchmarkStoreWriterLatencyDuringScan at the repo root measures the
// writer-latency win). The price is snapshot granularity: Range is
// per-shard consistent, Ascend per-chunk consistent; neither is a
// cross-shard atomic cut. Callers that need one should use WriteTo,
// which still holds every lock.

// runChunk is the Ascend refill size, in items.
const runChunk = 512

// mergeScratch is one scan's reusable state: a run struct and an item
// buffer per shard, plus the heap's pointer slice. Recycled through
// Store.mergePool so a steady scan workload stops allocating once the
// buffers have grown to its working set.
type mergeScratch struct {
	runs []run
	heap []*run
	bufs [][]Item
	exps []Item // filterLive's expiry-index window: shards are visited one at a time, so one suffices
}

// scratchKeepCap bounds the per-shard item buffers a scratch may keep
// when returned to the pool: a whole-keyspace Range can grow a buffer
// to the shard's size, and pinning that forever would trade the
// allocation win for resident memory.
const scratchKeepCap = 64 << 10

func (s *Store) getScratch() *mergeScratch {
	if v := s.mergePool.Get(); v != nil {
		return v.(*mergeScratch)
	}
	n := len(s.cells)
	return &mergeScratch{
		runs: make([]run, n),
		heap: make([]*run, 0, n),
		bufs: make([][]Item, n),
	}
}

// putScratch reclaims the buffers the runs grew (refill may have
// reallocated them) and returns the scratch to the pool.
func (s *Store) putScratch(ms *mergeScratch) {
	for i := range ms.runs {
		if buf := ms.runs[i].buf; buf != nil && cap(buf) <= scratchKeepCap {
			ms.bufs[i] = buf[:0]
		}
		ms.runs[i] = run{}
	}
	ms.heap = ms.heap[:0]
	if cap(ms.exps) > scratchKeepCap {
		ms.exps = nil
	}
	s.mergePool.Put(ms)
}

// run is one shard's contribution to a merge: either a fully copied
// window (Range) or a lazily refilled chunk stream (Ascend).
type run struct {
	c       *cell   // non-nil: refill lazily from this shard; nil: buf is complete
	epoch   int64   // TTL epoch for refill-side liveness filtering
	exps    *[]Item // the scan's filterLive scratch
	buf     []Item
	pos     int
	last    int64 // largest key fetched so far (valid once started)
	started bool
}

func (r *run) head() Item { return r.buf[r.pos] }

// refill fetches the next chunk of keys strictly above r.last under the
// shard's own brief read lock and reports whether a head item exists.
// Anchoring on the last key (rather than a remembered rank) keeps the
// stream strictly increasing and duplicate-free even when the shard
// mutates between refills. Chunks whose items have all expired are
// skipped — the anchor advances past them — so a dead-heavy region
// costs extra refills, never a wrong result.
func (r *run) refill() bool {
	c := r.c
	if c == nil {
		return false
	}
	for {
		var lo int
		c.rlock()
		if !r.started {
			r.started = true
			lo = 0
		} else if r.last == math.MaxInt64 {
			lo = c.dict.Len() // nothing can follow the maximum key
		} else {
			lo = c.dict.RankOf(r.last + 1)
		}
		n := c.dict.Len()
		if lo >= n {
			c.runlock()
			r.c = nil // drained
			return false
		}
		hi := lo + runChunk - 1
		if hi >= n {
			hi = n - 1
		}
		r.buf = c.dict.PMA().Query(lo, hi, r.buf[:0])
		last := r.buf[len(r.buf)-1].Key
		r.buf = c.filterLive(r.buf, r.epoch, r.exps)
		c.runlock()
		r.last = last
		if len(r.buf) > 0 {
			r.pos = 0
			return true
		}
	}
}

// advance moves to the next item, refilling lazily for shard-backed
// runs. It reports whether a current item exists.
func (r *run) advance() bool {
	r.pos++
	if r.pos < len(r.buf) {
		return true
	}
	return r.refill()
}

// siftDown maintains a min-heap of runs ordered by head key.
func siftDown(h []*run, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h[l].head().Key < h[m].head().Key {
			m = l
		}
		if r < len(h) && h[r].head().Key < h[m].head().Key {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// merge drains the runs in ascending key order, calling fn on every
// item until fn returns false. Runs must be non-empty (have a head).
func merge(h []*run, fn func(Item) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		if !fn(h[0].head()) {
			return
		}
		if h[0].advance() {
			siftDown(h, 0)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			if len(h) > 0 {
				siftDown(h, 0)
			}
		}
	}
}

// Range appends all live items with lo <= key <= hi to out, in
// ascending key order, merged across shards. Each shard's run is copied
// and liveness-filtered under its own brief read lock (O(log_B N +
// k_i/B) I/Os, Theorem 2), so writers on other shards are never
// blocked; the merged result is per-shard consistent, not a cross-shard
// atomic cut.
func (s *Store) Range(lo, hi int64, out []Item) []Item {
	if lo > hi {
		return out
	}
	epoch := s.epoch()
	ms := s.getScratch()
	runs := ms.heap
	for i := range s.cells {
		c := &s.cells[i]
		c.rlock()
		items := c.filterLive(c.dict.Range(lo, hi, ms.bufs[i][:0]), epoch, &ms.exps)
		c.runlock()
		ms.runs[i].buf = items
		if len(items) > 0 {
			runs = append(runs, &ms.runs[i])
		}
	}
	merge(runs, func(it Item) bool {
		out = append(out, it)
		return true
	})
	s.putScratch(ms)
	return out
}

// rangeLiveN appends up to max live items of [lo, hi] from c to out.
// Without TTLs in play it is a single dictionary call; with them it
// filters each fetched batch in place and refetches past expired
// entries, so a dead-heavy prefix cannot starve the window of the live
// items beyond it. The caller holds the cell's lock.
func (c *cell) rangeLiveN(lo, hi int64, max int, epoch int64, out []Item, exps *[]Item) []Item {
	if epoch <= 0 || c.exps.Len() == 0 {
		return c.dict.RangeN(lo, hi, max, out)
	}
	base := len(out)
	cur := lo
	for len(out)-base < max {
		need := max - (len(out) - base)
		at := len(out)
		out = c.dict.RangeN(cur, hi, need, out)
		fetched := len(out) - at
		if fetched == 0 {
			break
		}
		last := out[len(out)-1].Key
		out = out[:at+len(c.filterLive(out[at:], epoch, exps))]
		if fetched < need || last >= hi || last == math.MaxInt64 {
			break // window exhausted
		}
		cur = last + 1
	}
	return out
}

// RangeN appends at most max live items with lo <= key <= hi to out in
// ascending key order and reports whether the window held more. Each
// shard contributes a window bounded at max+1 live items under its own
// brief lock (the merged prefix of length max+1 can draw at most that
// many from any one shard), so memory and work are O(shards·max) plus
// the expired entries stepped over, however large the full window is —
// the form a network server must use, where max is the reply-size cap
// and clients paginate. Like Range, the result is per-shard consistent,
// not a cross-shard cut.
func (s *Store) RangeN(lo, hi int64, max int, out []Item) (_ []Item, more bool) {
	if lo > hi || max <= 0 {
		return out, false
	}
	if max > int(^uint(0)>>1)-1 {
		max = int(^uint(0)>>1) - 1 // keep the max+1 sentinel below from overflowing
	}
	epoch := s.epoch()
	ms := s.getScratch()
	runs := ms.heap
	for i := range s.cells {
		c := &s.cells[i]
		c.rlock()
		items := c.rangeLiveN(lo, hi, max+1, epoch, ms.bufs[i][:0], &ms.exps)
		c.runlock()
		ms.runs[i].buf = items
		if len(items) > 0 {
			runs = append(runs, &ms.runs[i])
		}
	}
	n := 0
	merge(runs, func(it Item) bool {
		if n == max {
			more = true
			return false
		}
		out = append(out, it)
		n++
		return true
	})
	s.putScratch(ms)
	return out, more
}

// Ascend calls fn on every live item in ascending key order, merged
// across shards, stopping early if fn returns false. Shards are
// streamed in runChunk-item chunks, each fetched under its shard's own
// brief read lock, so memory stays O(shards·chunk) and an early stop
// costs the same; no locks are held while fn runs, so fn may call back
// into the store. The iteration is per-chunk consistent: items are
// yielded in strictly increasing key order, but concurrent mutations
// may or may not be observed.
func (s *Store) Ascend(fn func(Item) bool) {
	epoch := s.epoch()
	ms := s.getScratch()
	runs := ms.heap
	for i := range s.cells {
		r := &ms.runs[i]
		*r = run{c: &s.cells[i], epoch: epoch, exps: &ms.exps, buf: ms.bufs[i][:0]}
		if r.refill() {
			runs = append(runs, r)
		}
	}
	merge(runs, fn)
	s.putScratch(ms)
}

// minLive returns the cell's smallest live item. The caller holds the
// cell's lock.
func (c *cell) minLive(epoch int64) (Item, bool) {
	if epoch <= 0 || c.exps.Len() == 0 {
		return c.dict.Min()
	}
	var out Item
	found := false
	c.dict.Ascend(func(it Item) bool {
		if c.liveAt(it.Key, epoch) {
			out, found = it, true
			return false
		}
		return true
	})
	return out, found
}

// maxLive returns the cell's largest live item. The caller holds the
// cell's lock.
func (c *cell) maxLive(epoch int64) (Item, bool) {
	if epoch <= 0 || c.exps.Len() == 0 {
		return c.dict.Max()
	}
	for r := c.dict.Len() - 1; r >= 0; r-- {
		if it := c.dict.Select(r); c.liveAt(it.Key, epoch) {
			return it, true
		}
	}
	return Item{}, false
}

// Min returns the smallest live item across all shards. ok is false
// when the store is (logically) empty.
func (s *Store) Min() (it Item, ok bool) {
	epoch := s.epoch()
	s.lockAllShared()
	defer s.unlockAllShared()
	for i := range s.cells {
		if m, found := s.cells[i].minLive(epoch); found && (!ok || m.Key < it.Key) {
			it, ok = m, true
		}
	}
	return it, ok
}

// Max returns the largest live item across all shards. ok is false when
// the store is (logically) empty.
func (s *Store) Max() (it Item, ok bool) {
	epoch := s.epoch()
	s.lockAllShared()
	defer s.unlockAllShared()
	for i := range s.cells {
		if m, found := s.cells[i].maxLive(epoch); found && (!ok || m.Key > it.Key) {
			it, ok = m, true
		}
	}
	return it, ok
}
