package shard

import "fmt"

// Op is one mutation in a mixed ApplyBatch: an upsert of (Key, Val)
// with optional expiry, or a delete of Key when Delete is set.
type Op struct {
	Key, Val int64
	// Exp is the absolute expiry epoch for an upsert (0: never expires —
	// and any previously recorded expiry is cleared).
	Exp int64
	// Delete makes the op an unconditional removal of Key.
	Delete bool
}

// ApplyBatch applies a mixed sequence of upserts and deletes, grouped
// by shard with each shard's lock taken exactly once, and reports the
// per-operation outcome: changed[i] is true when op i changed LOGICAL
// key presence (a fresh insert — including over an expired entry — or a
// delete that found a live key). The return value is the number of
// true entries. Operations on the same shard apply in batch order (the
// grouping is stable), so a put and a delete of the same key within one
// batch resolve exactly as the equivalent sequence of point operations
// would.
//
// This is the server-side coalescing primitive: writes from many
// network connections are gathered into one ApplyBatch, turning k
// point-op lock acquisitions into at most min(k, shards) while
// preserving every connection's submission order and per-op result.
//
// changed must be nil (outcomes discarded) or have len(ops).
func (s *Store) ApplyBatch(ops []Op, changed []bool) (n int, err error) {
	if changed != nil && len(changed) != len(ops) {
		return 0, fmt.Errorf("shard: ApplyBatch: %d outcome slots for %d ops", len(changed), len(ops))
	}
	if len(ops) == 0 {
		return 0, nil
	}
	epoch := s.epoch()
	p := s.groupByShard(len(ops), func(i int) int64 { return ops[i].Key })
	for g := range s.cells {
		lo, hi := p.start[g], p.start[g+1]
		if lo == hi {
			continue
		}
		c := &s.cells[g]
		c.mu.Lock()
		for _, i := range p.order[lo:hi] {
			op := &ops[i]
			var ch bool
			if op.Delete {
				ch = c.remove(op.Key, epoch)
			} else {
				ch = c.upsert(op.Key, op.Val, op.Exp, epoch)
			}
			if ch {
				n++
			}
			if changed != nil {
				changed[i] = ch
			}
		}
		c.mu.Unlock()
	}
	s.planPool.Put(p)
	return n, nil
}
