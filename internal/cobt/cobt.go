// Package cobt implements the history-independent cache-oblivious B-tree
// of §5 (Theorem 2): a key-value dictionary built on the augmented HI
// packed-memory array. The augmentation — a static-topology tree of
// balance-element keys in van Emde Boas layout, identical in shape and
// maintenance to the rank tree — lives inside package hipma; this
// package supplies the dictionary API a database index needs:
//
//	Put, Get, Delete, Has      — point operations, O(log_B N) I/O searches
//	Range, Ascend              — range queries, O(log_B N + k/B) I/Os
//	Min, Max, Select, RankOf   — order statistics
//
// Inserts and deletes cost O(log²N/B + log_B N) amortized I/Os with high
// probability; when B = Ω(log N · log log N) — reasonable on today's
// systems, as the paper notes — that is O(log_B N), matching a classic
// B-tree while leaking nothing about the operation history.
package cobt

import (
	"fmt"
	"io"

	"repro/internal/hipma"
	"repro/internal/iomodel"
)

// Item re-exports the PMA element type: a key with an opaque payload.
type Item = hipma.Item

// Dictionary is a history-independent, cache-oblivious B-tree mapping
// int64 keys to int64 values. Keys are unique (Put is an upsert); use
// the underlying PMA directly if duplicate keys are needed.
type Dictionary struct {
	pma *hipma.PMA
}

// New returns an empty dictionary seeded with the given randomness.
// io may be nil to disable DAM-model accounting.
func New(seed uint64, io *iomodel.Tracker) *Dictionary {
	return &Dictionary{pma: hipma.New(seed, io)}
}

// NewWithConfig returns an empty dictionary with custom PMA constants.
func NewWithConfig(cfg hipma.Config, seed uint64, io *iomodel.Tracker) (*Dictionary, error) {
	p, err := hipma.NewWithConfig(cfg, seed, io)
	if err != nil {
		return nil, err
	}
	return &Dictionary{pma: p}, nil
}

// Len returns the number of keys stored.
func (d *Dictionary) Len() int { return d.pma.Len() }

// PMA exposes the underlying packed-memory array for instrumentation
// (move counts, occupancy, invariant checks).
func (d *Dictionary) PMA() *hipma.PMA { return d.pma }

// Put inserts or updates the value for key and reports whether the key
// was newly inserted.
func (d *Dictionary) Put(key, val int64) (inserted bool) {
	rank, found := d.pma.SearchKey(key)
	if found {
		d.pma.UpdateAt(rank, val)
		return false
	}
	d.pma.InsertAt(rank, Item{Key: key, Val: val})
	return true
}

// Get returns the value stored for key and whether it exists.
func (d *Dictionary) Get(key int64) (val int64, ok bool) {
	rank, found := d.pma.SearchKey(key)
	if !found {
		return 0, false
	}
	return d.pma.Get(rank).Val, true
}

// Has reports whether key is present.
func (d *Dictionary) Has(key int64) bool {
	_, found := d.pma.SearchKey(key)
	return found
}

// Delete removes key and reports whether it was present.
func (d *Dictionary) Delete(key int64) bool {
	return d.pma.DeleteKey(key)
}

// Range appends all items with lo <= key <= hi to out, in key order:
// one search plus a scan, O(log_B N + k/B) I/Os (Theorem 2).
func (d *Dictionary) Range(lo, hi int64, out []Item) []Item {
	return d.RangeN(lo, hi, d.pma.Len(), out)
}

// RangeN is Range bounded to at most max items: the scan stops after
// max elements instead of materializing the whole [lo, hi] window, so
// the cost is O(log_B N + max/B) I/Os regardless of how many keys the
// window holds. max <= 0 returns out unchanged.
func (d *Dictionary) RangeN(lo, hi int64, max int, out []Item) []Item {
	if lo > hi || max <= 0 || d.pma.Len() == 0 {
		return out
	}
	start, _ := d.pma.SearchKey(lo)
	if start >= d.pma.Len() {
		return out
	}
	// Find the last rank with key <= hi: the rank of the first element
	// > hi, minus one. SearchKey(hi+1) gives that boundary (careful with
	// int64 overflow at the maximum key).
	var end int
	if hi == int64(^uint64(0)>>1) {
		end = d.pma.Len() - 1
	} else {
		end, _ = d.pma.SearchKey(hi + 1)
		end--
	}
	if end-start+1 > max {
		end = start + max - 1
	}
	if end < start {
		return out
	}
	return d.pma.Query(start, end, out)
}

// Ascend calls fn on every item in key order, stopping early if fn
// returns false.
func (d *Dictionary) Ascend(fn func(Item) bool) {
	n := d.pma.Len()
	const chunk = 1024
	buf := make([]Item, 0, chunk)
	for i := 0; i < n; i += chunk {
		j := i + chunk - 1
		if j >= n {
			j = n - 1
		}
		buf = d.pma.Query(i, j, buf[:0])
		for _, it := range buf {
			if !fn(it) {
				return
			}
		}
	}
}

// Min returns the smallest item. ok is false when empty.
func (d *Dictionary) Min() (it Item, ok bool) {
	if d.pma.Len() == 0 {
		return Item{}, false
	}
	return d.pma.Get(0), true
}

// Max returns the largest item. ok is false when empty.
func (d *Dictionary) Max() (it Item, ok bool) {
	n := d.pma.Len()
	if n == 0 {
		return Item{}, false
	}
	return d.pma.Get(n - 1), true
}

// Select returns the item with the given rank (0-based, in key order).
// It panics if rank is out of range.
func (d *Dictionary) Select(rank int) Item {
	if rank < 0 || rank >= d.pma.Len() {
		panic(fmt.Sprintf("cobt: Select(%d) out of range, n=%d", rank, d.pma.Len()))
	}
	return d.pma.Get(rank)
}

// RankOf returns the number of keys strictly smaller than key.
func (d *Dictionary) RankOf(key int64) int {
	rank, _ := d.pma.SearchKey(key)
	return rank
}

// WriteTo serializes the dictionary's exact memory representation (the
// underlying PMA image); see hipma.WriteTo. It implements io.WriterTo.
func (d *Dictionary) WriteTo(w io.Writer) (int64, error) {
	return d.pma.WriteTo(w)
}

// ReadDictionary reads one dictionary image produced by WriteTo from r
// (exactly its bytes; see hipma.ReadImage) and decodes it as
// DecodeDictionary does.
func ReadDictionary(r io.Reader, seed uint64, io2 *iomodel.Tracker) (*Dictionary, error) {
	return loaded(hipma.ReadImage(r, seed, io2))
}

// DecodeDictionary deserializes a dictionary from img, which must be
// exactly one image produced by WriteTo. The seed supplies fresh
// randomness for future operations; io may be nil. The PMA's structural
// invariants (hipma.DecodeImage) and the dictionary-level one (unique
// sorted keys) are each verified once.
func DecodeDictionary(img []byte, seed uint64, io2 *iomodel.Tracker) (*Dictionary, error) {
	return loaded(hipma.DecodeImage(img, seed, io2))
}

// loaded wraps a freshly decoded — and therefore already
// invariant-checked — PMA, adding the check only a dictionary needs.
func loaded(p *hipma.PMA, err error) (*Dictionary, error) {
	if err != nil {
		return nil, err
	}
	d := &Dictionary{pma: p}
	if err := d.checkSorted(); err != nil {
		return nil, fmt.Errorf("cobt: corrupt image: %w", err)
	}
	return d, nil
}

// CheckInvariants verifies the underlying PMA plus the dictionary-level
// invariant that keys are unique and sorted.
func (d *Dictionary) CheckInvariants() error {
	if err := d.pma.CheckInvariants(); err != nil {
		return err
	}
	return d.checkSorted()
}

// checkSorted walks the keys in rank order, leaf by leaf.
func (d *Dictionary) checkSorted() error {
	var err error
	var prev int64
	d.pma.Ascend(func(rank int, it Item) bool {
		if rank > 0 && it.Key <= prev {
			err = fmt.Errorf("cobt: keys not strictly increasing at rank %d: %d <= %d", rank, it.Key, prev)
		}
		prev = it.Key
		return err == nil
	})
	return err
}
