// Package hipma implements the paper's primary contribution (§3, Theorem
// 1): a weakly history-independent packed-memory array. The PMA keeps N
// elements in a Θ(N)-slot array in user order with O(1) gaps, supporting
// rank-based inserts, deletes and range queries in O(log² N) amortized
// element moves with high probability — while guaranteeing that the
// entire memory representation (including unused slots) is a function of
// only the logical state and fresh randomness, never of the operation
// history (Definition 4, Lemma 9).
//
// Structure (§3.3): the array is a complete binary tree of ranges of
// height h = ⌈log N̂ − log log N̂⌉, where N̂ is the WHI dynamic-array size
// parameter, uniform in {N..2N−1} (§2.1, [36]). Leaf ranges hold
// ⌈C_L·log N̂⌉ slots. Every non-leaf range R splits its elements around a
// balance element b_R — the first element of R's right half — chosen
// uniformly from R's candidate set M_R, the ⌈c₁·N̂·2^{−d}/log N̂⌉ middle
// elements of R. Balance elements are maintained by reservoir sampling
// with deletes (§3.2); when one changes, the whole range is rebuilt
// (§3.4). Per-range element counts live in a rank tree stored in van
// Emde Boas layout (§3.5), and a parallel, identically-shaped tree of
// balance-element keys supports search by value, which is exactly the
// augmentation that turns this PMA into the history-independent
// cache-oblivious B-tree of §5 (Theorem 2).
package hipma

import (
	"fmt"
	"math"

	"repro/internal/hialloc"
	"repro/internal/iomodel"
	"repro/internal/veb"
	"repro/internal/xrand"
)

// noKey is the balance-key sentinel for ranges whose right half is
// empty; search descends left past it.
const noKey = math.MaxInt64

// Config holds the PMA's tunable constants (§3.3).
type Config struct {
	// C1 is the candidate-set fraction c₁ ∈ (0, 1): larger values mean
	// larger candidate sets, hence fewer rebuilds but more space. The
	// paper requires c₁ < 1 − 6/log N̂; the implementation clamps per-N̂.
	C1 float64
	// CL is the leaf-size constant C_L ≥ 1 + c₁ + 6/log N̂: leaves hold
	// ⌈C_L·log N̂⌉ slots.
	CL float64
	// MinTreeNhat is the N̂ below which the structure degenerates to a
	// single evenly-spread leaf (the WHI dynamic array), per footnote 5:
	// for small N̂ no valid c₁ exists.
	MinTreeNhat int
}

// DefaultConfig returns the paper's suggested constants c₁ = 1/2,
// C_L = 2 (§3.3), with the small-N̂ fallback at 128.
func DefaultConfig() Config {
	return Config{C1: 0.5, CL: 2, MinTreeNhat: 128}
}

func (c Config) validate() error {
	if !(0 < c.C1 && c.C1 < 1) {
		return fmt.Errorf("hipma: C1 %v must be in (0, 1)", c.C1)
	}
	if c.CL < 2 {
		return fmt.Errorf("hipma: CL %v must be >= 2", c.CL)
	}
	if c.MinTreeNhat < 128 {
		return fmt.Errorf("hipma: MinTreeNhat %d must be >= 128", c.MinTreeNhat)
	}
	return nil
}

// Item is the element type stored in the PMA: a key plus an opaque
// payload. The cache-oblivious B-tree (§5) is this same structure used
// as a key-value dictionary; carrying the payload inside the array keeps
// the whole memory representation history independent.
type Item struct {
	Key int64
	Val int64
}

// PMA is a weakly history-independent packed-memory array of Items.
// Keys must be inserted in positions consistent with their sorted order
// for SearchKey to be meaningful; the rank-based API itself supports any
// user-specified order, as in the paper.
type PMA struct {
	cfg Config
	rng *xrand.Source
	io  *iomodel.Tracker

	sizer *hialloc.Sizer // maintains N̂ uniform in {N..2N-1}

	// Geometry, fixed between full rebuilds (all derived from N̂).
	nhat      int
	h         int   // tree height: ranges at depths 0..h; leaves at h
	leafSlots int   // slots per leaf range
	cand      []int // candidate-set size m_d per depth d in [0, h)

	slots []Item    // the array: NS = 2^h * leafSlots slots
	ranks *veb.Tree // per-range element counts, vEB layout
	keys  *veb.Tree // per-range balance-element keys, vEB layout (§5)

	n int // elements stored

	// Cost counters.
	moves        uint64 // element slot-writes (Figure 2's measure)
	rebuilds     uint64 // partial range rebuilds (lottery + out-of-bounds)
	fullRebuilds uint64 // whole-structure rebuilds (N̂ resamples)

	scratch []Item // reusable collection buffer
}

// New returns an empty history-independent PMA with default constants.
// The seed determines all of the structure's randomness; io may be nil.
func New(seed uint64, io *iomodel.Tracker) *PMA {
	p, err := NewWithConfig(DefaultConfig(), seed, io)
	if err != nil {
		panic(err) // defaults always valid
	}
	return p
}

// NewWithConfig returns an empty PMA with the given constants.
func NewWithConfig(cfg Config, seed uint64, io *iomodel.Tracker) (*PMA, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &PMA{cfg: cfg, rng: xrand.New(seed), io: io}
	p.sizer = hialloc.NewSizer(0, p.rng.Split())
	p.install(nil)
	return p, nil
}

// BulkLoad builds a PMA holding items (in the given order) in O(N)
// time — one install with a fresh N̂ and fresh balance elements, which
// is trivially history independent: the result is distributed exactly
// like a PMA that reached the same contents by any operation sequence.
func BulkLoad(items []Item, seed uint64, io *iomodel.Tracker) *PMA {
	p, err := BulkLoadWithConfig(DefaultConfig(), items, seed, io)
	if err != nil {
		panic(err) // defaults always valid
	}
	return p
}

// BulkLoadWithConfig is BulkLoad with custom constants.
func BulkLoadWithConfig(cfg Config, items []Item, seed uint64, io *iomodel.Tracker) (*PMA, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &PMA{cfg: cfg, rng: xrand.New(seed), io: io}
	p.sizer = hialloc.NewSizer(len(items), p.rng.Split())
	// install reads the contents while writing fresh slots, so hand it
	// a private copy (callers may retain and mutate items).
	elems := make([]Item, len(items))
	copy(elems, items)
	p.install(elems)
	return p, nil
}

// Len returns the number of elements stored.
func (p *PMA) Len() int { return p.n }

// Config returns the constants the PMA was built (or loaded) with.
func (p *PMA) Config() Config { return p.cfg }

// Nhat returns the current size parameter N̂ (uniform in {N..2N−1}).
func (p *PMA) Nhat() int { return p.nhat }

// SlotCount returns the physical array size N_S.
func (p *PMA) SlotCount() int { return len(p.slots) }

// Height returns the range-tree height h.
func (p *PMA) Height() int { return p.h }

// Moves returns the cumulative element slot-writes — the cost measure
// the paper plots in Figure 2.
func (p *PMA) Moves() uint64 { return p.moves }

// Rebuilds returns the number of partial range rebuilds performed.
func (p *PMA) Rebuilds() uint64 { return p.rebuilds }

// FullRebuilds returns the number of whole-structure rebuilds.
func (p *PMA) FullRebuilds() uint64 { return p.fullRebuilds }

// geometry computes the derived parameters for a given N̂.
func (c Config) geometry(nhat int) (h, leafSlots int, cand []int) {
	if nhat < c.MinTreeNhat {
		// Dynamic-array fallback (footnote 5): a single evenly-spread
		// leaf of 2·N̂ slots.
		ls := 2 * nhat
		if ls < 4 {
			ls = 4
		}
		return 0, ls, nil
	}
	logN := math.Log2(float64(nhat))
	h = int(math.Ceil(logN - math.Log2(logN)))
	if h < 1 {
		h = 1
	}
	leafSlots = int(math.Ceil(c.CL * logN))
	// Effective c₁ must satisfy c₁ < 1 − 6/log N̂ (Lemma 8) and
	// C_L ≥ 1 + c₁ + 6/log N̂ (Lemma 7); clamp with a safety factor.
	c1 := c.C1
	if lim := 0.8 * (1 - 6/logN); c1 > lim {
		c1 = lim
	}
	if lim := 0.9 * (c.CL - 1 - 6/logN); c1 > lim {
		c1 = lim
	}
	cand = make([]int, h)
	for d := 0; d < h; d++ {
		m := int(math.Ceil(c1 * float64(nhat) / (float64(int64(1)<<uint(d)) * logN)))
		if m < 1 {
			m = 1
		}
		cand[d] = m
	}
	return h, leafSlots, cand
}

// install rebuilds the entire structure around the sizer's current N̂,
// laying out elems (the full logical contents, in order).
func (p *PMA) install(elems []Item) {
	p.nhat = p.sizer.Size()
	p.h, p.leafSlots, p.cand = p.cfg.geometry(p.nhat)
	ns := (1 << uint(p.h)) * p.leafSlots
	p.slots = make([]Item, ns)
	layout := veb.For(p.h + 1)
	p.ranks = veb.NewTree(layout, int64(ns), p.io)
	p.keys = veb.NewTree(layout, int64(ns)+int64(layout.NumNodes()), p.io)
	p.n = len(elems)
	p.rebuildRange(1, 0, elems, -1)
}

// middleWindow returns the 0-based start and effective size of the
// candidate window for a range holding l elements with nominal
// candidate-set size m: the min(m, l) middle elements (§3.3).
func middleWindow(l, m int) (start, size int) {
	if l <= m {
		return 0, l
	}
	return (l+1)/2 - (m+1)/2, m
}

// rebuildRange recursively lays out elems into the subtree rooted at the
// given BFS node (at the given depth), re-sampling every descendant
// balance element uniformly from its candidate set (§3.4, Lemma 10).
// forcedRho >= 0 pins the top split's balance rank (used when a lottery
// winner is already determined); pass -1 to sample.
func (p *PMA) rebuildRange(bfs, depth int, elems []Item, forcedRho int) {
	p.ranks.Set(bfs, int64(len(elems)))
	if depth == p.h {
		p.writeLeaf(bfs, elems)
		return
	}
	l := len(elems)
	var rho int
	if l == 0 {
		p.keys.Set(bfs, noKey)
	} else {
		s0, m := middleWindow(l, p.cand[depth])
		if forcedRho >= 0 {
			rho = forcedRho
		} else {
			rho = s0 + p.rng.Intn(m)
		}
		if rho < l {
			p.keys.Set(bfs, elems[rho].Key)
		} else {
			p.keys.Set(bfs, noKey)
		}
	}
	p.rebuildRange(2*bfs, depth+1, elems[:rho], -1)
	p.rebuildRange(2*bfs+1, depth+1, elems[rho:], -1)
}

// slotOf returns the canonical in-leaf slot of element t among n: the
// midpoint spread ⌊(2t+1)·S/(2n)⌋, which centres elements in equal
// sub-intervals so gaps never pile up at leaf boundaries. Slots are
// strictly increasing in t whenever n <= S (Lemma 7 guarantees that).
func (p *PMA) slotOf(t, n int) int {
	return (2*t + 1) * p.leafSlots / (2 * n)
}

// writeLeaf clears the leaf's slots and spreads elems evenly by the
// canonical midpoint rule. The canonical spread (plus zeroed gaps) is
// what makes the leaf layout a pure function of its contents (Lemma 9).
//
// The spread positions ⌊(2t+1)·S/(2n)⌋ are generated incrementally
// (quotient/remainder stepping) to keep this hot path division-free;
// TestSpreadIterMatchesSlotOf pins the equivalence to slotOf.
func (p *PMA) writeLeaf(leafBFS int, elems []Item) {
	base := p.leafBase(leafBFS)
	if len(elems) > p.leafSlots {
		panic(fmt.Sprintf("hipma: leaf overflow: %d elements, %d slots", len(elems), p.leafSlots))
	}
	for i := base; i < base+p.leafSlots; i++ {
		p.slots[i] = Item{}
	}
	n := len(elems)
	if n > 0 {
		den := 2 * n
		pos := p.leafSlots / den // slotOf(0, n)
		rem := p.leafSlots % den // remainder carried forward
		stepQ := 2 * p.leafSlots / den
		stepR := 2 * p.leafSlots % den
		for _, v := range elems {
			p.slots[base+pos] = v
			pos += stepQ
			rem += stepR
			if rem >= den {
				pos++
				rem -= den
			}
		}
	}
	p.moves += uint64(n)
	p.io.Scan(int64(base), p.leafSlots, true)
}

// leafBase returns the slot index of the first slot of a leaf range.
func (p *PMA) leafBase(leafBFS int) int {
	return (leafBFS - (1 << uint(p.h))) * p.leafSlots
}

// leafElems appends the elements of the given leaf to out, in order,
// using the same division-free spread iteration as writeLeaf.
func (p *PMA) leafElems(leafBFS int, out []Item) []Item {
	n := int(p.ranks.Get(leafBFS))
	base := p.leafBase(leafBFS)
	p.io.Scan(int64(base), p.leafSlots, false)
	if n == 0 {
		return out
	}
	den := 2 * n
	pos := p.leafSlots / den
	rem := p.leafSlots % den
	stepQ := 2 * p.leafSlots / den
	stepR := 2 * p.leafSlots % den
	for t := 0; t < n; t++ {
		out = append(out, p.slots[base+pos])
		pos += stepQ
		rem += stepR
		if rem >= den {
			pos++
			rem -= den
		}
	}
	return out
}

// collectRange appends the elements of the subtree rooted at bfs (at the
// given depth) to out, in order, by scanning its leaf descendants.
func (p *PMA) collectRange(bfs, depth int, out []Item) []Item {
	span := 1 << uint(p.h-depth)
	first := bfs << uint(p.h-depth)
	for leaf := first; leaf < first+span; leaf++ {
		out = p.leafElems(leaf, out)
	}
	return out
}
