package hipma

import "fmt"

// Get returns the element of the given rank (0-based). It panics if the
// rank is out of range.
func (p *PMA) Get(rank int) Item {
	if rank < 0 || rank >= p.n {
		panic(fmt.Sprintf("hipma: rank %d out of range [0, %d)", rank, p.n))
	}
	bfs, iL := p.descendToLeaf(rank)
	n := int(p.ranks.Get(bfs))
	base := p.leafBase(bfs)
	idx := base + p.slotOf(iL, n)
	p.io.Read(int64(idx))
	return p.slots[idx]
}

// descendToLeaf returns the leaf BFS index containing the given rank and
// the rank local to that leaf.
func (p *PMA) descendToLeaf(rank int) (leafBFS, local int) {
	bfs, iL := 1, rank
	for depth := 0; depth < p.h; depth++ {
		rho := int(p.ranks.Get(2 * bfs))
		if iL < rho {
			bfs = 2 * bfs
		} else {
			bfs = 2*bfs + 1
			iL -= rho
		}
	}
	return bfs, iL
}

// Query appends the elements with ranks i through j inclusive to out and
// returns it (§3's Query(i,j)). Given the starting leaf, the scan costs
// O(1 + k/B) I/Os because consecutive elements are separated by O(1)
// gaps (Lemma 8). It panics unless 0 <= i <= j < Len().
func (p *PMA) Query(i, j int, out []Item) []Item {
	if i < 0 || j < i || j >= p.n {
		panic(fmt.Sprintf("hipma: Query(%d, %d) out of range, n=%d", i, j, p.n))
	}
	bfs, local := p.descendToLeaf(i)
	remaining := j - i + 1
	for remaining > 0 {
		n := int(p.ranks.Get(bfs))
		base := p.leafBase(bfs)
		p.io.Scan(int64(base), p.leafSlots, false)
		for t := local; t < n && remaining > 0; t++ {
			out = append(out, p.slots[base+p.slotOf(t, n)])
			remaining--
		}
		local = 0
		bfs++
	}
	return out
}

// AppendAll appends every element, in rank order, to out and returns
// it: a leaf-by-leaf copy, O(1 + N/B) I/Os, valid on an empty PMA.
func (p *PMA) AppendAll(out []Item) []Item {
	return p.collectRange(1, 0, out)
}

// SearchKey returns the rank of the first element >= key and whether an
// exact match exists, by descending the balance-key tree (§5): this is
// the cache-oblivious B-tree search, O(log_B N) I/Os in vEB layout.
// The structure must have been populated in sorted key order.
func (p *PMA) SearchKey(key int64) (rank int, found bool) {
	bfs, first := 1, 0
	for depth := 0; depth < p.h; depth++ {
		bk := p.keys.Get(bfs)
		rho := int(p.ranks.Get(2 * bfs))
		if key < bk || bk == noKey {
			bfs = 2 * bfs
		} else {
			bfs = 2*bfs + 1
			first += rho
		}
	}
	// Scan the leaf for the first element >= key.
	n := int(p.ranks.Get(bfs))
	base := p.leafBase(bfs)
	p.io.Scan(int64(base), p.leafSlots, false)
	for t := 0; t < n; t++ {
		v := p.slots[base+p.slotOf(t, n)].Key
		if v >= key {
			return first + t, v == key
		}
	}
	// Key is larger than everything in this leaf; its rank is just past
	// the leaf's last element.
	return first + n, false
}

// UpdateAt overwrites the payload of the element at the given rank in
// place. The slot layout is untouched, so history independence is
// unaffected. It panics if the rank is out of range.
func (p *PMA) UpdateAt(rank int, val int64) {
	if rank < 0 || rank >= p.n {
		panic(fmt.Sprintf("hipma: rank %d out of range [0, %d)", rank, p.n))
	}
	bfs, iL := p.descendToLeaf(rank)
	n := int(p.ranks.Get(bfs))
	idx := p.leafBase(bfs) + p.slotOf(iL, n)
	p.io.Write(int64(idx))
	p.slots[idx].Val = val
}

// Find returns the rank at which key should be inserted to keep the
// array sorted (the rank of the first element >= key).
func (p *PMA) Find(key int64) int {
	rank, _ := p.SearchKey(key)
	return rank
}

// InsertKey inserts a key-value pair in sorted key position (duplicate
// keys allowed).
func (p *PMA) InsertKey(key, val int64) {
	p.InsertAt(p.Find(key), Item{Key: key, Val: val})
}

// DeleteKey removes one occurrence of key and reports whether it was
// present.
func (p *PMA) DeleteKey(key int64) bool {
	rank, found := p.SearchKey(key)
	if !found {
		return false
	}
	p.DeleteAt(rank)
	return true
}

// Ascend calls fn on every element in rank order, stopping early if fn
// returns false. It streams leaf by leaf, so it costs O(1 + N/B) I/Os.
func (p *PMA) Ascend(fn func(rank int, it Item) bool) {
	rank := 0
	firstLeaf := 1 << uint(p.h)
	var buf []Item
	for leaf := firstLeaf; leaf < 2*firstLeaf; leaf++ {
		buf = p.leafElems(leaf, buf[:0])
		for _, it := range buf {
			if !fn(rank, it) {
				return
			}
			rank++
		}
	}
}

// Occupancy returns the slot-occupancy bitmap of the physical array —
// the observable an adversary sees (§2's memory representation). Tests
// use it to verify weak history independence statistically.
func (p *PMA) Occupancy() []bool {
	occ := make([]bool, len(p.slots))
	numLeaves := 1 << uint(p.h)
	firstLeaf := numLeaves
	for leaf := firstLeaf; leaf < firstLeaf+numLeaves; leaf++ {
		n := int(p.ranks.Get(leaf))
		base := p.leafBase(leaf)
		for t := 0; t < n; t++ {
			occ[base+p.slotOf(t, n)] = true
		}
	}
	return occ
}

// BalanceObs reports one range's balance-element position for the §4.3
// uniformity experiment: the balance's offset within its candidate
// window, and the window size.
type BalanceObs struct {
	Depth      int
	RangeIndex int // left-to-right index of the range at its depth
	Offset     int // balance position within the window, in [0, Window)
	Window     int // effective candidate-window size
}

// BalancePositions returns the balance observation for every non-leaf
// range whose effective candidate window has size >= minWindow —
// the data the paper feeds its χ² uniformity test (§4.3).
func (p *PMA) BalancePositions(minWindow int) []BalanceObs {
	var obs []BalanceObs
	var walk func(bfs, depth int)
	walk = func(bfs, depth int) {
		if depth >= p.h {
			return
		}
		l := int(p.ranks.Get(bfs))
		if l > 0 {
			rho := int(p.ranks.Get(2 * bfs))
			s0, m := middleWindow(l, p.cand[depth])
			if m >= minWindow {
				obs = append(obs, BalanceObs{
					Depth:      depth,
					RangeIndex: bfs - (1 << uint(depth)),
					Offset:     rho - s0,
					Window:     m,
				})
			}
		}
		walk(2*bfs, depth+1)
		walk(2*bfs+1, depth+1)
	}
	walk(1, 0)
	return obs
}

// CheckInvariants verifies the structure's internal consistency: rank
// tree sums, leaf capacities (Lemma 7), balance elements inside their
// candidate windows (Invariant 6), balance keys matching the first
// element of each right half, and the O(1)-gap bound (Lemma 8, only
// meaningful in tree mode). Tests call it after randomized workloads.
func (p *PMA) CheckInvariants() error {
	// Rank tree consistency: every internal node equals the sum of its
	// children, and the root equals n.
	if got := int(p.ranks.Get(1)); got != p.n {
		return fmt.Errorf("hipma: root count %d != n %d", got, p.n)
	}
	var walk func(bfs, depth, first int) error
	walk = func(bfs, depth, first int) error {
		l := int(p.ranks.Get(bfs))
		if depth == p.h {
			if l > p.leafSlots {
				return fmt.Errorf("hipma: leaf %d holds %d > %d slots (Lemma 7 violated)", bfs, l, p.leafSlots)
			}
			return nil
		}
		left := int(p.ranks.Get(2 * bfs))
		right := int(p.ranks.Get(2*bfs + 1))
		if left+right != l {
			return fmt.Errorf("hipma: node %d count %d != %d + %d", bfs, l, left, right)
		}
		if l > 0 {
			s0, m := middleWindow(l, p.cand[depth])
			if left < s0 || left > s0+m-1 {
				return fmt.Errorf("hipma: node %d balance rank %d outside window [%d, %d] (Invariant 6)",
					bfs, left, s0, s0+m-1)
			}
			// Balance key = first element of the right half.
			if right > 0 {
				wantKey := p.elemAt(2*bfs+1, depth+1, 0).Key
				if got := p.keys.Get(bfs); got != wantKey {
					return fmt.Errorf("hipma: node %d balance key %d != first of right half %d", bfs, got, wantKey)
				}
			}
		} else if p.keys.Get(bfs) != noKey {
			return fmt.Errorf("hipma: empty node %d has non-sentinel key", bfs)
		}
		if err := walk(2*bfs, depth+1, first); err != nil {
			return err
		}
		return walk(2*bfs+1, depth+1, first+left)
	}
	if err := walk(1, 0, 0); err != nil {
		return err
	}
	// Gap bound (Lemma 8). Two checks:
	//  1. Structural: with the midpoint spread, the gap between
	//     consecutive elements is at most S/n_a/2 + S/n_b/2 + max(S/n)
	//     for the leaf counts involved, so maxGap <= 2*S/minLeaf + 2.
	//  2. Asymptotic: once the PMA is large, every leaf holds Ω(log N̂)
	//     elements, making the gap O(1).
	if p.h > 0 && p.n > 0 {
		// The widest run of empty slots between two occupied ones, leaf by
		// leaf: a leaf's elements sit at increasing slots (slotOf), and
		// leaves follow one another in the array, so no bitmap is needed.
		maxGap, last := 0, -1
		firstLeaf := 1 << uint(p.h)
		for leaf := firstLeaf; leaf < 2*firstLeaf; leaf++ {
			n := int(p.ranks.Get(leaf))
			base := p.leafBase(leaf)
			for t := 0; t < n; t++ {
				pos := base + p.slotOf(t, n)
				if last >= 0 && pos-last-1 > maxGap {
					maxGap = pos - last - 1
				}
				last = pos
			}
		}
		minLeaf := p.leafSlots
		for leaf := firstLeaf; leaf < 2*firstLeaf; leaf++ {
			if c := int(p.ranks.Get(leaf)); c < minLeaf {
				minLeaf = c
			}
		}
		if minLeaf < 1 {
			minLeaf = 1
		}
		if limit := 2*p.leafSlots/minLeaf + 2; maxGap > limit {
			return fmt.Errorf("hipma: gap of %d empty slots exceeds structural bound %d (minLeaf=%d)",
				maxGap, limit, minLeaf)
		}
		if p.n >= 16384 && minLeaf < p.leafSlots/32 {
			return fmt.Errorf("hipma: leaf with only %d of %d slots full at n=%d (Lemma 8)",
				minLeaf, p.leafSlots, p.n)
		}
	}
	return nil
}

// elemAt returns the element at local rank iL of the subtree at
// bfs/depth (used by invariant checking only).
func (p *PMA) elemAt(bfs, depth, iL int) Item {
	for depth < p.h {
		rho := int(p.ranks.Get(2 * bfs))
		if iL < rho {
			bfs = 2 * bfs
		} else {
			bfs = 2*bfs + 1
			iL -= rho
		}
		depth++
	}
	n := int(p.ranks.Get(bfs))
	base := p.leafBase(bfs)
	return p.slots[base+p.slotOf(iL, n)]
}
