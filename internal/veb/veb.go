// Package veb implements the static van Emde Boas layout of a complete
// binary tree (§3.5 of the paper, after [14, 51]): a deterministic — and
// hence history-independent — permutation of the tree's nodes such that
// any root-to-leaf path touches O(log_B N) blocks for every block size B
// simultaneously, which is what makes the rank tree and the
// cache-oblivious B-tree's balance-value tree I/O-efficient without
// knowing B.
//
// Nodes are addressed by 1-based BFS (binary-heap) indices: the root is
// 1 and the children of node x are 2x and 2x+1. The layout maps each BFS
// index to a physical slot; the recursion splits a tree of L levels into
// a top tree of ⌊L/2⌋ levels laid out first, followed by each bottom
// subtree of ⌈L/2⌉ levels, left to right, each laid out recursively.
package veb

import (
	"fmt"
	"sync/atomic"

	"repro/internal/iomodel"
)

// Layout is the precomputed vEB permutation for a complete binary tree
// with a given number of levels.
type Layout struct {
	levels int
	pos    []int32 // BFS index -> physical slot; entry 0 unused
}

// NewLayout computes the layout for a complete binary tree of the given
// number of levels (levels >= 1; a tree with L levels has 2^L - 1 nodes).
func NewLayout(levels int) *Layout {
	if levels < 1 || levels > 31 {
		panic(fmt.Sprintf("veb: levels %d out of range [1, 31]", levels))
	}
	l := &Layout{
		levels: levels,
		pos:    make([]int32, 1<<uint(levels)),
	}
	var next int32
	l.build(1, levels, &next)
	return l
}

// layouts holds the shared layout of each level count, built on first
// use (see For).
var layouts [32]atomic.Pointer[Layout]

// For returns the layout for a tree of the given number of levels,
// shared by every caller: a Layout is never written once built, so
// trees of one height — every PMA of that height, every image encoded
// or decoded at it — need only one. The first call per level count
// builds it; levels outside [1, 31] panic as in NewLayout.
func For(levels int) *Layout {
	if levels < 1 || levels >= len(layouts) {
		return NewLayout(levels) // out of range: panics
	}
	if l := layouts[levels].Load(); l != nil {
		return l
	}
	layouts[levels].CompareAndSwap(nil, NewLayout(levels))
	return layouts[levels].Load()
}

func (l *Layout) build(root int64, levels int, next *int32) {
	if levels == 1 {
		l.pos[root] = *next
		*next++
		return
	}
	top := levels / 2
	bottom := levels - top
	l.build(root, top, next)
	// The bottom subtrees hang off the 2^top descendants of root at
	// depth top, in left-to-right BFS order.
	first := root << uint(top)
	for i := int64(0); i < 1<<uint(top); i++ {
		l.build(first+i, bottom, next)
	}
}

// Levels returns the number of levels in the tree.
func (l *Layout) Levels() int { return l.levels }

// NumNodes returns the number of nodes, 2^levels - 1.
func (l *Layout) NumNodes() int { return (1 << uint(l.levels)) - 1 }

// NumLeaves returns the number of leaves, 2^(levels-1).
func (l *Layout) NumLeaves() int { return 1 << uint(l.levels-1) }

// Phys maps a 1-based BFS index to its physical slot in [0, NumNodes).
func (l *Layout) Phys(bfs int) int {
	return int(l.pos[bfs])
}

// Tree is a complete binary tree of int64 values stored physically in
// vEB order, with optional DAM-model I/O accounting. It backs both the
// PMA's rank tree (per-range element counts, §3.5) and the
// cache-oblivious B-tree's balance-value tree (§5).
type Tree struct {
	layout *Layout
	vals   []int64
	base   int64 // address of slot 0 in tracker units
	io     *iomodel.Tracker
}

// NewTree returns a zeroed tree with the given layout. base is the
// structure's starting address for I/O accounting; io may be nil.
func NewTree(layout *Layout, base int64, io *iomodel.Tracker) *Tree {
	return &Tree{
		layout: layout,
		vals:   make([]int64, layout.NumNodes()),
		base:   base,
		io:     io,
	}
}

// Layout returns the tree's layout.
func (t *Tree) Layout() *Layout { return t.layout }

// Get returns the value at the 1-based BFS index, charging one touch.
func (t *Tree) Get(bfs int) int64 {
	p := t.layout.Phys(bfs)
	t.io.Read(t.base + int64(p))
	return t.vals[p]
}

// Set writes the value at the 1-based BFS index, charging one dirty touch.
func (t *Tree) Set(bfs int, v int64) {
	p := t.layout.Phys(bfs)
	t.io.Write(t.base + int64(p))
	t.vals[p] = v
}

// Add adds delta to the value at the 1-based BFS index.
func (t *Tree) Add(bfs int, delta int64) {
	p := t.layout.Phys(bfs)
	t.io.Write(t.base + int64(p))
	t.vals[p] += delta
}

// Physical returns the tree's values in physical (vEB) order — the
// tree's memory representation itself, not a copy, and uncharged: it is
// what an image writer dumps and an image reader fills.
func (t *Tree) Physical() []int64 { return t.vals }

// IsLeaf reports whether the BFS index is a leaf of the tree.
func (t *Tree) IsLeaf(bfs int) bool {
	return bfs >= t.layout.NumLeaves()
}

// LeafIndex converts a leaf's BFS index to its left-to-right position.
func (t *Tree) LeafIndex(bfs int) int {
	return bfs - t.layout.NumLeaves()
}

// LeafBFS converts a left-to-right leaf position to its BFS index.
func (t *Tree) LeafBFS(i int) int {
	return t.layout.NumLeaves() + i
}
