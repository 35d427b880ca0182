package hipma

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/iomodel"
	"repro/internal/xrand"
)

func TestMiddleWindow(t *testing.T) {
	cases := []struct{ l, m, wantS0, wantSize int }{
		{0, 5, 0, 0},
		{1, 5, 0, 1},
		{5, 5, 0, 5},
		{6, 5, 0, 5},  // ceil(6/2)-ceil(5/2) = 3-3 = 0
		{10, 4, 3, 4}, // ceil(10/2)-ceil(4/2) = 5-2 = 3
		{11, 4, 4, 4}, // 6-2
		{100, 10, 45, 10},
		{101, 10, 46, 10},
	}
	for _, c := range cases {
		s0, m := middleWindow(c.l, c.m)
		if s0 != c.wantS0 || m != c.wantSize {
			t.Errorf("middleWindow(%d, %d) = (%d, %d), want (%d, %d)",
				c.l, c.m, s0, m, c.wantS0, c.wantSize)
		}
		// Window must fit inside [0, l-1].
		if m > 0 && (s0 < 0 || s0+m > c.l) {
			t.Errorf("middleWindow(%d, %d) window [%d, %d) escapes range",
				c.l, c.m, s0, s0+m)
		}
	}
}

func TestInsertSequentialAndGet(t *testing.T) {
	p := New(1, nil)
	const n = 20000
	for i := 0; i < n; i++ {
		p.InsertAt(i, Item{Key: int64(i)})
		if i%4096 == 0 {
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i, err)
			}
		}
	}
	if p.Len() != n {
		t.Fatalf("len = %d", p.Len())
	}
	for i := 0; i < n; i += 389 {
		if got := p.Get(i).Key; got != int64(i) {
			t.Fatalf("Get(%d) = %d", i, got)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertFrontAdversarial(t *testing.T) {
	// §1.2's "pouring sand at one end": repeated front inserts are the
	// classic history-revealing pattern; the HI PMA must keep all
	// invariants and stay balanced.
	p := New(2, nil)
	const n = 10000
	for i := 0; i < n; i++ {
		p.InsertAt(0, Item{Key: int64(n - i)})
	}
	for i := 0; i < n; i += 271 {
		if got := p.Get(i).Key; got != int64(i+1) {
			t.Fatalf("Get(%d) = %d, want %d", i, got, i+1)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteBackAdversarial(t *testing.T) {
	p := New(3, nil)
	const n = 8000
	for i := 0; i < n; i++ {
		p.InsertAt(i, Item{Key: int64(i)})
	}
	for i := n - 1; i >= n/4; i-- {
		p.DeleteAt(i)
		if i%2048 == 0 {
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("after deleting down to %d: %v", i, err)
			}
		}
	}
	for i := 0; i < n/4; i += 97 {
		if got := p.Get(i).Key; got != int64(i) {
			t.Fatalf("Get(%d) = %d", i, got)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAllThenReuse(t *testing.T) {
	p := New(4, nil)
	for round := 0; round < 3; round++ {
		for i := 0; i < 700; i++ {
			p.InsertAt(p.Len(), Item{Key: int64(i)})
		}
		for p.Len() > 0 {
			p.DeleteAt(p.Len() / 2)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if p.Len() != 0 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestOracleRandomOps(t *testing.T) {
	rng := xrand.New(42)
	p := New(99, nil)
	var oracle []int64
	for op := 0; op < 30000; op++ {
		if len(oracle) == 0 || rng.Intn(3) > 0 {
			rank := rng.Intn(len(oracle) + 1)
			key := int64(op)
			p.InsertAt(rank, Item{Key: key})
			oracle = append(oracle, 0)
			copy(oracle[rank+1:], oracle[rank:])
			oracle[rank] = key
		} else {
			rank := rng.Intn(len(oracle))
			p.DeleteAt(rank)
			oracle = append(oracle[:rank], oracle[rank+1:]...)
		}
		if op%5000 == 0 {
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if p.Len() != len(oracle) {
		t.Fatalf("len %d vs oracle %d", p.Len(), len(oracle))
	}
	got := p.Query(0, p.Len()-1, nil)
	for i, v := range got {
		if v.Key != oracle[i] {
			t.Fatalf("rank %d: %d vs oracle %d", i, v, oracle[i])
		}
	}
}

func TestQueryRanges(t *testing.T) {
	p := New(7, nil)
	const n = 5000
	for i := 0; i < n; i++ {
		p.InsertAt(i, Item{Key: int64(3 * i)})
	}
	rng := xrand.New(17)
	for trial := 0; trial < 300; trial++ {
		i := rng.Intn(n)
		j := i + rng.Intn(n-i)
		got := p.Query(i, j, nil)
		if len(got) != j-i+1 {
			t.Fatalf("Query(%d,%d) returned %d elements", i, j, len(got))
		}
		for k, v := range got {
			if v.Key != int64(3*(i+k)) {
				t.Fatalf("Query(%d,%d)[%d] = %d", i, j, k, v)
			}
		}
	}
}

func TestSearchKey(t *testing.T) {
	p := New(11, nil)
	// Insert even keys 0, 2, 4, ..., via the key API.
	const n = 4000
	rng := xrand.New(5)
	perm := make([]int, n)
	rng.Perm(perm)
	for _, k := range perm {
		p.InsertKey(int64(2*k), 0)
	}
	for i := 0; i < n; i += 53 {
		rank, found := p.SearchKey(int64(2 * i))
		if !found || rank != i {
			t.Fatalf("SearchKey(%d) = (%d, %v), want (%d, true)", 2*i, rank, found, i)
		}
		rank, found = p.SearchKey(int64(2*i + 1))
		if found || rank != i+1 {
			t.Fatalf("SearchKey(%d) = (%d, %v), want (%d, false)", 2*i+1, rank, found, i+1)
		}
	}
	// Below the minimum and above the maximum.
	if rank, found := p.SearchKey(-5); found || rank != 0 {
		t.Fatalf("SearchKey(-5) = (%d, %v)", rank, found)
	}
	if rank, found := p.SearchKey(int64(2 * n)); found || rank != n {
		t.Fatalf("SearchKey(max+) = (%d, %v)", rank, found)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteKey(t *testing.T) {
	p := New(13, nil)
	for i := 0; i < 1000; i++ {
		p.InsertKey(int64(i), 0)
	}
	if !p.DeleteKey(500) {
		t.Fatal("DeleteKey(500) missed")
	}
	if p.DeleteKey(500) {
		t.Fatal("DeleteKey(500) hit twice")
	}
	if _, found := p.SearchKey(500); found {
		t.Fatal("500 still present")
	}
	if p.Len() != 999 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestSmallModeTransitions(t *testing.T) {
	// Exercise the dynamic-array fallback and its transition into tree
	// mode and back.
	p := New(17, nil)
	for i := 0; i < 600; i++ {
		p.InsertAt(p.Len(), Item{Key: int64(i)})
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for p.Len() > 3 {
		p.DeleteAt(0)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := p.Query(0, p.Len()-1, nil)
	if len(got) != 3 {
		t.Fatalf("got %d elements", len(got))
	}
}

func TestNhatInvariant(t *testing.T) {
	p := New(19, nil)
	rng := xrand.New(23)
	for op := 0; op < 5000; op++ {
		if p.Len() == 0 || rng.Intn(3) > 0 {
			p.InsertAt(rng.Intn(p.Len()+1), Item{Key: int64(op)})
		} else {
			p.DeleteAt(rng.Intn(p.Len()))
		}
		n := p.Len()
		if n >= 1 && (p.Nhat() < n || p.Nhat() > 2*n-1) {
			t.Fatalf("op %d: Nhat %d outside [%d, %d]", op, p.Nhat(), n, 2*n-1)
		}
	}
}

func TestSpaceOverheadClaim(t *testing.T) {
	// §4.3: "the space overhead ranged from 1.8 to 5 times the number of
	// elements". The theory bound is N_S = 2^h·⌈C_L log N̂⌉ ≤ (2C_L+1)·N̂
	// ≤ 10N with the default C_L = 2 (§3.3), because both the rounding of
	// h and N̂ ∈ [N, 2N) contribute a factor; we enforce that hard bound
	// here, and BenchmarkSpaceOverhead (experiment C2) reports the
	// empirically observed band.
	p := New(29, nil)
	for i := 0; i < 200000; i++ {
		p.InsertAt(p.Len(), Item{Key: int64(i)})
		if i >= 4096 && i%10000 == 0 {
			ratio := float64(p.SlotCount()) / float64(p.Len())
			if ratio < 1.0 || ratio > 2*p.cfg.CL*2+1 {
				t.Fatalf("n=%d: space ratio %.2f outside theory bound", p.Len(), ratio)
			}
		}
	}
}

func TestMovesScalingLog2(t *testing.T) {
	// Theorem 1: amortized O(log² N) moves whp. Compare amortized moves
	// at two scales against the log² envelope.
	perOp := func(n int, seed uint64) float64 {
		p := New(seed, nil)
		rng := xrand.New(seed + 1)
		for i := 0; i < n; i++ {
			p.InsertAt(rng.Intn(p.Len()+1), Item{Key: int64(i)})
		}
		return float64(p.Moves()) / float64(n)
	}
	small := perOp(4000, 1)
	large := perOp(128000, 2)
	l2 := func(n float64) float64 { x := math.Log2(n); return x * x }
	if large/small > 4*l2(128000)/l2(4000) {
		t.Fatalf("moves scaling too steep: %.1f at 4k vs %.1f at 128k", small, large)
	}
}

// TestBalanceUniformity is the in-suite version of the §4.3 experiment:
// after sequential inserts, balance elements must sit uniformly within
// their candidate windows. We pool the offsets of all ranges with a
// fixed window size across many trials and chi-square them.
func TestBalanceUniformity(t *testing.T) {
	const trials = 300
	const wantWindow = 8
	counts := make([]int, wantWindow)
	total := 0
	for trial := 0; trial < trials; trial++ {
		p := New(uint64(trial)+1000, nil)
		for i := 0; i < 3000; i++ {
			p.InsertAt(p.Len(), Item{Key: int64(i)})
		}
		for _, o := range p.BalancePositions(2) {
			if o.Window == wantWindow {
				counts[o.Offset]++
				total++
			}
		}
	}
	if total < 500 {
		t.Fatalf("too few observations (%d) with window %d — adjust test", total, wantWindow)
	}
	expected := float64(total) / float64(wantWindow)
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 7 dof, 99.9th percentile ~ 24.3.
	if chi2 > 24.3 {
		t.Fatalf("balance offsets not uniform: chi2 = %.2f, counts = %v", chi2, counts)
	}
}

// TestWHIDistribution verifies Definition 4 statistically: two very
// different operation sequences reaching the same logical state must
// produce the same distribution of memory representations. History A
// inserts 0..n-1 in order; history B inserts n..2n-1 in reverse, then
// deletes them, then inserts 0..n-1 front-first. We compare the
// distributions of (a) N̂ and (b) per-slot occupancy marginals.
func TestWHIDistribution(t *testing.T) {
	const n = 300
	const trials = 4000

	histA := func(seed uint64) *PMA {
		p := New(seed, nil)
		for i := 0; i < n; i++ {
			p.InsertAt(i, Item{Key: int64(i)})
		}
		return p
	}
	histB := func(seed uint64) *PMA {
		p := New(seed, nil)
		for i := 0; i < n; i++ {
			p.InsertAt(0, Item{Key: int64(n + i)})
		}
		for i := 0; i < n; i++ {
			p.DeleteAt(p.Len() - 1)
		}
		for i := n - 1; i >= 0; i-- {
			p.InsertAt(0, Item{Key: int64(i)})
		}
		return p
	}

	nhatA := make(map[int]int)
	nhatB := make(map[int]int)
	for trial := 0; trial < trials; trial++ {
		a := histA(uint64(trial)*2 + 1)
		b := histB(uint64(trial)*2 + 2)
		nhatA[a.Nhat()]++
		nhatB[b.Nhat()]++
	}
	// N̂ must be uniform in {n..2n-1} under BOTH histories. Chi-square
	// each against uniform (coarse binning: 10 buckets).
	for name, counts := range map[string]map[int]int{"A": nhatA, "B": nhatB} {
		buckets := make([]int, 10)
		for v, c := range counts {
			if v < n || v > 2*n-1 {
				t.Fatalf("history %s: Nhat %d outside [n, 2n-1]", name, v)
			}
			buckets[(v-n)*10/n] += c
		}
		expected := float64(trials) / 10
		chi2 := 0.0
		for _, c := range buckets {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		// 9 dof, 99.9th percentile ~ 27.9.
		if chi2 > 27.9 {
			t.Errorf("history %s: Nhat not uniform, chi2 = %.1f, buckets = %v", name, chi2, buckets)
		}
	}
}

func TestPanicsOnBadRank(t *testing.T) {
	p := New(1, nil)
	p.InsertAt(0, Item{Key: 5})
	for _, f := range []func(){
		func() { p.Get(-1) },
		func() { p.Get(1) },
		func() { p.InsertAt(-1, Item{}) },
		func() { p.InsertAt(2, Item{}) },
		func() { p.DeleteAt(1) },
		func() { p.Query(0, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{C1: 0, CL: 2, MinTreeNhat: 128},
		{C1: 1, CL: 2, MinTreeNhat: 128},
		{C1: 0.5, CL: 1.5, MinTreeNhat: 128},
		{C1: 0.5, CL: 2, MinTreeNhat: 64},
	}
	for i, cfg := range bad {
		if _, err := NewWithConfig(cfg, 1, nil); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestIOAccounting(t *testing.T) {
	tr := iomodel.New(64, 256)
	p := New(31, tr)
	for i := 0; i < 20000; i++ {
		p.InsertAt(p.Len(), Item{Key: int64(i)})
	}
	if tr.IOs() == 0 {
		t.Fatal("no I/Os recorded")
	}
	tr.Reset()
	p.Query(1000, 1063, nil)
	// 64 elements with O(1) gaps at B=64: a handful of blocks plus the
	// descent.
	if tr.IOs() > 60 {
		t.Fatalf("range query of 64 elements cost %d I/Os", tr.IOs())
	}
}

// Property test: arbitrary mixed workloads keep the PMA consistent with
// a reference oracle and all invariants intact.
func TestPropertyMixedWorkloadOracle(t *testing.T) {
	f := func(seed uint64, opsRaw uint16) bool {
		rng := xrand.New(seed)
		ops := int(opsRaw%800) + 100
		p := New(seed+7, nil)
		var oracle []int64
		for i := 0; i < ops; i++ {
			if len(oracle) == 0 || rng.Intn(4) > 0 {
				rank := rng.Intn(len(oracle) + 1)
				key := int64(i)
				p.InsertAt(rank, Item{Key: key})
				oracle = append(oracle, 0)
				copy(oracle[rank+1:], oracle[rank:])
				oracle[rank] = key
			} else {
				rank := rng.Intn(len(oracle))
				p.DeleteAt(rank)
				oracle = append(oracle[:rank], oracle[rank+1:]...)
			}
		}
		if p.Len() != len(oracle) {
			return false
		}
		if p.Len() > 0 {
			got := p.Query(0, p.Len()-1, nil)
			for i, v := range got {
				if v.Key != oracle[i] {
					return false
				}
			}
		}
		return p.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property test: sorted-key workloads keep SearchKey consistent with
// binary search over the oracle.
func TestPropertySearchKeyOracle(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p := New(seed+13, nil)
		present := make(map[int64]bool)
		for i := 0; i < 400; i++ {
			k := int64(rng.Intn(1000))
			if present[k] {
				p.DeleteKey(k)
				delete(present, k)
			} else {
				p.InsertKey(k, 0)
				present[k] = true
			}
		}
		for k := int64(0); k < 1000; k += 17 {
			_, found := p.SearchKey(k)
			if found != present[k] {
				return false
			}
		}
		return p.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	p := New(1, nil)
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.InsertAt(rng.Intn(p.Len()+1), Item{Key: int64(i)})
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	p := New(1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.InsertAt(p.Len(), Item{Key: int64(i)})
	}
}

func BenchmarkSearchKey(b *testing.B) {
	p := New(1, nil)
	for i := 0; i < 100000; i++ {
		p.InsertAt(p.Len(), Item{Key: int64(i)})
	}
	rng := xrand.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SearchKey(int64(rng.Intn(100000)))
	}
}

// TestSpreadIterMatchesSlotOf pins the division-free spread iteration in
// writeLeaf/leafElems to the canonical slotOf formula.
func TestSpreadIterMatchesSlotOf(t *testing.T) {
	p := New(1, nil)
	for _, leafSlots := range []int{4, 7, 16, 33, 34, 61} {
		p.leafSlots = leafSlots
		for n := 1; n <= leafSlots; n++ {
			den := 2 * n
			pos := leafSlots / den
			rem := leafSlots % den
			stepQ := 2 * leafSlots / den
			stepR := 2 * leafSlots % den
			for i := 0; i < n; i++ {
				if want := p.slotOf(i, n); pos != want {
					t.Fatalf("S=%d n=%d t=%d: iter %d, slotOf %d", leafSlots, n, i, pos, want)
				}
				pos += stepQ
				rem += stepR
				if rem >= den {
					pos++
					rem -= den
				}
			}
		}
	}
}

func TestBulkLoad(t *testing.T) {
	items := make([]Item, 50000)
	for i := range items {
		items[i] = Item{Key: int64(i), Val: int64(i * 3)}
	}
	p := BulkLoad(items, 77, nil)
	if p.Len() != len(items) {
		t.Fatalf("len = %d", p.Len())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(items); i += 997 {
		if got := p.Get(i); got != items[i] {
			t.Fatalf("Get(%d) = %+v", i, got)
		}
	}
	// Nhat invariant after bulk load.
	if p.Nhat() < p.Len() || p.Nhat() > 2*p.Len()-1 {
		t.Fatalf("Nhat %d outside [n, 2n-1]", p.Nhat())
	}
	// Remains operational.
	p.InsertAt(0, Item{Key: -1})
	p.DeleteAt(p.Len() - 1)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Caller's slice must not alias internal state.
	items[0] = Item{Key: 999999}
	if p.Get(1).Key == 999999 {
		t.Fatal("BulkLoad aliased caller slice")
	}
}

// TestBulkLoadMatchesIncrementalDistribution: a bulk-loaded PMA and an
// incrementally built one with the same contents must have identically
// distributed observables (the WHI property applied to bulk loading).
func TestBulkLoadMatchesIncrementalDistribution(t *testing.T) {
	const n = 300
	const trials = 3000
	nhatBulk := make([]int, 10)
	nhatIncr := make([]int, 10)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: int64(i)}
	}
	for trial := 0; trial < trials; trial++ {
		b := BulkLoad(items, uint64(trial)*2+1, nil)
		p := New(uint64(trial)*2+2, nil)
		for i := 0; i < n; i++ {
			p.InsertAt(i, items[i])
		}
		nhatBulk[(b.Nhat()-n)*10/n]++
		nhatIncr[(p.Nhat()-n)*10/n]++
	}
	chi2 := 0.0
	for i := range nhatBulk {
		sum := float64(nhatBulk[i] + nhatIncr[i])
		if sum == 0 {
			continue
		}
		d := float64(nhatBulk[i]) - float64(nhatIncr[i])
		chi2 += d * d / sum
	}
	// 9 dof, 99.9th percentile ~ 27.9.
	if chi2 > 27.9 {
		t.Fatalf("bulk vs incremental Nhat distributions differ: chi2 = %.1f", chi2)
	}
}

func TestAscend(t *testing.T) {
	p := New(5, nil)
	const n = 5000
	for i := 0; i < n; i++ {
		p.InsertAt(i, Item{Key: int64(i), Val: int64(i * 2)})
	}
	count := 0
	p.Ascend(func(rank int, it Item) bool {
		if rank != count || it.Key != int64(rank) || it.Val != int64(rank*2) {
			t.Fatalf("Ascend rank %d got (%d, %+v)", count, rank, it)
		}
		count++
		return true
	})
	if count != n {
		t.Fatalf("visited %d", count)
	}
	// Early stop.
	count = 0
	p.Ascend(func(rank int, it Item) bool {
		count++
		return count < 100
	})
	if count != 100 {
		t.Fatalf("early stop visited %d", count)
	}
}
