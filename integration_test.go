package antipersist

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestDifferentialDictionaries drives every key-based structure — the
// HI cache-oblivious B-tree, the HI skip list, the folklore B-skip
// list, the in-memory skip list and the classic B-tree — with the same
// operation stream and requires identical answers everywhere.
func TestDifferentialDictionaries(t *testing.T) {
	dict := NewDictionary(1, nil)
	hiSL, err := NewSkipList(SkipListConfig{B: 32, Epsilon: 0.5}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	flSL, err := NewSkipList(SkipListConfig{B: 32, Folklore: true}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	imSL := NewInMemorySkipList(4, nil)
	bt := NewBTree(32, 5, nil)
	oracle := make(map[int64]bool)

	rng := xrand.New(42)
	for op := 0; op < 20000; op++ {
		k := int64(rng.Intn(4000)) + 1
		switch rng.Intn(5) {
		case 0, 1, 2:
			want := !oracle[k]
			oracle[k] = true
			if got := dict.Put(k, k*10); got != want {
				t.Fatalf("op %d: dict.Put(%d) = %v, want %v", op, k, got, want)
			}
			for name, got := range map[string]bool{
				"hi-skip": hiSL.Insert(k), "folklore": flSL.Insert(k),
				"in-mem": imSL.Insert(k), "btree": bt.Insert(k),
			} {
				if got != want {
					t.Fatalf("op %d: %s insert(%d) = %v, want %v", op, name, k, got, want)
				}
			}
		case 3:
			want := oracle[k]
			delete(oracle, k)
			for name, got := range map[string]bool{
				"dict": dict.Delete(k), "hi-skip": hiSL.Delete(k),
				"folklore": flSL.Delete(k), "in-mem": imSL.Delete(k),
				"btree": bt.Delete(k),
			} {
				if got != want {
					t.Fatalf("op %d: %s delete(%d) = %v, want %v", op, name, k, got, want)
				}
			}
		case 4:
			want := oracle[k]
			for name, got := range map[string]bool{
				"dict": dict.Has(k), "hi-skip": hiSL.Contains(k),
				"folklore": flSL.Contains(k), "in-mem": imSL.Contains(k),
				"btree": bt.Contains(k),
			} {
				if got != want {
					t.Fatalf("op %d: %s contains(%d) = %v, want %v", op, name, k, got, want)
				}
			}
		}
	}
	n := len(oracle)
	for name, got := range map[string]int{
		"dict": dict.Len(), "hi-skip": hiSL.Len(), "folklore": flSL.Len(),
		"in-mem": imSL.Len(), "btree": bt.Len(),
	} {
		if got != n {
			t.Fatalf("%s: len %d, oracle %d", name, got, n)
		}
	}
	// Range agreement.
	for trial := 0; trial < 50; trial++ {
		lo := int64(rng.Intn(4000)) + 1
		hi := lo + int64(rng.Intn(500))
		items := dict.Range(lo, hi, nil)
		keysA := make([]int64, len(items))
		for i, it := range items {
			keysA[i] = it.Key
		}
		keysB := hiSL.Range(lo, hi, nil)
		keysC := bt.Range(lo, hi, nil)
		if len(keysA) != len(keysB) || len(keysA) != len(keysC) {
			t.Fatalf("range(%d,%d): sizes %d/%d/%d", lo, hi, len(keysA), len(keysB), len(keysC))
		}
		for i := range keysA {
			if keysA[i] != keysB[i] || keysA[i] != keysC[i] {
				t.Fatalf("range(%d,%d)[%d]: %d/%d/%d", lo, hi, i, keysA[i], keysB[i], keysC[i])
			}
		}
	}
	// Final invariants everywhere.
	if err := dict.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := hiSL.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := flSL.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := imSL.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestDifferentialPMAs drives the HI PMA and the classic PMA with the
// same rank-based trace and requires identical logical contents.
func TestDifferentialPMAs(t *testing.T) {
	for _, kind := range workload.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			hi := NewPMA(7, nil)
			cl := NewClassicPMA(nil)
			ops := workload.Trace(kind, 11, 6000, 4, 1, 1)
			var key int64
			for i, op := range ops {
				switch op.Kind {
				case workload.OpInsert:
					key++
					hi.InsertAt(op.Rank, Item{Key: key})
					cl.InsertAt(op.Rank, key)
				case workload.OpDelete:
					hi.DeleteAt(op.Rank)
					cl.DeleteAt(op.Rank)
				case workload.OpQuery:
					a := hi.Query(op.Rank, op.Rank+op.Len-1, nil)
					b := cl.Query(op.Rank, op.Rank+op.Len-1, nil)
					for j := range a {
						if a[j].Key != b[j] {
							t.Fatalf("op %d: query[%d] = %d vs %d", i, j, a[j].Key, b[j])
						}
					}
				}
			}
			if hi.Len() != cl.Len() {
				t.Fatalf("lengths diverged: %d vs %d", hi.Len(), cl.Len())
			}
			if err := hi.CheckInvariants(); err != nil {
				t.Error("hi:", err)
			}
			if err := cl.CheckInvariants(); err != nil {
				t.Error("classic:", err)
			}
		})
	}
}

// TestPersistenceAcrossFacade exercises the full store/load/continue
// cycle through the public API, under every workload kind.
func TestPersistenceAcrossFacade(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Uniform, workload.Sequential, workload.Zipf} {
		t.Run(kind.String(), func(t *testing.T) {
			d := NewDictionary(13, nil)
			keys := workload.NewKeySource(kind, 17)
			inserted := make(map[int64]int64)
			for i := 0; i < 4000; i++ {
				k := keys.Next()
				d.Put(k, int64(i))
				inserted[k] = int64(i)
			}
			var img bytes.Buffer
			if _, err := d.WriteTo(&img); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadDictionary(&img, 99, nil)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range inserted {
				got, ok := loaded.Get(k)
				if !ok || got != v {
					t.Fatalf("after load: Get(%d) = (%d, %v), want %d", k, got, ok, v)
				}
			}
			// Continue operating on the loaded copy.
			for i := 0; i < 2000; i++ {
				k := keys.Next()
				loaded.Put(k, int64(i))
			}
			if err := loaded.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWorkloadSweepInvariants runs every workload kind against the HI
// PMA and the HI skip list, checking invariants at the end.
func TestWorkloadSweepInvariants(t *testing.T) {
	for _, kind := range workload.Kinds() {
		t.Run(fmt.Sprintf("hipma/%v", kind), func(t *testing.T) {
			p := NewPMA(19, nil)
			src := workload.NewRankSource(kind, 23)
			for i := 0; i < 20000; i++ {
				p.InsertAt(src.Next(p.Len()), Item{Key: int64(i)})
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Drain from alternating ends.
			for p.Len() > 0 {
				if p.Len()%2 == 0 {
					p.DeleteAt(0)
				} else {
					p.DeleteAt(p.Len() - 1)
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, kind := range []workload.Kind{workload.Uniform, workload.Sequential, workload.Reverse} {
		t.Run(fmt.Sprintf("skiplist/%v", kind), func(t *testing.T) {
			s, err := NewSkipList(SkipListConfig{B: 16, Epsilon: 0.5}, 29, nil)
			if err != nil {
				t.Fatal(err)
			}
			keys := workload.NewKeySource(kind, 31)
			var all []int64
			for i := 0; i < 8000; i++ {
				k := keys.Next()
				if s.Insert(k) {
					all = append(all, k)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for _, k := range all {
				if !s.Delete(k) {
					t.Fatalf("lost key %d", k)
				}
			}
			if s.Len() != 0 {
				t.Fatalf("len = %d after full drain", s.Len())
			}
		})
	}
}

// TestIOAccountingConsistency: reads+writes reported by the facade
// tracker must be monotone and consistent across Reset/Snapshot.
func TestIOAccountingConsistency(t *testing.T) {
	tr := NewIOTracker(64, 32)
	d := NewDictionary(37, tr)
	var last uint64
	for i := int64(0); i < 5000; i++ {
		d.Put(i, i)
		if ios := tr.IOs(); ios < last {
			t.Fatalf("I/O counter went backwards: %d -> %d", last, ios)
		} else {
			last = ios
		}
	}
	snap := tr.Snapshot()
	d.Get(100)
	d.Get(101)
	if snap.Delta(tr) == 0 {
		t.Fatal("snapshot delta missed the queries")
	}
}

// TestSoak is a long randomized workout across every structure at once:
// 60k mixed operations with periodic cross-checks and invariant sweeps.
// Skipped with -short.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in short mode")
	}
	tr := NewIOTracker(64, 128)
	dict := NewDictionary(101, tr)
	hiSL, _ := NewSkipList(SkipListConfig{B: 64, Epsilon: 1.0 / 3.0}, 102, tr)
	detSL, _ := NewSkipList(SkipListConfig{B: 64, Folklore: true, Deterministic: true}, 103, nil)
	bt := NewBTree(64, 104, tr)
	oracle := make(map[int64]int64)

	rng := xrand.New(105)
	for op := 0; op < 60000; op++ {
		k := int64(rng.Intn(20000)) + 1
		switch rng.Intn(6) {
		case 0, 1, 2:
			v := int64(op)
			dict.Put(k, v)
			hiSL.Insert(k)
			detSL.Insert(k)
			bt.Insert(k)
			oracle[k] = v
		case 3:
			dict.Delete(k)
			hiSL.Delete(k)
			detSL.Delete(k)
			bt.Delete(k)
			delete(oracle, k)
		case 4:
			_, want := oracle[k]
			if dict.Has(k) != want || hiSL.Contains(k) != want ||
				detSL.Contains(k) != want || bt.Contains(k) != want {
				t.Fatalf("op %d: membership divergence on %d", op, k)
			}
		case 5:
			lo := int64(rng.Intn(20000)) + 1
			hi := lo + int64(rng.Intn(200))
			a := dict.Range(lo, hi, nil)
			b := hiSL.Range(lo, hi, nil)
			if len(a) != len(b) {
				t.Fatalf("op %d: range sizes %d vs %d", op, len(a), len(b))
			}
		}
		if op%15000 == 14999 {
			if err := dict.CheckInvariants(); err != nil {
				t.Fatalf("op %d dict: %v", op, err)
			}
			if err := hiSL.CheckInvariants(); err != nil {
				t.Fatalf("op %d hiSL: %v", op, err)
			}
			if err := detSL.CheckInvariants(); err != nil {
				t.Fatalf("op %d detSL: %v", op, err)
			}
			if err := bt.CheckInvariants(); err != nil {
				t.Fatalf("op %d btree: %v", op, err)
			}
		}
	}
	if dict.Len() != len(oracle) || hiSL.Len() != len(oracle) ||
		detSL.Len() != len(oracle) || bt.Len() != len(oracle) {
		t.Fatalf("final lengths diverged: %d/%d/%d/%d vs oracle %d",
			dict.Len(), hiSL.Len(), detSL.Len(), bt.Len(), len(oracle))
	}
	// Round-trip the dictionary and skip list through images and verify
	// the loaded copies agree with the oracle.
	var imgD, imgS bytes.Buffer
	if _, err := dict.WriteTo(&imgD); err != nil {
		t.Fatal(err)
	}
	if _, err := hiSL.WriteTo(&imgS); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDictionary(&imgD, 201, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ReadSkipList(&imgS, 202, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range oracle {
		if got, ok := d2.Get(k); !ok || got != v {
			t.Fatalf("loaded dict: Get(%d) = (%d, %v)", k, got, ok)
		}
		if !s2.Contains(k) {
			t.Fatalf("loaded skip list lost %d", k)
		}
	}
}
