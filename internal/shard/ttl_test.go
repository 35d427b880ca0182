package shard

import (
	"bytes"
	"testing"

	"repro/internal/expiry"
	"repro/internal/xrand"
)

func newTTLStore(t *testing.T, shards int, seed uint64, clk expiry.Clock) *Store {
	t.Helper()
	s, err := New(shards, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetClock(clk)
	return s
}

func TestTTLLazyFiltering(t *testing.T) {
	clk := expiry.NewManual(10)
	s := newTTLStore(t, 4, 7, clk)

	s.PutTTL(1, 100, 20) // expires at epoch 20
	s.PutTTL(2, 200, 0)  // never expires
	s.Put(3, 300)        // never expires
	s.PutTTL(4, 400, 11) // expires at epoch 11

	if v, exp, ok := s.GetTTL(1); !ok || v != 100 || exp != 20 {
		t.Fatalf("GetTTL(1) = (%d,%d,%v), want (100,20,true)", v, exp, ok)
	}
	if n := s.Len(); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}

	clk.Set(11) // key 4 dies exactly at its deadline
	if _, ok := s.Get(4); ok {
		t.Fatal("expired key 4 still visible to Get")
	}
	if s.Has(4) {
		t.Fatal("expired key 4 still visible to Has")
	}
	if _, _, ok := s.GetTTL(4); ok {
		t.Fatal("expired key 4 still visible to GetTTL")
	}
	if n := s.Len(); n != 3 {
		t.Fatalf("Len after one expiry = %d, want 3", n)
	}
	// The other entries are untouched.
	if v, ok := s.Get(1); !ok || v != 100 {
		t.Fatalf("Get(1) = (%d,%v) after unrelated expiry", v, ok)
	}

	// Batch reads agree with point reads.
	vals, oks := s.GetBatch([]int64{1, 2, 3, 4})
	want := []bool{true, true, true, false}
	for i, ok := range oks {
		if ok != want[i] {
			t.Fatalf("GetBatch presence[%d] = %v, want %v (vals %v)", i, ok, want[i], vals)
		}
	}

	// Range, Ascend, Min, Max all skip the dead entry.
	if items := s.Range(0, 100, nil); len(items) != 3 {
		t.Fatalf("Range saw %d items, want 3: %v", len(items), items)
	}
	count := 0
	s.Ascend(func(it Item) bool {
		if it.Key == 4 {
			t.Fatal("Ascend yielded the expired key")
		}
		count++
		return true
	})
	if count != 3 {
		t.Fatalf("Ascend yielded %d items, want 3", count)
	}
	if it, ok := s.Min(); !ok || it.Key != 1 {
		t.Fatalf("Min = (%+v,%v), want key 1", it, ok)
	}
	if it, ok := s.Max(); !ok || it.Key != 3 {
		t.Fatalf("Max = (%+v,%v), want key 3", it, ok)
	}

	clk.Set(20) // key 1 dies too
	if n := s.Len(); n != 2 {
		t.Fatalf("Len after second expiry = %d, want 2", n)
	}
	if it, ok := s.Min(); !ok || it.Key != 2 {
		t.Fatalf("Min after expiry = (%+v,%v), want key 2", it, ok)
	}
}

func TestTTLResurrectionAndOverwrite(t *testing.T) {
	clk := expiry.NewManual(100)
	s := newTTLStore(t, 2, 9, clk)

	// A plain Put over a TTL'd entry clears the expiry.
	s.PutTTL(1, 10, 150)
	if ins := s.Put(1, 11); ins {
		t.Fatal("overwriting a live TTL entry reported a fresh insert")
	}
	clk.Set(200)
	if v, exp, ok := s.GetTTL(1); !ok || v != 11 || exp != 0 {
		t.Fatalf("entry still TTL'd after plain Put: (%d,%d,%v)", v, exp, ok)
	}

	// A put over an EXPIRED entry counts as a fresh insert and revives
	// the key.
	s.PutTTL(2, 20, 150) // already dead at epoch 200
	if _, ok := s.Get(2); ok {
		t.Fatal("dead-on-arrival entry visible")
	}
	if ins := s.PutTTL(2, 21, 300); !ins {
		t.Fatal("resurrecting an expired entry did not report a fresh insert")
	}
	if v, exp, ok := s.GetTTL(2); !ok || v != 21 || exp != 300 {
		t.Fatalf("resurrected entry = (%d,%d,%v), want (21,300,true)", v, exp, ok)
	}

	// Deleting an expired entry reports absent but removes the bytes.
	s.PutTTL(3, 30, 150)
	if s.Delete(3) {
		t.Fatal("deleting an expired entry reported it present")
	}
	clk.Set(100)
	if _, ok := s.Get(3); ok {
		t.Fatal("physically deleted entry visible after clock rollback")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTTLSweepDeterministic(t *testing.T) {
	clk := expiry.NewManual(50)
	s := newTTLStore(t, 4, 3, clk)
	rng := xrand.New(8)
	for i := int64(0); i < 2000; i++ {
		switch rng.Intn(3) {
		case 0:
			s.Put(i, i*3)
		case 1:
			s.PutTTL(i, i*3, 10+int64(rng.Intn(80))) // some dead, some alive at 50
		case 2:
			s.PutTTL(i, i*3, 1000) // far future
		}
	}
	wantLive := s.Len()
	physical := 0
	for i := 0; i < s.NumShards(); i++ {
		physical += s.ShardLen(i)
	}
	if physical <= wantLive {
		t.Fatalf("test needs dead entries: physical %d, live %d", physical, wantLive)
	}

	swept := s.SweepExpired(50)
	if swept != physical-wantLive {
		t.Fatalf("swept %d, want %d", swept, physical-wantLive)
	}
	if s.Len() != wantLive {
		t.Fatalf("Len changed across sweep: %d, want %d", s.Len(), wantLive)
	}
	// Idempotent at the same epoch.
	if again := s.SweepExpired(50); again != 0 {
		t.Fatalf("second sweep at the same epoch removed %d entries", again)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTTLImageHistoryIndependence is the tentpole property at the shard
// layer: two stores fed DIFFERENT TTL operation histories — different
// orders, different intermediate expiries, different sweep schedules —
// but holding the same (key, value, expiry) live set at epoch E render
// byte-identical images once each has swept at E.
func TestTTLImageHistoryIndependence(t *testing.T) {
	const seed = 2024
	const epoch = 1000
	type entry struct{ key, val, exp int64 }
	finals := []entry{}
	rng := xrand.New(99)
	for k := int64(0); k < 800; k++ {
		switch rng.Intn(3) {
		case 0:
			finals = append(finals, entry{k, k * 11, 0})
		case 1:
			finals = append(finals, entry{k, k * 11, epoch + 1 + int64(rng.Intn(500))})
		}
		// case 2: key absent from the final state
	}

	clkA := expiry.NewManual(epoch)
	a := newTTLStore(t, 8, seed, clkA)
	// History A: the final state loaded directly, one sweep at the end.
	for _, e := range finals {
		a.PutTTL(e.key, e.val, e.exp)
	}
	a.SweepExpired(epoch)

	clkB := expiry.NewManual(1)
	b := newTTLStore(t, 8, seed, clkB)
	// History B: every key written with short TTLs, expired, swept at
	// scattered epochs, deleted, rewritten — then the final state.
	for _, e := range finals {
		b.PutTTL(e.key, 1, 2) // dies at epoch 2
	}
	clkB.Set(10)
	b.SweepExpired(5) // sweep at a random intermediate epoch
	for _, e := range finals {
		b.PutTTL(e.key, e.val+1, 500)
		if e.key%3 == 0 {
			b.Delete(e.key)
		}
	}
	b.SweepExpired(10)
	clkB.Set(epoch)
	for _, e := range finals {
		b.PutTTL(e.key, e.val, e.exp)
	}
	// Extra keys that expire before E and are swept away.
	for k := int64(10_000); k < 10_200; k++ {
		b.PutTTL(k, k, epoch) // dead exactly at E
	}
	b.SweepExpired(epoch)

	if a.Len() != b.Len() {
		t.Fatalf("live sets differ: %d vs %d", a.Len(), b.Len())
	}
	var ia, ib bytes.Buffer
	if _, err := a.WriteTo(&ia); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&ib); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ia.Bytes(), ib.Bytes()) {
		t.Fatal("images differ across TTL operation histories with the same live set")
	}

	// Round trip: the expiry index survives save/load.
	q, err := ReadStore(bytes.NewReader(ia.Bytes()), 555, nil)
	if err != nil {
		t.Fatal(err)
	}
	q.SetClock(expiry.NewManual(epoch))
	for _, e := range finals {
		wantV, wantExp, wantOK := e.val, e.exp, true
		if gotV, gotExp, gotOK := q.GetTTL(e.key); gotOK != wantOK || gotV != wantV || gotExp != wantExp {
			t.Fatalf("reloaded GetTTL(%d) = (%d,%d,%v), want (%d,%d,%v)",
				e.key, gotV, gotExp, gotOK, wantV, wantExp, wantOK)
		}
	}
}

func TestTTLApplyBatch(t *testing.T) {
	clk := expiry.NewManual(10)
	s := newTTLStore(t, 4, 13, clk)

	changed := make([]bool, 4)
	n, err := s.ApplyBatch([]Op{
		{Key: 1, Val: 10, Exp: 20}, // TTL put
		{Key: 2, Val: 20},          // plain put
		{Key: 3, Val: 30, Exp: 11}, // dies at 11
		{Key: 1, Val: 11, Exp: 0},  // same-batch overwrite clears TTL
	}, changed)
	if err != nil || n != 3 {
		t.Fatalf("ApplyBatch = (%d, %v), want 3 changed", n, err)
	}
	if !changed[0] || !changed[1] || !changed[2] || changed[3] {
		t.Fatalf("changed = %v", changed)
	}
	if v, exp, ok := s.GetTTL(1); !ok || v != 11 || exp != 0 {
		t.Fatalf("key 1 = (%d,%d,%v), want TTL cleared", v, exp, ok)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTTLRangeNDeadHeavyPrefix(t *testing.T) {
	clk := expiry.NewManual(0)
	s := newTTLStore(t, 1, 21, clk)
	// 600 dead keys below 600 live ones (single shard so the prefix is
	// contiguous), all interleaved in key order to stress the refetch.
	for k := int64(0); k < 1200; k++ {
		if k%2 == 0 {
			s.PutTTL(k, k, 5) // dies at epoch 5
		} else {
			s.Put(k, k)
		}
	}
	clk.Set(5)
	items, more := s.RangeN(0, 1199, 10, nil)
	if len(items) != 10 || !more {
		t.Fatalf("RangeN = %d items, more=%v, want 10, true", len(items), more)
	}
	for i, it := range items {
		if want := int64(2*i + 1); it.Key != want {
			t.Fatalf("RangeN item %d = key %d, want %d", i, it.Key, want)
		}
	}
	// Whole live window, exactly.
	items, more = s.RangeN(0, 1199, 1000, nil)
	if len(items) != 600 || more {
		t.Fatalf("full RangeN = %d items, more=%v, want 600, false", len(items), more)
	}
}
