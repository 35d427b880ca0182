package shard

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// The headline concurrency suite: randomized differential tests of
// Store against mutex-guarded reference maps under mixed concurrent
// operations. Run with -race; the suite is also wired into CI's race
// pass. The tests are deterministic per goroutine: each worker owns a
// disjoint key interval and checks its own reads against a private
// reference map (no cross-goroutine ordering assumptions), while the
// store's hash routing still scatters every worker's keys across all
// shards, so the lock striping is genuinely contended.

const (
	diffWorkers   = 8
	diffKeysPerG  = 512
	diffKeyStride = 1 << 20 // worker g owns [g*stride, g*stride+keys)
)

// scaled shrinks a work amount under -short so the CI race pass stays
// fast while local full runs keep their depth.
func scaled(n int) int {
	if testing.Short() {
		return n / 8
	}
	return n
}

func TestStoreConcurrentDifferential(t *testing.T) {
	diffOpsPerG := scaled(4000)
	s, err := New(8, 1234, nil)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]map[int64]int64, diffWorkers)
	var wg sync.WaitGroup
	for g := 0; g < diffWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(g)*2654435761 + 99)
			ref := map[int64]int64{}
			base := int64(g) * diffKeyStride
			for i := 0; i < diffOpsPerG; i++ {
				k := base + int64(rng.Intn(diffKeysPerG))
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // put
					v := int64(rng.Uint64() >> 1)
					_, existed := ref[k]
					if ins := s.Put(k, v); ins == existed {
						t.Errorf("worker %d: Put(%d) inserted=%v, want %v", g, k, ins, !existed)
						return
					}
					ref[k] = v
				case 4, 5: // delete
					_, existed := ref[k]
					if del := s.Delete(k); del != existed {
						t.Errorf("worker %d: Delete(%d)=%v, want %v", g, k, del, existed)
						return
					}
					delete(ref, k)
				case 6: // batch put
					n := 1 + rng.Intn(32)
					items := make([]Item, n)
					for j := range items {
						items[j] = Item{Key: base + int64(rng.Intn(diffKeysPerG)), Val: int64(j)}
					}
					s.PutBatch(items)
					for _, it := range items {
						ref[it.Key] = it.Val
					}
				case 7: // batch get
					n := 1 + rng.Intn(32)
					keys := make([]int64, n)
					for j := range keys {
						keys[j] = base + int64(rng.Intn(diffKeysPerG))
					}
					vals, ok := s.GetBatch(keys)
					for j, k := range keys {
						rv, rok := ref[k]
						if ok[j] != rok || (rok && vals[j] != rv) {
							t.Errorf("worker %d: GetBatch key %d = (%d,%v), want (%d,%v)",
								g, k, vals[j], ok[j], rv, rok)
							return
						}
					}
				case 8: // get
					v, ok := s.Get(k)
					rv, rok := ref[k]
					if ok != rok || (rok && v != rv) {
						t.Errorf("worker %d: Get(%d) = (%d,%v), want (%d,%v)", g, k, v, ok, rv, rok)
						return
					}
				case 9: // range over own interval: own keys must all be correct
					lo := base + int64(rng.Intn(diffKeysPerG))
					hi := lo + int64(rng.Intn(64))
					got := map[int64]int64{}
					for _, it := range s.Range(lo, hi, nil) {
						got[it.Key] = it.Val
					}
					for rk, rv := range ref {
						if rk >= lo && rk <= hi {
							if gv, okr := got[rk]; !okr || gv != rv {
								t.Errorf("worker %d: Range(%d,%d) missing/wrong key %d", g, lo, hi, rk)
								return
							}
						}
					}
				}
			}
			refs[g] = ref
		}(g)
	}
	// Concurrent full-store readers: every observed snapshot must be
	// sorted, duplicate-free, and routed consistently.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prev := int64(-1)
				first := true
				s.Ascend(func(it Item) bool {
					if !first && it.Key <= prev {
						t.Errorf("Ascend snapshot out of order: %d after %d", it.Key, prev)
						return false
					}
					prev, first = it.Key, false
					return true
				})
				_ = s.Len()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	// Quiescent check: the store equals the union of the worker maps.
	union := map[int64]int64{}
	for _, ref := range refs {
		for k, v := range ref {
			union[k] = v
		}
	}
	if s.Len() != len(union) {
		t.Fatalf("final Len = %d, want %d", s.Len(), len(union))
	}
	seen := 0
	s.Ascend(func(it Item) bool {
		v, ok := union[it.Key]
		if !ok || v != it.Val {
			t.Errorf("store holds (%d,%d) not in reference union", it.Key, it.Val)
			return false
		}
		seen++
		return true
	})
	if seen != len(union) {
		t.Fatalf("Ascend visited %d keys, want %d", seen, len(union))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentOverlapping hammers a tiny shared key space from
// many goroutines. Final values are nondeterministic, but every value
// must be one some goroutine actually wrote for that key, and all
// structural invariants must hold. The race detector checks the rest.
func TestStoreConcurrentOverlapping(t *testing.T) {
	const (
		workers = 8
		keys    = 64
	)
	ops := scaled(3000)
	s, err := New(4, 55, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(g) + 500)
			for i := 0; i < ops; i++ {
				k := int64(rng.Intn(keys))
				switch rng.Intn(4) {
				case 0, 1:
					// Value encodes (key, writer) so the final check can
					// validate provenance.
					s.Put(k, k*1000+int64(g))
				case 2:
					s.Delete(k)
				case 3:
					if v, ok := s.Get(k); ok {
						if v/1000 != k || v%1000 >= workers {
							t.Errorf("Get(%d) observed impossible value %d", k, v)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	s.Ascend(func(it Item) bool {
		if it.Key < 0 || it.Key >= keys || it.Val/1000 != it.Key || it.Val%1000 >= workers {
			t.Errorf("final state holds impossible item %+v", it)
			return false
		}
		return true
	})
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentSnapshotOps exercises the whole-store operations
// (WriteTo, Stats, Range, Min/Max) while writers mutate: each must see a
// coherent atomic cut and never corrupt anything.
func TestStoreConcurrentSnapshotOps(t *testing.T) {
	s, err := New(8, 77, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 2000; k += 2 {
		s.Put(k, k)
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := xrand.New(uint64(g) + 9000)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := int64(rng.Intn(2000))
				if rng.Intn(2) == 0 {
					s.Put(k, k)
				} else {
					s.Delete(k)
				}
			}
		}(g)
	}
	for i := 0; i < scaled(30); i++ {
		var buf discardWriter
		if _, err := s.WriteTo(&buf); err != nil {
			t.Errorf("WriteTo under writers: %v", err)
			break
		}
		out := s.Range(0, 2000, nil)
		for j := 1; j < len(out); j++ {
			if out[j].Key <= out[j-1].Key {
				t.Errorf("Range snapshot out of order at %d", j)
			}
		}
		// Min/Max are separate snapshots under concurrent deletes, so
		// only each call's own consistency is checkable here.
		if mn, ok := s.Min(); ok && (mn.Key < 0 || mn.Key >= 2000) {
			t.Errorf("Min observed impossible key %d", mn.Key)
		}
		if mx, ok := s.Max(); ok && (mx.Key < 0 || mx.Key >= 2000) {
			t.Errorf("Max observed impossible key %d", mx.Key)
		}
	}
	close(stop)
	writers.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// snapshotOp is step j of TestSnapshotShardUnderWriter's deterministic
// write stream over one shard: every step bumps the shard's version by
// exactly one, so "the contents at version v" is the first v steps.
func snapshotOp(s *Store, keys []int64, j int) {
	flicker, stable := keys[0], keys[1+(j/4)%(len(keys)-1)]
	switch j % 4 {
	case 0:
		s.Put(flicker, int64(j))
	case 1:
		s.Put(stable, int64(j))
	case 2:
		s.Delete(flicker) // present since step j-2
	case 3:
		s.PutTTL(stable, int64(j), 1<<40)
	}
}

// TestSnapshotShardUnderWriter hammers one shard with writes while it
// is snapshotted. SnapshotShard copies the contents under the shard's
// lock and renders after releasing it, so the contract to hold is: the
// returned version names exactly the contents the image encodes — the
// image must equal the canonical image of a quiescent store holding the
// first `version` steps of the write stream. Run under -race: the
// render reads its private copy while the writer mutates the shard.
func TestSnapshotShardUnderWriter(t *testing.T) {
	const seed = 77
	steps := scaled(24000)
	s, err := New(2, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var keys []int64
	for k := int64(1); len(keys) < 200; k++ {
		if s.ShardOf(k) == 0 {
			keys = append(keys, k)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j := 0; j < steps; j++ {
			snapshotOp(s, keys, j)
		}
	}()

	check := func() uint64 {
		var img bytes.Buffer
		ver, n, err := s.SnapshotShard(0, &img)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(img.Len()) {
			t.Fatalf("SnapshotShard reported %d bytes, wrote %d", n, img.Len())
		}
		ref, err := New(2, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < int(ver); j++ {
			snapshotOp(ref, keys, j)
		}
		var want bytes.Buffer
		if _, err := ref.WriteShard(0, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img.Bytes(), want.Bytes()) {
			t.Fatalf("image captured at version %d is not the canonical image of the first %d writes", ver, ver)
		}
		return ver
	}
	torn := 0 // snapshots taken while the writer was mid-stream
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if ver := check(); ver > 0 && ver < uint64(steps) {
			torn++
		}
	}
	if ver := check(); ver != uint64(steps) || s.ShardVersion(0) != ver {
		t.Fatalf("quiescent snapshot at version %d, shard at %d, want both %d", ver, s.ShardVersion(0), steps)
	}
	if torn == 0 {
		t.Log("no snapshot landed mid-stream on this run; the contract was only checked at rest")
	}
}
