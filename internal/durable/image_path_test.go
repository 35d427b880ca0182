package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/expiry"
)

// goldenLoad fills db with the fixed contents the golden hashes below
// were recorded over: enough default-keyspace keys that every shard is
// a real tree, one key in eight with a far-future expiry, and two
// tenants small enough to sit in the dynamic-array fallback.
func goldenLoad(t testing.TB, db *DB) {
	t.Helper()
	items := make([]Item, 0, 6000)
	for k := int64(1); k <= 6000; k++ {
		items = append(items, Item{Key: k * 977, Val: k*k + 3})
	}
	db.PutBatch(items)
	for k := int64(8); k <= 6000; k += 8 {
		db.PutTTL(k*977, -k, 1<<40)
	}
	for k := int64(0); k < 150; k++ {
		if _, err := db.NSPut("acme", k*5, k); err != nil {
			t.Fatal(err)
		}
		if _, err := db.NSPutTTL("zeta", k, k*k, 1<<41); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenDir maps every file of the directory goldenLoad + Checkpoint
// produces (4 shards, seed 20160626, clock pinned at 1000) to its
// SHA-256, recorded from the parent of the commit that replaced
// "serialize a fresh bulk load" with the one-pass canonical emitter.
var goldenDir = map[string]string{
	"MANIFEST": "cc3523f864ca0c7b9888622acaadb402af32937b1eedcdd628831d6b6f5b1437",
	"shard-0f672680ae7fab17-0000-d9bc99bd01fe278c.img": "d9bc99bd01fe278cbb9dfbe73170e1a8a1596dea136eab934045cd31ad25c1ec",
	"shard-0f672680ae7fab17-0001-cc6b804ef892b2d9.img": "cc6b804ef892b2d989fa92f208ff21cd06756e1f9406ee5fbae5c13d89a3016f",
	"shard-0f672680ae7fab17-0002-547d502744b1f351.img": "547d502744b1f35157745291ad23abedf9ea2dfe0b410e914454d21b7be4a440",
	"shard-0f672680ae7fab17-0003-f84970fa6855e3c1.img": "f84970fa6855e3c121f027114bb8ff3edd271057169cfc169dfecb9d3d3634aa",
	"shard-331cdd19008b1e14-0000-3702a4c416efb1ec.img": "3702a4c416efb1ec3efc2ed7a0521ddfd0617cd9141b899a8ecdfc2f1f08b6d9",
	"shard-331cdd19008b1e14-0001-890c35ca1cce19ff.img": "890c35ca1cce19ff2f717c0d583f7da3d0ac8e6857bc02e3d22a892a8b7d2e87",
	"shard-331cdd19008b1e14-0002-5cd91bb211314ef9.img": "5cd91bb211314ef99f4f5717fd9356feae93452caaad98d1252d75c77ed7a735",
	"shard-331cdd19008b1e14-0003-3d6383dd7825fc9d.img": "3d6383dd7825fc9d316126950c2142d2a9de0ba89f903f8fd8c2329baf12f7b9",
	"shard-a141963039b7f967-0000-0d93dce51200bc66.img": "0d93dce51200bc66e414cbd0a1201ee0434a54fc81a7f35cc42cd14fc057a3df",
	"shard-a141963039b7f967-0001-1b71485d2ebde5e9.img": "1b71485d2ebde5e97b229b7beaa7f956ef90ad1351e048776fbbfbc65d37106d",
	"shard-a141963039b7f967-0002-bc75907ab892292e.img": "bc75907ab892292e035fd1becde6903f49ec587d7bbc1f05f5b57bb11c6a3b4e",
	"shard-a141963039b7f967-0003-83c2cb6c57a5e611.img": "83c2cb6c57a5e6110729d9a9f7e1298d08bb7adbeed20467a62208b27db80215",
}

// TestDirectoryMatchesParentCommit pins the on-disk bytes across the
// render-path rewrite: same file names, same bytes, for the same
// (contents, seed), as the commit before it wrote.
func TestDirectoryMatchesParentCommit(t *testing.T) {
	fs := NewMemFS()
	db, err := Open("db", &Options{Shards: 4, Seed: 20160626, NoBackground: true, FS: fs, Clock: expiry.NewManual(1000)})
	if err != nil {
		t.Fatal(err)
	}
	goldenLoad(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got := dirSnapshot(t, fs, "db")
	for name, data := range got {
		sum := sha256.Sum256(data)
		if want, ok := goldenDir[name]; !ok {
			t.Errorf("unexpected file %s (sha256 %x)", name, sum)
		} else if hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: sha256 %x, the parent commit wrote %s", name, sum, want)
		}
	}
	for name := range goldenDir {
		if _, ok := got[name]; !ok {
			t.Errorf("missing file %s", name)
		}
	}
}

// heapAllocated returns the bytes fn allocates on the heap, all
// goroutines included (the tests below run nothing else), minus what fs
// allocated to hold the files fn wrote: MemFS keeps every written byte
// twice (volatile content plus the copy File.Sync takes), which is the
// harness's cost, not the engine's.
func heapAllocated(fs *MemFS, fn func()) int64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	runtime.GC()
	metrics.Read(sample)
	before, held := sample[0].Value.Uint64(), fs.HeapBytes()
	fn()
	metrics.Read(sample)
	return int64(sample[0].Value.Uint64()-before) - (fs.HeapBytes() - held)
}

// The allocation budgets of the three paths an image takes, each as a
// multiple of the committed image bytes, with every shard dirty. They
// are what keeps "one pass per image" true outside the benchmark.
const (
	// checkpointAllocBudget pays for one staging buffer the size of the
	// largest shard image (an eighth of the total here, reallocated only
	// when a later shard is larger), the per-shard copy of the sorted
	// contents (pooled; about a third of one image), and each render's
	// two trees and vEB layout (about 8% of its image).
	checkpointAllocBudget = 0.5
	// installAllocBudget pays for every shard's slot array (the image
	// minus its trees, about 0.94×), its two trees and layout, and the
	// occupancy bitmap of one invariant check per dictionary.
	installAllocBudget = 2.0
	// openAllocBudget pays for what install pays for plus one read buffer
	// the size of the largest image file, reused for every file.
	openAllocBudget = 1.6
)

// TestImagePathAllocationBudgets measures Checkpoint, Install and Open
// over ~100k keys in 8 shards, all dirty, against the budgets
// above, on MemFS. Under the race detector every path still runs, but
// the readings are only logged: there sync.Pool drops a quarter of what
// is Put, so pooled scratch is never steady.
func TestImagePathAllocationBudgets(t *testing.T) {
	fs := NewMemFS()
	opts := func() *Options {
		return &Options{Shards: 8, Seed: 41, NoBackground: true, FS: fs, Clock: expiry.NewManual(1000)}
	}
	db, err := Open("primary", opts())
	if err != nil {
		t.Fatal(err)
	}
	const keys = 100_000
	items := make([]Item, 0, keys)
	for k := int64(0); k < keys; k++ {
		items = append(items, Item{Key: k*7919 + 1, Val: k})
	}
	db.PutBatch(items)
	for k := int64(0); k < keys; k += 8 {
		db.PutTTL(k*7919+1, k, 1<<40)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Dirty every shard again so the measured checkpoint is a steady
	// one: previous entries to compare against, snapshot scratch warm.
	for k := int64(0); k < keys; k += 2 {
		items[k].Val++
	}
	db.PutBatch(items)

	imageBytes := func() (total int64) {
		for _, e := range db.man.cells[0].shards {
			total += e.Size
		}
		return total
	}
	check := func(what string, got, images int64, budget float64) {
		t.Helper()
		ratio := float64(got) / float64(images)
		t.Logf("%-17s allocated %9d B = %.2f x %d image bytes (budget %.1f x)", what, got, ratio, images, budget)
		if ratio > budget && !raceEnabled {
			t.Errorf("%s allocated %.2f x the image bytes, budget %.1f x", what, ratio, budget)
		}
	}

	got := heapAllocated(fs, func() {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	images := imageBytes()
	check("Checkpoint", got, images, checkpointAllocBudget)

	// The same checkpoint, installed into a second, empty database. The
	// blobs are in hand before the measurement starts, as a replica's are
	// when its fetch returns: what is measured is the install.
	man := committedManifest(t, db)
	blobs := map[[32]byte][]byte{}
	for _, e := range db.man.cells[0].shards {
		if blobs[e.Hash], err = blobBytes(db, e.Hash); err != nil {
			t.Fatal(err)
		}
	}
	rdb, err := Open("replica", &Options{Shards: 8, Seed: 43, NoBackground: true, NoSweep: true, FS: fs, Clock: expiry.NewManual(1000)})
	if err != nil {
		t.Fatal(err)
	}
	got = heapAllocated(fs, func() {
		err := rdb.Install(man, func(dst []byte, hash [32]byte, _ int64) ([]byte, error) { return append(dst, blobs[hash]...), nil })
		if err != nil {
			t.Fatal(err)
		}
	})
	check("Install", got, images, installAllocBudget)
	blobs = nil
	if err := rdb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var reopened *DB
	got = heapAllocated(fs, func() {
		if reopened, err = Open("primary", opts()); err != nil {
			t.Fatal(err)
		}
	})
	check("Open", got, images, openAllocBudget)
	if reopened.Len() != keys {
		t.Fatalf("reopened database holds %d keys, want %d", reopened.Len(), keys)
	}
	reopened.Abandon()
}

// TestCheckpointUndoneChangeWritesNothing: an insert undone by a delete
// moves a shard's version but not its canonical bytes, so the
// checkpoint must recognise the image by hash and touch nothing — no
// image file, no temp file, not one mutating filesystem call.
func TestCheckpointUndoneChangeWritesNothing(t *testing.T) {
	fs := NewMemFS()
	db, err := Open("db", memOpts(fs, 4, 9))
	if err != nil {
		t.Fatal(err)
	}
	crashOpsA(db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := dirSnapshot(t, fs, "db")

	const key = 1_000_003 // absent from crashOpsA
	idx := db.Store().ShardOf(key)
	v0 := db.Store().ShardVersion(idx)
	db.Put(key, 1)
	db.Delete(key)
	if db.Store().ShardVersion(idx) == v0 {
		t.Fatal("insert+delete did not move the shard version; the test exercises nothing")
	}
	ops := fs.Ops()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := fs.Ops() - ops; n != 0 {
		t.Fatalf("checkpoint of byte-identical contents made %d mutating filesystem calls: %v", n, fs.OpCounts())
	}
	after := dirSnapshot(t, fs, "db")
	if !sameSnapshot(before, after) {
		t.Fatal("directory changed across a checkpoint of byte-identical contents")
	}
	for name := range after {
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("temp file %s left behind", name)
		}
	}
	if err := db.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointFailureAfterPublishingLeavesOnlyOrphans: images are
// published shard by shard, so a checkpoint that fails on shard k > 0
// has already put shards < k on disk. Those files must be invisible:
// the failed checkpoint reports its error, the old manifest still
// recovers the old contents, and the orphans are gone after either the
// next successful checkpoint or the next Open. (Rendering into memory
// cannot itself fail, so the fault is injected where shard k is
// published, right after it rendered.)
func TestCheckpointFailureAfterPublishingLeavesOnlyOrphans(t *testing.T) {
	const shards, seed = 8, 7
	wantA := freshLoadSnapshot(t, shards, seed, refA())
	wantB := freshLoadSnapshot(t, shards, seed, refB())

	setup := func() (*MemFS, *DB) {
		fs := NewMemFS()
		db, err := Open("db", memOpts(fs, shards, seed))
		if err != nil {
			t.Fatal(err)
		}
		crashOpsA(db)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		crashOpsB(db)
		// Each image is Create, Write, Sync, Rename: fail the Create of
		// the third one, after two were published whole.
		fs.FailAfter(2*4 + 1)
		if err := db.Checkpoint(); !errors.Is(err, ErrInjected) {
			t.Fatalf("checkpoint with a failing disk returned %v", err)
		}
		orphans := 0
		for name := range dirSnapshot(t, fs, "db") {
			if _, ok := wantA[name]; !ok {
				orphans++
			}
		}
		if orphans != 2 {
			t.Fatalf("%d files beyond the old checkpoint's after the failure, want the 2 published images", orphans)
		}
		return fs, db
	}

	t.Run("next checkpoint", func(t *testing.T) {
		fs, db := setup()
		fs.Heal()
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.VerifyCanonical(); err != nil {
			t.Fatal(err)
		}
		if got := dirSnapshot(t, fs, "db"); !sameSnapshot(got, wantB) {
			t.Fatal("directory after the retried checkpoint is not the canonical one for the new contents")
		}
	})
	t.Run("reopen", func(t *testing.T) {
		// A process restart without a power cut: the orphans are still
		// in the directory when Open lists it.
		fs, db := setup()
		db.Abandon()
		fs.Heal()
		db2, err := Open("db", &Options{Seed: 999, NoBackground: true, FS: fs})
		if err != nil {
			t.Fatalf("old manifest no longer recovers: %v", err)
		}
		if got := dumpAll(t, db2); !sameKeyspaces(got, refA()) {
			t.Fatal("recovered contents are not the last committed checkpoint's")
		}
		if got := dirSnapshot(t, fs, "db"); !sameSnapshot(got, wantA) {
			t.Fatal("Open left orphaned images of the failed checkpoint behind")
		}
		db2.Abandon()
	})
}
