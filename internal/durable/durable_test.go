package durable

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// memOpts returns options pinned to an in-memory FS with no background
// goroutine, the baseline for deterministic tests.
func memOpts(fs *MemFS, shards int, seed uint64) *Options {
	return &Options{Shards: shards, Seed: seed, NoBackground: true, FS: fs}
}

func dump(t *testing.T, db *DB) map[int64]int64 {
	t.Helper()
	out := map[int64]int64{}
	db.Ascend(func(it Item) bool {
		out[it.Key] = it.Val
		return true
	})
	return out
}

func sameContents(a, b map[int64]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// dirSnapshot reads every file in dir into a name -> bytes map.
func dirSnapshot(t *testing.T, fs FS, dir string) map[string][]byte {
	t.Helper()
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, n := range names {
		f, err := fs.Open(dir + "/" + n)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		out[n] = buf.Bytes()
	}
	return out
}

func sameSnapshot(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for n, ab := range a {
		if !bytes.Equal(ab, b[n]) {
			return false
		}
	}
	return true
}

func TestOpenCreateCheckpointReopen(t *testing.T) {
	fs := NewMemFS()
	db, err := Open("db", memOpts(fs, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	ref := map[int64]int64{}
	for k := int64(0); k < 500; k++ {
		db.Put(k*3, k)
		ref[k*3] = k
	}
	for k := int64(0); k < 500; k += 5 {
		db.Delete(k * 3)
		delete(ref, k*3)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a different seed: contents and routing must survive.
	db2, err := Open("db", &Options{Seed: 99, NoBackground: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dump(t, db2); !sameContents(got, ref) {
		t.Fatalf("reopened contents differ: %d keys, want %d", len(got), len(ref))
	}
	if err := db2.Store().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := db2.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
}

func TestOSFilesystemRoundTrip(t *testing.T) {
	dir := t.TempDir() + "/db"
	db, err := Open(dir, &Options{Shards: 4, Seed: 7, NoBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 200; k++ {
		db.Put(k, k*k)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, &Options{Seed: 8, NoBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 200 {
		t.Fatalf("reopened Len = %d, want 200", db2.Len())
	}
	if v, ok := db2.Get(137); !ok || v != 137*137 {
		t.Fatalf("Get(137) = %d, %v", v, ok)
	}
	if err := db2.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
}

// An incremental checkpoint of a store with one dirty shard out of 64
// must rewrite exactly one shard file plus the manifest.
func TestIncrementalCheckpointRewritesOnlyDirtyShards(t *testing.T) {
	fs := NewMemFS()
	db, err := Open("db", memOpts(fs, 64, 11))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	items := make([]Item, 0, 4096)
	for k := int64(0); k < 4096; k++ {
		items = append(items, Item{Key: k, Val: k})
	}
	db.PutBatch(items)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := dirSnapshot(t, fs, "db")
	opsBefore := fs.OpCounts()

	// Dirty exactly one shard.
	target := db.Store().ShardOf(77)
	db.Put(77, -1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	opsAfter := fs.OpCounts()
	if creates := opsAfter["create"] - opsBefore["create"]; creates != 2 {
		t.Errorf("checkpoint created %d files, want 2 (1 shard image + manifest)", creates)
	}
	if renames := opsAfter["rename"] - opsBefore["rename"]; renames != 2 {
		t.Errorf("checkpoint renamed %d files, want 2", renames)
	}

	after := dirSnapshot(t, fs, "db")
	changedShards := 0
	for n := range before {
		if _, still := after[n]; !still && n != manifestName {
			changedShards++
		}
	}
	if changedShards != 1 {
		t.Errorf("%d shard files superseded, want exactly 1 (dirty shard %d of 64)", changedShards, target)
	}
	if bytes.Equal(before[manifestName], after[manifestName]) {
		t.Error("manifest did not change across a content change")
	}
}

// Two databases built by different operation histories that reach the
// same contents must have byte-identical directories: same file names,
// same file bytes, same manifest.
func TestCanonicalDirectoryAcrossHistories(t *testing.T) {
	build := func(fs *MemFS, twisted bool) {
		db, err := Open("db", memOpts(fs, 8, 1234))
		if err != nil {
			t.Fatal(err)
		}
		if !twisted {
			for k := int64(0); k < 900; k++ {
				db.Put(k, k+7)
			}
			for k := int64(0); k < 900; k += 3 {
				db.Delete(k)
			}
		} else {
			// Same final contents, wildly different history: reverse
			// order, interleaved garbage keys, several checkpoints
			// in the middle.
			for k := int64(899); k >= 0; k-- {
				db.Put(k, -k)
				db.Put(k+10000, 1)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for k := int64(0); k < 900; k++ {
				if k%3 == 0 {
					db.Delete(k)
				} else {
					db.Put(k, k+7)
				}
				db.Delete(k + 10000)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	fsA, fsB := NewMemFS(), NewMemFS()
	build(fsA, false)
	build(fsB, true)
	a, b := dirSnapshot(t, fsA, "db"), dirSnapshot(t, fsB, "db")
	if !sameSnapshot(a, b) {
		t.Fatalf("directories diverge across histories: %d files vs %d files", len(a), len(b))
	}
}

// A version bump whose canonical bytes come out unchanged (mutation
// undone) must not rewrite anything.
func TestUnchangedContentSkipsRewrite(t *testing.T) {
	fs := NewMemFS()
	db, err := Open("db", memOpts(fs, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := int64(0); k < 100; k++ {
		db.Put(k, k)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := fs.OpCounts()

	db.Put(3, 999)
	db.Put(3, 3) // back to the committed value
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := fs.OpCounts()
	if after["create"] != before["create"] || after["rename"] != before["rename"] {
		t.Errorf("undone mutation caused a rewrite: creates %d->%d renames %d->%d",
			before["create"], after["create"], before["rename"], after["rename"])
	}
	// The committed image already covers both ops: none is pending, or
	// the threshold trigger would count them against every later write.
	if got := db.PendingOps(); got != 0 {
		t.Errorf("%d ops pending after a checkpoint that found nothing to write, want 0", got)
	}

	// And a checkpoint with no version movement at all is a no-op too.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := fs.OpCounts(); got["syncdir"] != after["syncdir"] {
		t.Error("clean checkpoint touched the filesystem")
	}
}

func TestBackgroundCheckpointThreshold(t *testing.T) {
	fs := NewMemFS()
	db, err := Open("db", &Options{
		Shards: 4, Seed: 3, FS: fs,
		CheckpointInterval:  time.Hour, // only the threshold can fire
		CheckpointThreshold: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	base := db.Checkpoints()
	for k := int64(0); k < 64; k++ {
		db.Put(k, k)
	}
	deadline := time.Now().Add(10 * time.Second)
	for db.Checkpoints() == base {
		if time.Now().After(deadline) {
			t.Fatal("threshold-triggered background checkpoint never ran")
		}
		time.Sleep(time.Millisecond)
	}
}

// parkFS parks the next SyncDir after a token is put in armed: the
// parked call announces itself on entered and waits for release, so a
// test can hold a checkpoint open mid-commit.
type parkFS struct {
	FS
	armed, entered, release chan struct{}
}

func (p *parkFS) SyncDir(dir string) error {
	select {
	case <-p.armed:
		p.entered <- struct{}{}
		<-p.release
	default:
	}
	return p.FS.SyncDir(dir)
}

// TestCheckpointThresholdKicksOncePerCrossing: writes that land while a
// threshold-kicked checkpoint is still running must not re-arm the
// trigger by themselves. A quarter threshold of them used to buy a
// second checkpoint the moment the first returned (the kick fired on
// every write at or above the threshold, not on the crossing); they
// must instead wait for their own crossing. A full threshold's worth
// landing during a checkpoint gets exactly one follow-up.
func TestCheckpointThresholdKicksOncePerCrossing(t *testing.T) {
	const T = 64
	pfs := &parkFS{FS: NewMemFS(), armed: make(chan struct{}, 1),
		entered: make(chan struct{}), release: make(chan struct{})}
	db, err := Open("db", &Options{
		Shards: 4, Seed: 3, FS: pfs,
		CheckpointInterval:  time.Hour, // only the threshold can fire
		CheckpointThreshold: T,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	base := db.Checkpoints()
	key := int64(0)
	put := func(n int) {
		for i := 0; i < n; i++ {
			db.Put(key, key)
			key++
		}
	}
	waitCheckpoints := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for db.Checkpoints() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := db.Checkpoints(); got != want {
			t.Fatalf("checkpoints = %d, want %d", got, want)
		}
	}

	pfs.armed <- struct{}{}
	put(T) // crosses: the checkpoint starts and parks mid-commit
	<-pfs.entered
	put(T / 4)
	pfs.release <- struct{}{}
	waitCheckpoints(base + 1)
	put(3*T/4 - 1) // T-1 uncheckpointed ops: still below the threshold
	if got := db.Checkpoints(); got != base+1 {
		t.Fatalf("%d checkpoints committed for one threshold crossing, want 1", got-base)
	}
	put(1) // the second crossing
	waitCheckpoints(base + 2)
	if got := db.PendingOps(); got != 0 {
		t.Fatalf("%d ops pending after the second crossing's checkpoint, want 0", got)
	}

	pfs.armed <- struct{}{}
	put(T)
	<-pfs.entered
	put(2 * T) // two thresholds' worth during one checkpoint: one follow-up
	pfs.release <- struct{}{}
	waitCheckpoints(base + 4)
	if got := db.PendingOps(); got != 0 {
		t.Fatalf("%d ops pending after the follow-up checkpoint, want 0", got)
	}
}

func TestBackgroundCheckpointInterval(t *testing.T) {
	fs := NewMemFS()
	db, err := Open("db", &Options{
		Shards: 4, Seed: 3, FS: fs,
		CheckpointInterval:  5 * time.Millisecond,
		CheckpointThreshold: 1 << 30, // only the timer can fire
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	base := db.Checkpoints()
	db.Put(1, 1)
	deadline := time.Now().Add(10 * time.Second)
	for db.Checkpoints() == base {
		if time.Now().After(deadline) {
			t.Fatal("interval-triggered background checkpoint never ran")
		}
		time.Sleep(time.Millisecond)
	}
}

// Superseded image files must be zero-overwritten before unlink.
func TestSupersededFilesAreWiped(t *testing.T) {
	fs := NewMemFS()
	db, err := Open("db", memOpts(fs, 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := int64(0); k < 200; k++ {
		db.Put(k, k)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 200; k++ {
		db.Put(k, -k)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wipedImages := 0
	for _, r := range fs.Removals() {
		if r.Name != manifestName && len(r.Name) > 4 && r.Name[len(r.Name)-4:] == ".img" {
			if !r.Wiped {
				t.Errorf("superseded image %s unlinked without wipe", r.Name)
			}
			wipedImages++
		}
	}
	if wipedImages == 0 {
		t.Fatal("no superseded image was removed; expected wiped removals")
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	newDB := func() *MemFS {
		fs := NewMemFS()
		db, err := Open("db", memOpts(fs, 4, 2))
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 300; k++ {
			db.Put(k, k)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	corrupt := func(fs *MemFS, pick func(string) bool, mutate func([]byte) []byte) {
		t.Helper()
		names, err := fs.List("db")
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if !pick(n) {
				continue
			}
			f, _ := fs.Open("db/" + n)
			var buf bytes.Buffer
			buf.ReadFrom(f)
			f.Close()
			w, err := fs.Create("db/" + n)
			if err != nil {
				t.Fatal(err)
			}
			w.Write(mutate(buf.Bytes()))
			w.Close()
			return
		}
		t.Fatal("no file matched")
	}
	flip := func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }
	trunc := func(b []byte) []byte { return b[:len(b)/3] }

	fs := newDB()
	corrupt(fs, func(n string) bool { return n == manifestName }, flip)
	if _, err := Open("db", &Options{FS: fs, NoBackground: true}); err == nil {
		t.Error("Open accepted a corrupt manifest")
	}

	fs = newDB()
	corrupt(fs, func(n string) bool { return n != manifestName }, flip)
	if _, err := Open("db", &Options{FS: fs, NoBackground: true}); err == nil {
		t.Error("Open accepted a corrupt shard image")
	}

	fs = newDB()
	corrupt(fs, func(n string) bool { return n != manifestName }, trunc)
	if _, err := Open("db", &Options{FS: fs, NoBackground: true}); err == nil {
		t.Error("Open accepted a truncated shard image")
	}
}

func TestOpenSweepsDebris(t *testing.T) {
	fs := NewMemFS()
	db, err := Open("db", memOpts(fs, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	db.Put(1, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"db/stray.img.tmp", "db/shard-0001-0000000000000000.img"} {
		f, err := fs.Create(junk)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("junk"))
		f.Close()
	}
	db2, err := Open("db", &Options{FS: fs, NoBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "stray.img.tmp" || n == "shard-0001-0000000000000000.img" {
			t.Errorf("debris %s survived Open", n)
		}
	}
	if err := db2.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedErrors(t *testing.T) {
	fs := NewMemFS()
	db, err := Open("db", memOpts(fs, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint after Close = %v, want ErrClosed", err)
	}
}
