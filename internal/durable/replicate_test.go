package durable

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
)

// openMem opens a DB over a fresh MemFS with deterministic options.
func openMem(t *testing.T, fs *MemFS, dir string, seed uint64) *DB {
	t.Helper()
	db, err := Open(dir, &Options{Shards: 4, Seed: seed, NoBackground: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// dirBytes snapshots every file in dir as name -> content.
func dirBytes(t *testing.T, fs FS, dir string) map[string][]byte {
	t.Helper()
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
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

// sameDir asserts two directory snapshots are byte-identical.
func sameDir(t *testing.T, a, b map[string][]byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("directory file counts differ: %d vs %d", len(a), len(b))
	}
	for n, ab := range a {
		bb, ok := b[n]
		if !ok {
			t.Fatalf("file %s missing from second directory", n)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("file %s differs: %d vs %d bytes", n, len(ab), len(bb))
		}
	}
}

// TestShardImageExport checks that ShardHashes and ShardImage agree
// with the committed files and that stale hashes are refused.
func TestShardImageExport(t *testing.T) {
	fs := NewMemFS()
	db := openMem(t, fs, "p", 7)
	defer db.Close()
	for k := int64(0); k < 500; k++ {
		db.Put(k, k*3)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	hseed, entries, err := db.ShardHashes("")
	if err != nil {
		t.Fatal(err)
	}
	if hseed != db.Store().RoutingSeed() {
		t.Fatalf("hseed %x, store says %x", hseed, db.Store().RoutingSeed())
	}
	if len(entries) != 4 {
		t.Fatalf("%d entries, want 4", len(entries))
	}
	for i, e := range entries {
		img, err := db.ShardImage("", i, e.Hash)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if int64(len(img)) != e.Size {
			t.Fatalf("shard %d: %d bytes, manifest says %d", i, len(img), e.Size)
		}
		if sha256.Sum256(img) != e.Hash {
			t.Fatalf("shard %d: bytes do not match advertised hash", i)
		}
	}

	// A superseded hash must be refused with the typed error.
	old := entries[0].Hash
	db.Put(1_000_001, 1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, entries2, err := db.ShardHashes("")
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries2 {
		if entries2[i].Hash == old {
			continue // this shard did not change; old hash still valid
		}
		if _, err := db.ShardImage("", i, old); !errors.Is(err, ErrStaleShard) {
			t.Fatalf("stale fetch of shard %d: %v", i, err)
		}
	}
}

// TestInstallCheckpoint ships a primary's images into a second DB and
// checks the directories become byte-identical while readers observe
// the new contents.
func TestInstallCheckpoint(t *testing.T) {
	pfs, rfs := NewMemFS(), NewMemFS()
	p := openMem(t, pfs, "db", 7)
	defer p.Close()
	r := openMem(t, rfs, "db", 99) // different seed: it is overwritten by install
	defer r.Close()

	for k := int64(0); k < 1000; k++ {
		p.Put(k, -k)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	hseed, images := committedImages(t, p, "")
	if err := r.InstallCheckpoint(hseed, []CellImages{{Images: images}}); err != nil {
		t.Fatal(err)
	}

	sameDir(t, dirBytes(t, pfs, "db"), dirBytes(t, rfs, "db"))
	if n := r.Len(); n != 1000 {
		t.Fatalf("replica holds %d keys, want 1000", n)
	}
	if v, ok := r.Get(123); !ok || v != -123 {
		t.Fatalf("replica Get(123) = %d %v", v, ok)
	}
	if err := r.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}

	// Installing the same checkpoint again is a no-op: zero mutating
	// filesystem operations.
	before := rfs.Ops()
	if err := r.InstallCheckpoint(hseed, []CellImages{{Images: images}}); err != nil {
		t.Fatal(err)
	}
	if after := rfs.Ops(); after != before {
		t.Fatalf("repeat install performed %d filesystem ops", after-before)
	}

	// The replica's directory must survive reopen (it is a valid DB dir).
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openMem(t, rfs, "db", 5)
	defer r2.Close()
	if v, ok := r2.Get(999); !ok || v != -999 {
		t.Fatalf("reopened replica Get(999) = %d %v", v, ok)
	}
}

// TestInstallCheckpointCrashSafety injects a fault at every mutating
// filesystem step of an install and checks recovery lands on either the
// old or the new checkpoint — never a mix, never an unopenable dir.
func TestInstallCheckpointCrashSafety(t *testing.T) {
	// Build the primary once; capture its images.
	pfs := NewMemFS()
	p := openMem(t, pfs, "db", 7)
	for k := int64(0); k < 800; k++ {
		p.Put(k, k^0x55)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	hseed, images := committedImages(t, p, "")
	primaryDir := dirBytes(t, pfs, "db")
	p.Close()

	for fail := 1; ; fail++ {
		rfs := NewMemFS()
		r := openMem(t, rfs, "db", 3)
		// Old state: a small unrelated keyset, checkpointed.
		r.Put(-5, 5)
		if err := r.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		oldDir := dirBytes(t, rfs, "db")

		rfs.FailAfter(fail)
		installErr := r.InstallCheckpoint(hseed, []CellImages{{Images: images}})
		r.Abandon()
		crashed := rfs.Crash()

		r2, err := Open("db", &Options{Seed: 11, NoBackground: true, FS: crashed})
		if err != nil {
			t.Fatalf("fail=%d: recovery: %v", fail, err)
		}
		got := dirBytes(t, crashed, "db")
		if v, ok := r2.Get(-5); ok && v == 5 {
			sameDir(t, oldDir, got) // rolled back: byte-exact old checkpoint
		} else if v, ok := r2.Get(0); ok && v == 0^0x55 {
			sameDir(t, primaryDir, got) // committed: byte-exact new checkpoint
		} else {
			t.Fatalf("fail=%d: recovered to neither old nor new state", fail)
		}
		r2.Close()

		if installErr == nil {
			// The fault point fell past the whole install: every earlier
			// step has been covered, so the sweep is complete.
			if fail < 3 {
				t.Fatalf("install succeeded with fault armed at op %d", fail)
			}
			break
		}
	}
}

// committedImages fetches keyspace ns's committed seed and image set.
func committedImages(t *testing.T, db *DB, ns string) (uint64, [][]byte) {
	t.Helper()
	hseed, entries, err := db.ShardHashes(ns)
	if err != nil {
		t.Fatal(err)
	}
	images := make([][]byte, len(entries))
	for i, e := range entries {
		if images[i], err = db.ShardImage(ns, i, e.Hash); err != nil {
			t.Fatal(err)
		}
	}
	return hseed, images
}

// TestInstallCheckpointRejectsCorruptImages checks hostile images fail
// before anything touches the directory.
func TestInstallCheckpointRejectsCorruptImages(t *testing.T) {
	fs := NewMemFS()
	db := openMem(t, fs, "db", 1)
	db.Put(1, 1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A tenant image set that is valid on its own — right derived seed,
	// power-of-two shard count — but cut for an 8-shard database, paired
	// with this 4-shard one's root. The manifest records one shard count
	// for every cell, so committing the pair would brick the directory:
	// the next Open could not decode its manifest.
	wide, err := Open("wide", memOpts(NewMemFS(), 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Abandon()
	if _, err := wide.NSPut("acme", 5, 50); err != nil {
		t.Fatal(err)
	}
	if err := wide.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	hseed, root := committedImages(t, db, "")
	_, tenant := committedImages(t, wide, "acme")
	if len(tenant) == len(root) {
		t.Fatalf("test set-up: both image sets have %d shards", len(root))
	}
	dirBefore := dirBytes(t, fs, "db")
	before := fs.Ops()

	if err := db.InstallCheckpoint(42, []CellImages{{Images: [][]byte{{1, 2, 3}}}}); err == nil {
		t.Fatal("garbage image accepted")
	}
	if err := db.InstallCheckpoint(42, []CellImages{{Images: make([][]byte, 3)}}); err == nil {
		t.Fatal("non-power-of-two shard count accepted")
	}
	if err := db.InstallCheckpoint(hseed, []CellImages{{Images: root}, {Name: "acme", Images: tenant}}); err == nil {
		t.Fatal("tenant image set with a different shard count than the root's accepted")
	}
	if err := db.InstallCheckpoint(hseed, []CellImages{{Name: "acme", Images: tenant}}); err == nil {
		t.Fatal("image set without the default keyspace accepted")
	}
	if after := fs.Ops(); after != before {
		t.Fatalf("rejected installs performed %d filesystem ops", after-before)
	}
	sameDir(t, dirBefore, dirBytes(t, fs, "db"))
	db.Abandon()
	re, err := Open("db", memOpts(fs, 4, 1))
	if err != nil {
		t.Fatalf("reopen after the rejected installs: %v", err)
	}
	defer re.Abandon()
	if v, ok := re.Get(1); !ok || v != 1 {
		t.Fatalf("reopened DB lost its contents: Get(1) = (%d, %v)", v, ok)
	}
}
