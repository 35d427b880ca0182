package durable

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
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

// openMemReplica is openMem in the replica role: an Install destination.
func openMemReplica(t *testing.T, fs *MemFS, dir string, seed uint64) *DB {
	t.Helper()
	db, err := Open(dir, &Options{Shards: 4, Seed: seed, NoBackground: true, NoSweep: true, FS: fs})
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

// committedManifest returns db's committed manifest bytes, fetched the
// way a replica does: the blob named by the checkpoint stamp.
func committedManifest(t *testing.T, db *DB) []byte {
	t.Helper()
	_, stamp := db.CheckpointStamp()
	man, err := blobBytes(db, stamp)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// appendBlob appends the committed blob of src named hash to dst, read
// through a BlobReader.
func appendBlob(dst []byte, src *DB, hash [32]byte) ([]byte, error) {
	r, err := src.OpenBlob(hash)
	if err != nil {
		return dst, err
	}
	defer r.Close()
	n := len(dst)
	dst = slices.Grow(dst, int(r.Size()))[:n+int(r.Size())]
	_, err = r.ReadAt(dst[n:], 0)
	return dst, err
}

// blobBytes returns the whole committed blob of db named hash.
func blobBytes(db *DB, hash [32]byte) ([]byte, error) { return appendBlob(nil, db, hash) }

// blobsOf is the fetch a replica hands Install, served from src's
// committed checkpoint.
func blobsOf(src *DB) func([]byte, [32]byte, int64) ([]byte, error) {
	return func(dst []byte, hash [32]byte, _ int64) ([]byte, error) { return appendBlob(dst, src, hash) }
}

// rot overwrites the first three bytes of a file in place, durably.
func rot(t *testing.T, fs FS, name string) {
	t.Helper()
	f, err := fs.OpenWrite(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0x01}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestShardImageExport checks that Blob serves exactly the committed
// checkpoint — the manifest under the stamp's hash, every image file
// under its own SHA-256 — and nothing else: hashes of a superseded
// checkpoint are refused as stale, and a file that rotted on disk is
// refused rather than served.
func TestShardImageExport(t *testing.T) {
	fs := NewMemFS()
	db := openMem(t, fs, "p", 7)
	defer db.Close()
	for k := int64(0); k < 500; k++ {
		db.Put(k, k*3)
	}
	if _, err := db.NSPut("acme", 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	dir := dirBytes(t, fs, "p")
	_, stamp := db.CheckpointStamp()
	man := committedManifest(t, db)
	if sha256.Sum256(man) != stamp || !bytes.Equal(man, dir[manifestName]) {
		t.Fatal("the blob under the checkpoint stamp is not the MANIFEST file")
	}
	images := 0
	for name, data := range dir {
		if !strings.HasSuffix(name, ".img") {
			continue
		}
		images++
		got, err := blobBytes(db, sha256.Sum256(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: blob differs from the committed file", name)
		}
	}
	if images != 8 {
		t.Fatalf("%d image files, want 4 per keyspace", images)
	}
	if _, err := blobBytes(db, [32]byte{1}); !errors.Is(err, ErrStale) {
		t.Fatalf("unknown hash: %v, want ErrStale", err)
	}

	// Hashes only the superseded checkpoint named must be refused with
	// the typed error: its manifest, and every image that changed.
	old := db.man.cells[0].shards
	db.Put(1_000_001, 1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := blobBytes(db, stamp); !errors.Is(err, ErrStale) {
		t.Fatalf("superseded manifest: %v, want ErrStale", err)
	}
	stale := 0
	for i, e := range db.man.cells[0].shards {
		if e.Hash == old[i].Hash {
			continue // this shard did not change; old hash still committed
		}
		stale++
		if _, err := blobBytes(db, old[i].Hash); !errors.Is(err, ErrStale) {
			t.Fatalf("stale fetch of shard %d: %v", i, err)
		}
	}
	if stale != 1 {
		t.Fatalf("one Put superseded %d images", stale)
	}

	// A committed image that rotted on disk is an error, never bytes.
	e := db.man.cells[0].shards[0]
	rot(t, fs, "p/"+imageFileName(db.man.hseed, 0, e.Hash))
	if img, err := blobBytes(db, e.Hash); err == nil || errors.Is(err, ErrStale) {
		t.Fatalf("rotten image served: %d bytes, err %v", len(img), err)
	}
}

// TestInstall ships a primary's checkpoint — root and a tenant — into a
// second DB and checks the directories become byte-identical while
// readers observe the new contents.
func TestInstall(t *testing.T) {
	pfs, rfs := NewMemFS(), NewMemFS()
	p := openMem(t, pfs, "db", 7)
	defer p.Close()
	r := openMemReplica(t, rfs, "db", 99) // different seed: it is overwritten by install
	defer r.Close()

	for k := int64(0); k < 1000; k++ {
		p.Put(k, -k)
	}
	if _, err := p.NSPut("acme", 5, 50); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	man := committedManifest(t, p)
	fetched := 0
	err := r.Install(man, func(dst []byte, hash [32]byte, size int64) ([]byte, error) {
		fetched++
		return appendBlob(dst, p, hash)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fetched != 8 {
		t.Fatalf("install into a foreign-seed directory fetched %d images, want all 8", fetched)
	}

	sameDir(t, dirBytes(t, pfs, "db"), dirBytes(t, rfs, "db"))
	if n := r.Len(); n != 1000 {
		t.Fatalf("replica holds %d keys, want 1000", n)
	}
	if v, ok := r.Get(123); !ok || v != -123 {
		t.Fatalf("replica Get(123) = %d %v", v, ok)
	}
	if v, ok := r.NSGet("acme", 5); !ok || v != 50 {
		t.Fatalf("replica acme[5] = %d %v", v, ok)
	}
	if err := r.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
	_, ps := p.CheckpointStamp()
	if _, rs := r.CheckpointStamp(); rs != ps {
		t.Fatal("checkpoint stamps differ after the install")
	}

	// Installing the same checkpoint again is a no-op: zero mutating
	// filesystem operations.
	before := rfs.Ops()
	if err := r.Install(man, blobsOf(p)); err != nil {
		t.Fatal(err)
	}
	if after := rfs.Ops(); after != before {
		t.Fatalf("repeat install performed %d filesystem ops", after-before)
	}

	// The next checkpoint moves one root shard and drops the tenant: the
	// install fetches that one image, rewrites no file already right, and
	// erases the tenant's.
	p.Put(5_000_000, 1)
	p.DropNamespace("acme")
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fetched = 0
	creates := rfs.OpCounts()["create"]
	err = r.Install(committedManifest(t, p), func(dst []byte, hash [32]byte, size int64) ([]byte, error) {
		fetched++
		return appendBlob(dst, p, hash)
	})
	if err != nil {
		t.Fatal(err)
	}
	if creates = rfs.OpCounts()["create"] - creates; fetched != 1 || creates != 2 {
		t.Fatalf("incremental install fetched %d images and created %d files, want 1 and 2 (image, manifest)", fetched, creates)
	}
	sameDir(t, dirBytes(t, pfs, "db"), dirBytes(t, rfs, "db"))
	if r.NSLen("acme") != 0 {
		t.Fatal("dropped tenant survived the install")
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

// TestInstallRefusedOnPrimary: a primary's directory follows its own
// writes, so a peer's checkpoint offered to it is refused, typed, before
// anything is fetched or a byte of the directory moves.
func TestInstallRefusedOnPrimary(t *testing.T) {
	src := openMem(t, NewMemFS(), "src", 7)
	defer src.Close()
	src.Put(1, 10)
	if err := src.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs := NewMemFS()
	db := openMem(t, fs, "db", 7)
	defer db.Close()
	db.Put(2, 20)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	ops, dir := fs.Ops(), dirBytes(t, fs, "db")
	err := db.Install(committedManifest(t, src), func([]byte, [32]byte, int64) ([]byte, error) {
		t.Error("a refused install fetched a blob")
		return nil, errors.New("unreachable")
	})
	if !errors.Is(err, ErrNotReplica) {
		t.Fatalf("install on a primary: %v, want ErrNotReplica", err)
	}
	if got := fs.Ops(); got != ops {
		t.Fatalf("the refused install performed %d filesystem ops", got-ops)
	}
	sameDir(t, dir, dirBytes(t, fs, "db"))
	if v, ok := db.Get(2); !ok || v != 20 {
		t.Fatalf("Get(2) = %d %v after the refused install", v, ok)
	}
}

// TestPromoteWaitsOutInFlightInstall: the role flips under the lock an
// install holds from its role check to its publish, so a promotion that
// arrives mid-install waits, the install lands whole, and from the flip
// on no install lands at all — the first write the new primary takes
// cannot be replaced by a peer's checkpoint.
func TestPromoteWaitsOutInFlightInstall(t *testing.T) {
	pfs, rfs := NewMemFS(), NewMemFS()
	p := openMem(t, pfs, "db", 7)
	defer p.Close()
	for k := int64(0); k < 200; k++ {
		p.Put(k, -k)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r := openMemReplica(t, rfs, "db", 7)
	defer r.Close()

	// The install parks inside its first fetch.
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	installed := make(chan error, 1)
	man := committedManifest(t, p)
	go func() {
		installed <- r.Install(man, func(dst []byte, hash [32]byte, _ int64) ([]byte, error) {
			once.Do(func() { close(parked) })
			<-release
			return appendBlob(dst, p, hash)
		})
	}()
	<-parked
	type promotion struct {
		n   uint64
		err error
	}
	promoted := make(chan promotion, 1)
	go func() {
		n, err := r.Promote()
		promoted <- promotion{n, err}
	}()
	select {
	case pr := <-promoted:
		t.Fatalf("Promote returned (%d, %v) with an install in flight", pr.n, pr.err)
	case <-time.After(20 * time.Millisecond):
	}
	if !r.Replica() {
		t.Fatal("the role flipped under an install in flight")
	}
	close(release)
	if err := <-installed; err != nil {
		t.Fatalf("the in-flight install: %v", err)
	}
	if pr := <-promoted; pr.err != nil || pr.n != 1 {
		t.Fatalf("promote: %d %v", pr.n, pr.err)
	}
	sameDir(t, dirBytes(t, pfs, "db"), dirBytes(t, rfs, "db"))

	// The new primary's first write survives whatever the old one
	// commits next.
	r.Put(1000, 1)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p.Put(2000, 2)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r.Install(committedManifest(t, p), blobsOf(p)); !errors.Is(err, ErrNotReplica) {
		t.Fatalf("install after the promotion: %v, want ErrNotReplica", err)
	}
	if v, ok := r.Get(1000); !ok || v != 1 {
		t.Fatalf("first post-promotion write = %d %v", v, ok)
	}
	if r.Has(2000) {
		t.Fatal("the old primary's later write reached the promoted node")
	}
	if err := r.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
}

// TestInstallCrashSafety injects a fault at every mutating filesystem
// step of an install — an incremental one over root and tenant cells:
// some images already local, some fetched, one tenant erased — and
// checks recovery lands on either the old or the new checkpoint,
// byte-exact: never a mix, never an unopenable dir, no debris.
func TestInstallCrashSafety(t *testing.T) {
	pfs := NewMemFS()
	p := openMem(t, pfs, "db", 7)
	defer p.Abandon()
	crashOpsA(p)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	oldMan, oldDir := committedManifest(t, p), dirBytes(t, pfs, "db")
	// A second primary at the same seed carries checkpoint A while p
	// moves on, so each round's replica can install A, then B.
	pa := openMemReplica(t, NewMemFS(), "db", 7)
	defer pa.Abandon()
	if err := pa.Install(oldMan, blobsOf(p)); err != nil {
		t.Fatal(err)
	}
	crashOpsB(p)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	newMan, newDir := committedManifest(t, p), dirBytes(t, pfs, "db")

	for fail := 1; ; fail++ {
		rfs := NewMemFS()
		r := openMemReplica(t, rfs, "db", 3)
		if err := r.Install(oldMan, blobsOf(pa)); err != nil {
			t.Fatal(err)
		}
		sameDir(t, oldDir, dirBytes(t, rfs, "db"))

		rfs.FailAfter(fail)
		installErr := r.Install(newMan, blobsOf(p))
		r.Abandon()
		crashed := rfs.Crash()

		r2, err := Open("db", &Options{Seed: 11, NoBackground: true, FS: crashed})
		if err != nil {
			t.Fatalf("fail=%d: recovery: %v", fail, err)
		}
		got := dirBytes(t, crashed, "db")
		if contents := dumpAll(t, r2); sameKeyspaces(contents, refA()) {
			sameDir(t, oldDir, got) // rolled back: byte-exact old checkpoint
		} else if sameKeyspaces(contents, refB()) {
			sameDir(t, newDir, got) // committed: byte-exact new checkpoint
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

// TestInstallRejectsCorruptImages checks that hostile manifests and
// hostile blobs fail without committing anything, and that whatever a
// failed install staged is gone by the time it returns.
func TestInstallRejectsCorruptImages(t *testing.T) {
	fs := NewMemFS()
	db := openMemReplica(t, fs, "db", 1)
	db.Put(1, 1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	src := openMem(t, NewMemFS(), "src", 42)
	defer src.Abandon()
	crashOpsA(src)
	if err := src.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	good := committedManifest(t, src)
	dirBefore := dirBytes(t, fs, "db")
	before := fs.Ops()

	// Manifests no Open could decode never reach the directory: garbage,
	// a shard count that is not a power of two, no default keyspace. (A
	// tenant with another shard count than the root's — the install bug
	// of PR 15 — cannot be written down: the format has one shard count.)
	odd := &manifest{hseed: 42, cells: []cellEntry{{shards: make([]imageEntry, 3)}}}
	headless := &manifest{hseed: 42, cells: []cellEntry{{name: "acme", shards: make([]imageEntry, 4)}}}
	for what, man := range map[string][]byte{
		"garbage":                    {1, 2, 3},
		"truncated":                  good[:len(good)-7],
		"three shards":               odd.encode(),
		"no default keyspace":        headless.encode(),
		"trailing byte past the crc": append(append([]byte(nil), good...), 0),
	} {
		if err := db.Install(man, blobsOf(src)); err == nil {
			t.Fatalf("%s manifest accepted", what)
		}
	}
	// A sound manifest whose first blob arrives as garbage.
	junk := func([]byte, [32]byte, int64) ([]byte, error) { return []byte{1, 2, 3}, nil }
	if err := db.Install(good, junk); err == nil {
		t.Fatal("garbage image accepted")
	}
	if after := fs.Ops(); after != before {
		t.Fatalf("rejected installs performed %d filesystem ops", after-before)
	}

	// Images that are exactly what the manifest's hashes say, filed under
	// the wrong tenant: every blob verifies, and assembly must still
	// refuse — the keys do not route under the seed derived for "zeta".
	misfiled, err := decodeManifest(good)
	if err != nil {
		t.Fatal(err)
	}
	for k := range misfiled.cells {
		if misfiled.cells[k].name == "brief" {
			misfiled.cells[k].name = "zeta"
		}
	}
	if err := db.Install(misfiled.encode(), blobsOf(src)); err == nil {
		t.Fatal("tenant images filed under another tenant's name accepted")
	}
	sameDir(t, dirBefore, dirBytes(t, fs, "db"))

	// A fetch that fails on the k-th blob, for every k: whatever was
	// staged before it is wiped once Install returns.
	for k := 1; k <= len(misfiled.cells)*4; k++ {
		calls := 0
		err := db.Install(good, func(dst []byte, hash [32]byte, size int64) ([]byte, error) {
			if calls++; calls == k {
				return nil, errors.New("peer went away")
			}
			return appendBlob(dst, src, hash)
		})
		if err == nil || calls != k {
			t.Fatalf("install with fetch %d failing: %d fetches, err %v", k, calls, err)
		}
		sameDir(t, dirBefore, dirBytes(t, fs, "db"))
	}

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
