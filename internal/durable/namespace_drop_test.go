package durable_test

// Regression proofs for the two ways a tenant drop could quietly come
// undone:
//
// TestDropNSRecreateBeforeCheckpointNoResurrection: a tenant dropped
// and recreated between checkpoints must not inherit the dropped
// incarnation's committed images — the recreated cell's zeroed version
// floors match its untouched shards, and reusing the old manifest
// entry for them would resurrect dropped data.
//
// TestEmptiedTenantRefilledRendersInFull: a tenant emptied key by key
// leaves the manifest and has its image files wiped, but its cell lives
// on; refilled, it must not take the wiped images of the shards that
// were empty all along — and so never moved — for current.
//
// TestDropNamespaceSyncRestoresOnCheckpointFailure: a DROPNS whose
// erasure checkpoint fails must leave the tenant fully present — never
// "gone from the live store, durable on disk" — and a retry against a
// healed disk must complete the erasure.
//
// TestDropNamespaceSyncCompletesDeferredDrop: a tenant already dropped
// from the live store but still listed by the committed manifest (a
// deferred or failed earlier drop) is still durably present, so a
// DropNamespaceSync must commit the erasure rather than report the
// tenant unknown.

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/durable"
	"repro/internal/expiry"
	"repro/internal/foretest"
)

func dropKey(i int64) int64 { return 0x5D0B_BEEF_0000_0000 + i*0x0103 }
func dropVal(i int64) int64 { return -0x4ACE_D00D_0000_0000 + i*0x0119 }

// droppedOnlyNeedles is the encoding catalog for the dropped
// incarnation's contents alone — not the tenant's name or seeds, which
// legitimately persist while a recreated incarnation lives on.
func droppedOnlyNeedles(n int64) []foretest.Needle {
	var needles []foretest.Needle
	for i := int64(0); i < n; i++ {
		needles = append(needles, foretest.Int64NeedlesText(fmt.Sprintf("dropKey(%d)", i), dropKey(i))...)
		needles = append(needles, foretest.Int64NeedlesText(fmt.Sprintf("dropVal(%d)", i), dropVal(i))...)
	}
	return needles
}

func TestDropNSRecreateBeforeCheckpointNoResurrection(t *testing.T) {
	const (
		tenant = "phoenix-corp"
		nDrop  = 32
	)
	fs := durable.NewMemFS()
	db, err := durable.Open("db", &durable.Options{
		Shards: 8, Seed: 42, FS: fs, NoBackground: true, Clock: expiry.NewManual(100),
	})
	if err != nil {
		t.Fatal(err)
	}

	// First incarnation: enough keys to touch every shard, committed.
	for i := int64(0); i < nDrop; i++ {
		if _, err := db.NSPut(tenant, dropKey(i), dropVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Drop with the checkpoint deferred (the DropNamespace contract
	// allows it), then recreate the tenant with a single key before any
	// checkpoint runs. Most of the recreated cell's shards are untouched
	// — version 0 — exactly the state that used to alias the dropped
	// incarnation's manifest entry.
	if !db.DropNamespace(tenant) {
		t.Fatal("drop reported the tenant absent")
	}
	const phoenixKey, phoenixVal = int64(7), int64(7777)
	if _, err := db.NSPut(tenant, phoenixKey, phoenixVal); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The committed directory must be the canonical image of the
	// recreated contents — one key, nothing inherited.
	if err := db.VerifyCanonical(); err != nil {
		t.Fatalf("post-recreate checkpoint is not canonical: %v", err)
	}
	if n := db.NSLen(tenant); n != 1 {
		t.Fatalf("recreated tenant holds %d keys, want 1", n)
	}
	for i := int64(0); i < nDrop; i++ {
		if _, ok := db.NSGet(tenant, dropKey(i)); ok {
			t.Fatalf("dropped key %d resurrected in the live store", i)
		}
	}
	foretest.AssertDirClean(t, fs, "db", droppedOnlyNeedles(nDrop))

	// Recovery sees the same: only the recreated incarnation.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := durable.Open("db", &durable.Options{
		Seed: 42, FS: fs, NoBackground: true, Clock: expiry.NewManual(100),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Abandon()
	if n := db2.NSLen(tenant); n != 1 {
		t.Fatalf("recovered tenant holds %d keys, want 1", n)
	}
	if v, ok := db2.NSGet(tenant, phoenixKey); !ok || v != phoenixVal {
		t.Fatalf("recovered tenant[%d] = (%d,%v), want (%d,true)", phoenixKey, v, ok, phoenixVal)
	}
	for i := int64(0); i < nDrop; i++ {
		if _, ok := db2.NSGet(tenant, dropKey(i)); ok {
			t.Fatalf("dropped key %d resurrected through recovery", i)
		}
	}

	// History independence, stated as bytes: a database that only ever
	// saw the recreated contents commits the identical directory.
	fsClean := durable.NewMemFS()
	dbClean, err := durable.Open("db", &durable.Options{
		Shards: 8, Seed: 42, FS: fsClean, NoBackground: true, Clock: expiry.NewManual(100),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dbClean.Abandon()
	if _, err := dbClean.NSPut(tenant, phoenixKey, phoenixVal); err != nil {
		t.Fatal(err)
	}
	if err := dbClean.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	blobDirty := foretest.DirBytes(t, fs, "db")
	blobClean := foretest.DirBytes(t, fsClean, "db")
	if !bytes.Equal(blobDirty, blobClean) {
		t.Fatalf("drop+recreate directory differs from never-dropped (%d vs %d bytes): the dropped incarnation leaked into committed state",
			len(blobDirty), len(blobClean))
	}
}

func TestEmptiedTenantRefilledRendersInFull(t *testing.T) {
	const tenant = "ebb-and-flow"
	opts := func(fs *durable.MemFS) *durable.Options {
		return &durable.Options{Shards: 8, Seed: 42, FS: fs, NoBackground: true}
	}
	fs := durable.NewMemFS()
	db, err := durable.Open("db", opts(fs))
	if err != nil {
		t.Fatal(err)
	}
	// One key, committed: one shard holds it, seven are empty — and their
	// empty images are files too. Deleted, committed: the tenant is out of
	// the manifest and all eight files are gone, while the seven empty
	// shards' versions still equal the ones their images had.
	if _, err := db.NSPut(tenant, dropKey(0), dropVal(0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.NSDelete(tenant, dropKey(0))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if manifestNames(t, db, tenant) {
		t.Fatal("the emptied tenant is still in the manifest")
	}

	// One key back: one shard moves, seven have not been touched since.
	if _, err := db.NSPut(tenant, 7, 7777); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyCanonical(); err != nil {
		t.Fatalf("the refilled tenant's checkpoint is not canonical: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := durable.Open("db", opts(fs))
	if err != nil {
		t.Fatalf("reopening after the refill: %v", err)
	}
	defer re.Abandon()
	if v, ok := re.NSGet(tenant, 7); !ok || v != 7777 || re.NSLen(tenant) != 1 {
		t.Fatalf("recovered tenant[7] = (%d,%v) of %d keys, want (7777,true) of 1", v, ok, re.NSLen(tenant))
	}

	// And the bytes are those of a tenant that only ever held the one key.
	fsClean := durable.NewMemFS()
	clean, err := durable.Open("db", opts(fsClean))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Abandon()
	if _, err := clean.NSPut(tenant, 7, 7777); err != nil {
		t.Fatal(err)
	}
	if err := clean.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(foretest.DirBytes(t, fs, "db"), foretest.DirBytes(t, fsClean, "db")) {
		t.Fatal("emptied-then-refilled directory differs from one that only saw the refill")
	}
}

func TestDropNamespaceSyncRestoresOnCheckpointFailure(t *testing.T) {
	const tenant = "doomed-inc"
	fs := durable.NewMemFS()
	db, err := durable.Open("db", &durable.Options{
		Shards: 4, Seed: 42, FS: fs, NoBackground: true, Clock: expiry.NewManual(100),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Abandon()
	rootHseed := db.Store().RoutingSeed()

	for i := int64(0); i < nVictim; i++ {
		if _, err := db.NSPut(tenant, victimKey(i), victimVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.NSPut("keeper", 1, 11); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The disk dies; the erasure checkpoint must fail and the drop must
	// come undone: the tenant stays fully present, live and durable.
	fs.FailAfter(1)
	changed, err := db.DropNamespaceSync(tenant, 0, 0)
	if err == nil {
		t.Fatal("DropNamespaceSync succeeded on a dead disk")
	}
	if changed {
		t.Fatal("DropNamespaceSync reported the drop done despite the failed checkpoint")
	}
	if n := db.NSLen(tenant); n != nVictim {
		t.Fatalf("tenant holds %d keys after the failed drop, want %d (cell not restored)", n, nVictim)
	}
	if v, ok := db.NSGet(tenant, victimKey(0)); !ok || v != victimVal(0) {
		t.Fatalf("tenant read after failed drop = (%d,%v)", v, ok)
	}
	listed := false
	for _, ns := range db.Namespaces() {
		if ns.Name == tenant {
			listed = true
		}
	}
	if !listed {
		t.Fatal("tenant missing from listings after the failed drop")
	}

	// Disk recovers; the retry completes the erasure durably and
	// forensically.
	fs.Heal()
	if changed, err = db.DropNamespaceSync(tenant, 0, 0); err != nil || !changed {
		t.Fatalf("retried DropNamespaceSync = (%v, %v), want (true, nil)", changed, err)
	}
	if n := db.NSLen(tenant); n != 0 {
		t.Fatalf("tenant holds %d keys after the drop", n)
	}
	if manifestNames(t, db, tenant) {
		t.Fatal("manifest still lists the tenant after the drop")
	}
	if err := db.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
	if v, ok := db.NSGet("keeper", 1); !ok || v != 11 {
		t.Fatalf("keeper[1] = (%d,%v) after the drop", v, ok)
	}
	foretest.AssertDirClean(t, fs, "db", victimNeedles(tenant, rootHseed))

	// A further retry is a clean no-op: nothing live, nothing committed.
	if changed, err = db.DropNamespaceSync(tenant, 0, 0); err != nil || changed {
		t.Fatalf("drop of an erased tenant = (%v, %v), want (false, nil)", changed, err)
	}
}

func TestDropNamespaceSyncCompletesDeferredDrop(t *testing.T) {
	const tenant = "lingering-llc"
	fs := durable.NewMemFS()
	db, err := durable.Open("db", &durable.Options{
		Shards: 4, Seed: 42, FS: fs, NoBackground: true, Clock: expiry.NewManual(100),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Abandon()
	rootHseed := db.Store().RoutingSeed()

	for i := int64(0); i < nVictim; i++ {
		if _, err := db.NSPut(tenant, victimKey(i), victimVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Deferred drop: live store forgets the tenant, the committed
	// manifest still lists it. DropNamespaceSync must treat that as
	// "durably present" and commit the erasure, not answer "unknown".
	if !db.DropNamespace(tenant) {
		t.Fatal("drop reported the tenant absent")
	}
	changed, err := db.DropNamespaceSync(tenant, 0, 0)
	if err != nil || !changed {
		t.Fatalf("DropNamespaceSync on a deferred drop = (%v, %v), want (true, nil)", changed, err)
	}
	if manifestNames(t, db, tenant) {
		t.Fatal("manifest still lists the tenant")
	}
	foretest.AssertDirClean(t, fs, "db", victimNeedles(tenant, rootHseed))

	// Now truly gone on every surface.
	if changed, err = db.DropNamespaceSync(tenant, 0, 0); err != nil || changed {
		t.Fatalf("drop of an erased tenant = (%v, %v), want (false, nil)", changed, err)
	}
}

// manifestNames reports whether the committed manifest — fetched the
// way a replica fetches it — carries the tenant's name.
func manifestNames(t *testing.T, db *durable.DB, tenant string) bool {
	t.Helper()
	_, stamp := db.CheckpointStamp()
	r, err := db.OpenBlob(stamp)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	man, err := io.ReadAll(io.NewSectionReader(r, 0, r.Size()))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Contains(man, []byte(tenant))
}
