package durable_test

// The tentpole proofs for multi-tenant erasure, stated at the durable
// layer where the bytes live. External package: the foretest harness
// imports durable, so these tests sit outside to keep the import DAG
// acyclic — which also keeps them honest, driving only the exported
// API a real embedder sees.
//
// TestDropNSForensicErasure: after DROPNS + checkpoint, no encoding of
// the dropped tenant — name, derived seed, routing seed, keys, values
// — survives anywhere in the committed directory or its debris.
//
// TestNamespaceHistoryIndependence: two wildly different multi-tenant
// operation histories with the same live per-tenant contents commit
// byte-identical directories; in particular a dropped tenant is
// indistinguishable from one that never existed.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/durable"
	"repro/internal/expiry"
	"repro/internal/foretest"
	"repro/internal/namespace"
	"repro/internal/shard"
)

// Distinctive high-entropy constants for the doomed tenant's contents:
// patterns that cannot collide with structural integers (lengths,
// offsets, epochs) in any committed file.
const nVictim = 24

func victimKey(i int64) int64 { return 0x7E4A_5EED_0000_0000 + i*0x01_0101 }
func victimVal(i int64) int64 { return -0x6B1D_FACE_0000_0000 + i*0x0107 }

// victimNeedles is the full encoding catalog for tenant ns on a DB
// whose root routing seed is rootHseed: the tenant's name, its derived
// seed and routing seed (binary, decimal, and the hex form used by
// seed-addressed file names), and every planted key and value.
func victimNeedles(ns string, rootHseed uint64) []foretest.Needle {
	derived := namespace.DeriveSeed(rootHseed, ns)
	routing := shard.MixSeed(derived)
	needles := []foretest.Needle{foretest.StringNeedle("tenant name", ns)}
	needles = append(needles, foretest.Uint64Needles("derived seed", derived)...)
	needles = append(needles, foretest.Uint64Needles("routing seed", routing)...)
	needles = append(needles,
		foretest.Needle{Label: "derived seed(hex)", Bytes: []byte(fmt.Sprintf("%016x", derived))},
		foretest.Needle{Label: "routing seed(hex)", Bytes: []byte(fmt.Sprintf("%016x", routing))},
	)
	for i := int64(0); i < nVictim; i++ {
		needles = append(needles, foretest.Int64NeedlesText(fmt.Sprintf("victimKey(%d)", i), victimKey(i))...)
		needles = append(needles, foretest.Int64NeedlesText(fmt.Sprintf("victimVal(%d)", i), victimVal(i))...)
	}
	return needles
}

func TestDropNSForensicErasure(t *testing.T) {
	const victim = "victim-corp-zq"
	clk := expiry.NewManual(100)
	fs := durable.NewMemFS()
	db, err := durable.Open("db", &durable.Options{
		Shards: 4, Seed: 42, FS: fs, NoBackground: true, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	rootHseed := db.Store().RoutingSeed()

	// The victim tenant lives a realistic life: plain entries, sessions
	// with TTLs, overwrites, deletes — interleaved with bystander
	// tenants and the default keyspace, with checkpoints committing the
	// intermediate states (each one puts the victim's bytes on disk).
	for i := int64(0); i < nVictim; i++ {
		exp := int64(0)
		if i%3 == 0 {
			exp = 150 // dies mid-history, swept before the drop
		}
		if _, err := db.NSPutTTL(victim, victimKey(i), victimVal(i), exp); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < 50; k++ {
		if _, err := db.NSPut("keeper", k, k*7); err != nil {
			t.Fatal(err)
		}
		db.Put(k, k*11)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Sanity half: the encodings the store actually writes — the
	// tenant's name (manifest table), the routing seed's hex (the
	// seed-addressed file names), and the planted pairs' little-endian
	// images — must be present now, or the absence check below is
	// vacuous.
	derived := namespace.DeriveSeed(rootHseed, victim)
	routing := shard.MixSeed(derived)
	present := []foretest.Needle{
		foretest.StringNeedle("tenant name", victim),
		{Label: "routing seed(hex)", Bytes: []byte(fmt.Sprintf("%016x", routing))},
	}
	for i := int64(0); i < nVictim; i++ {
		present = append(present,
			foretest.Int64Needles(fmt.Sprintf("victimKey(%d)", i), victimKey(i))[0],
			foretest.Int64Needles(fmt.Sprintf("victimVal(%d)", i), victimVal(i))[0],
		)
	}
	foretest.AssertPresent(t, "committed directory before the drop",
		foretest.DirBytes(t, fs, "db"), present)
	if t.Failed() {
		t.Fatal("presence sanity failed; the erasure check below would be vacuous")
	}

	// More history: overwrites, a few deletes, the TTL'd third expiring
	// and being swept, another checkpoint. The victim's bytes churn
	// through several generations of committed images.
	for i := int64(0); i < nVictim; i += 4 {
		if _, err := db.NSPut(victim, victimKey(i), victimVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !db.NSDelete(victim, victimKey(1)) {
		t.Fatal("delete of a live victim key reported absent")
	}
	clk.Set(200)
	db.SweepExpired(200)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The erasure: one drop, one checkpoint.
	if !db.DropNamespace(victim) {
		t.Fatal("drop reported the tenant absent")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Forensic half: seize the directory and grep every file name and
	// every byte for every encoding of everything the tenant ever was.
	foretest.AssertDirClean(t, fs, "db", victimNeedles(victim, rootHseed))

	// Debris: every superseded or dropped file was zero-wiped before
	// its unlink — no removal skipped the wipe.
	wiped, unwiped := 0, 0
	for _, rm := range fs.Removals() {
		if rm.Wiped {
			wiped++
		} else {
			unwiped++
		}
	}
	if wiped == 0 {
		t.Fatal("no zero-wiped removals recorded; the dropped tenant's images left readable debris")
	}
	if unwiped > 0 {
		t.Fatalf("%d removals skipped the zero-wipe", unwiped)
	}

	// The bystanders survive, canonically.
	if err := db.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 50; k++ {
		if v, ok := db.NSGet("keeper", k); !ok || v != k*7 {
			t.Fatalf("keeper[%d] = (%d,%v) after the drop", k, v, ok)
		}
		if v, ok := db.Get(k); !ok || v != k*11 {
			t.Fatalf("default[%d] = (%d,%v) after the drop", k, v, ok)
		}
	}

	// And the erasure survives recovery: a fresh process opening the
	// seized directory knows nothing of the tenant.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := durable.Open("db", &durable.Options{
		Seed: 42, FS: fs, NoBackground: true, Clock: expiry.NewManual(200),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Abandon()
	if n := db2.NSLen(victim); n != 0 {
		t.Fatalf("recovered DB still holds %d victim keys", n)
	}
	if db2.NamespaceCount() != 1 {
		t.Fatalf("recovered DB lists %d tenants, want 1 (keeper)", db2.NamespaceCount())
	}
}

func TestNamespaceHistoryIndependence(t *testing.T) {
	const (
		seed = uint64(42)
		E    = int64(5000)
	)
	type entry struct {
		ns            string
		key, val, exp int64
	}
	// The final live state: two tenants plus the default keyspace, a
	// mix of plain and TTL'd entries (all expiring after E).
	var finals []entry
	for k := int64(0); k < 200; k++ {
		switch k % 4 {
		case 0:
			finals = append(finals, entry{"acme", k, k * 13, 0})
		case 1:
			finals = append(finals, entry{"acme", k, k * 13, E + 100 + k})
		case 2:
			finals = append(finals, entry{"zeta", k, -k * 17, 0})
			// k%4 == 3: default keyspace
		default:
			finals = append(finals, entry{"", k, k * 19, 0})
		}
	}
	load := func(t *testing.T, db *durable.DB, es []entry) {
		t.Helper()
		for _, e := range es {
			if e.ns == "" {
				db.PutTTL(e.key, e.val, e.exp)
				continue
			}
			if _, err := db.NSPutTTL(e.ns, e.key, e.val, e.exp); err != nil {
				t.Fatal(err)
			}
		}
	}

	// History A: the final state written directly at epoch E, one
	// checkpoint. No tenant has ever been dropped here.
	fsA := durable.NewMemFS()
	dbA, err := durable.Open("db", &durable.Options{
		Shards: 8, Seed: seed, FS: fsA, NoBackground: true, Clock: expiry.NewManual(E),
	})
	if err != nil {
		t.Fatal(err)
	}
	load(t, dbA, finals)
	if err := dbA.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// History B: a mess. A transient tenant is created, committed, and
	// dropped; acme is created, filled with garbage, dropped entirely,
	// and recreated; sessions expire and are swept at scattered epochs;
	// checkpoints land between every phase. Then the same live state,
	// checkpointed at the same epoch E.
	const transient = "transient-tenant-xj"
	clkB := expiry.NewManual(10)
	fsB := durable.NewMemFS()
	dbB, err := durable.Open("db", &durable.Options{
		Shards: 8, Seed: seed, FS: fsB, NoBackground: true, Clock: clkB,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 300; k++ {
		if _, err := dbB.NSPutTTL(transient, k, k*31, 20+k%30); err != nil {
			t.Fatal(err)
		}
		if _, err := dbB.NSPut("acme", k, k*37); err != nil {
			t.Fatal(err)
		}
		dbB.Put(k, -k)
	}
	if err := dbB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	clkB.Set(100)
	dbB.SweepExpired(60)
	if !dbB.DropNamespace(transient) {
		t.Fatal("transient tenant missing before its drop")
	}
	if !dbB.DropNamespace("acme") {
		t.Fatal("acme missing before its drop")
	}
	if err := dbB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	clkB.Set(E)
	for k := int64(0); k < 300; k++ { // clear the default keyspace
		dbB.Delete(k)
	}
	for k := int64(0); k < 40; k++ { // recreate acme with garbage, overwrite below
		if _, err := dbB.NSPut("acme", k+500, k); err != nil {
			t.Fatal(err)
		}
		if !dbB.NSDelete("acme", k+500) {
			t.Fatal("acme garbage delete missed")
		}
	}
	load(t, dbB, finals)
	// Extra sessions already dead at E: the checkpoint's sweep must
	// erase them from the committed state.
	for k := int64(100_000); k < 100_030; k++ {
		if _, err := dbB.NSPutTTL("zeta", k, k, E); err != nil {
			t.Fatal(err)
		}
	}
	if err := dbB.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The acceptance criterion: byte-identical directories — same file
	// names, same file bytes, nothing extra on either side.
	blobA := foretest.DirBytes(t, fsA, "db")
	blobB := foretest.DirBytes(t, fsB, "db")
	if !bytes.Equal(blobA, blobB) {
		t.Fatalf("directories differ across histories (%d vs %d bytes): operation history leaked into committed state",
			len(blobA), len(blobB))
	}

	// History C: the same final state written through NSApplyBatch —
	// the server coalescer's path, one mixed batch per keyspace with a
	// doomed extra key put and deleted inside it — instead of point ops.
	// Which write path carried a tenant's contents must not reach the
	// committed bytes either.
	fsC := durable.NewMemFS()
	dbC, err := durable.Open("db", &durable.Options{
		Shards: 8, Seed: seed, FS: fsC, NoBackground: true, Clock: expiry.NewManual(E),
	})
	if err != nil {
		t.Fatal(err)
	}
	batches := map[string][]shard.Op{}
	for _, e := range finals {
		batches[e.ns] = append(batches[e.ns], shard.Op{Key: e.key, Val: e.val, Exp: e.exp})
	}
	for ns, ops := range batches {
		ops = append([]shard.Op{{Key: 900_000, Val: 1}}, ops...)
		ops = append(ops, shard.Op{Key: 900_000, Delete: true})
		changed := make([]bool, len(ops))
		if n, err := dbC.NSApplyBatch(ns, ops, changed); err != nil || n != len(ops) {
			t.Fatalf("NSApplyBatch(%q): %d of %d ops changed presence, err %v", ns, n, len(ops), err)
		}
	}
	if err := dbC.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if blobC := foretest.DirBytes(t, fsC, "db"); !bytes.Equal(blobA, blobC) {
		t.Fatalf("directories differ between point-op and ApplyBatch writes (%d vs %d bytes): the write path leaked into committed state",
			len(blobA), len(blobC))
	}

	// The dropped-vs-never-existed corollary, stated directly: history
	// A never heard of the transient tenant, so equality already proves
	// absence — but grep B's directory anyway so a failure names the
	// leak.
	rootHseed := dbB.Store().RoutingSeed()
	derived := namespace.DeriveSeed(rootHseed, transient)
	gone := []foretest.Needle{
		foretest.StringNeedle("transient tenant name", transient),
		{Label: "transient routing seed(hex)", Bytes: []byte(fmt.Sprintf("%016x", shard.MixSeed(derived)))},
	}
	gone = append(gone, foretest.Uint64Needles("transient derived seed", derived)...)
	foretest.AssertDirClean(t, fsB, "db", gone)

	if err := dbA.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
	if err := dbB.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
	dbA.Abandon()
	dbB.Abandon()
}
