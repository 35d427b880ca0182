package server

// Wire-level tests for the namespace opcodes: tenant round-trips,
// keyspace disjointness, canonical LISTNS order, exact quota
// enforcement on the coalescer, the DROPNS durability barrier, and
// tenant images on the replication path.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"testing"
	"time"

	"repro/client"
	"repro/internal/durable"
	"repro/internal/proto"
)

func dialNS(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestNamespaceWireRoundTrip(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Abandon()
	srv, addr := startTCP(t, db, Config{SweepInterval: -1})
	defer srv.Close()
	c := dialNS(t, addr)

	// Tenants are created on first write and fully disjoint: the same
	// key holds different values per tenant and in the default keyspace.
	if ins, err := c.Put(7, 700); err != nil || !ins {
		t.Fatalf("default put: %v %v", ins, err)
	}
	if ins, err := c.NSPut("acme", 7, 701); err != nil || !ins {
		t.Fatalf("ns put: %v %v", ins, err)
	}
	if ins, err := c.NSPut("zeta", 7, 702); err != nil || !ins {
		t.Fatalf("ns put: %v %v", ins, err)
	}
	for _, tc := range []struct {
		ns   string
		want int64
	}{{"acme", 701}, {"zeta", 702}} {
		if v, ok, err := c.NSGet(tc.ns, 7); err != nil || !ok || v != tc.want {
			t.Fatalf("NSGet(%q, 7) = %d %v %v, want %d", tc.ns, v, ok, err, tc.want)
		}
	}
	if v, ok, err := c.Get(7); err != nil || !ok || v != 700 {
		t.Fatalf("default Get(7) = %d %v %v, want 700", v, ok, err)
	}

	// An absent tenant reads exactly like an absent key.
	if _, ok, err := c.NSGet("ghost", 7); err != nil || ok {
		t.Fatalf("absent tenant read: ok=%v err=%v", ok, err)
	}

	// TTL round-trip: the expiry is echoed and visible via NSGetTTL.
	// (Absolute epoch, so it must be in the future under the real clock.)
	future := time.Now().Unix() + 3600
	if _, err := c.NSPutTTL("acme", 8, 800, future); err != nil {
		t.Fatalf("ns put-ttl: %v", err)
	}
	if _, exp, ok, err := c.NSGetTTL("acme", 8); err != nil || !ok || exp != future {
		t.Fatalf("ns get-ttl: exp=%d ok=%v err=%v, want exp=%d", exp, ok, err, future)
	}

	// Delete reports presence; the tenant's other keys survive.
	if del, err := c.NSDelete("acme", 8); err != nil || !del {
		t.Fatalf("ns delete: %v %v", del, err)
	}
	if del, err := c.NSDelete("acme", 8); err != nil || del {
		t.Fatalf("ns re-delete: %v %v", del, err)
	}
	if _, ok, _ := c.NSGet("acme", 7); !ok {
		t.Fatal("tenant lost an unrelated key to a delete")
	}
}

func TestNamespaceWireListCanonicalOrder(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Abandon()
	srv, addr := startTCP(t, db, Config{SweepInterval: -1})
	defer srv.Close()
	c := dialNS(t, addr)

	// Create in anti-sorted order; the listing must come back sorted —
	// creation order must not be observable.
	for i, ns := range []string{"zeta", "mid", "alpha"} {
		if _, err := c.NSPut(ns, int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A created-then-emptied tenant must not be listed.
	if _, err := c.NSPut("ghost", 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NSDelete("ghost", 1); err != nil {
		t.Fatal(err)
	}
	quota, tenants, err := c.ListNS()
	if err != nil {
		t.Fatal(err)
	}
	if quota != 0 {
		t.Fatalf("quota = %d, want 0 (unlimited)", quota)
	}
	want := []string{"alpha", "mid", "zeta"}
	if len(tenants) != len(want) {
		t.Fatalf("listed %d tenants, want %d: %+v", len(tenants), len(want), tenants)
	}
	for i, w := range want {
		if tenants[i].Name != w || tenants[i].Keys != 1 {
			t.Fatalf("tenants[%d] = %+v, want {%s 1}", i, tenants[i], w)
		}
	}
}

func TestNamespaceWireQuota(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Abandon()
	srv, addr := startTCP(t, db, Config{SweepInterval: -1, NSQuota: 3})
	defer srv.Close()
	c := dialNS(t, addr)

	for k := int64(0); k < 3; k++ {
		if ins, err := c.NSPut("acme", k, k); err != nil || !ins {
			t.Fatalf("put %d under quota: %v %v", k, ins, err)
		}
	}
	// A fourth new key is refused, typed.
	if _, err := c.NSPut("acme", 3, 3); !errors.Is(err, client.ErrQuota) {
		t.Fatalf("over-quota insert: %v, want ErrQuota", err)
	}
	// Upserts of existing keys always pass; other tenants are unaffected.
	if ins, err := c.NSPut("acme", 0, 999); err != nil || ins {
		t.Fatalf("at-quota upsert: %v %v", ins, err)
	}
	if _, err := c.NSPut("other", 1, 1); err != nil {
		t.Fatalf("unrelated tenant hit acme's quota: %v", err)
	}
	// Deleting a key frees a slot.
	if _, err := c.NSDelete("acme", 1); err != nil {
		t.Fatal(err)
	}
	if ins, err := c.NSPut("acme", 3, 3); err != nil || !ins {
		t.Fatalf("insert after freeing a slot: %v %v", ins, err)
	}
	// The refusal is visible in the aggregate stats, and the connection
	// survived it.
	if st := srv.Stats(); st.NSQuotaRejected != 1 {
		t.Fatalf("NSQuotaRejected = %d, want 1", st.NSQuotaRejected)
	}
	if err := c.Ping(nil); err != nil {
		t.Fatalf("connection dead after quota refusal: %v", err)
	}
	quota, _, err := c.ListNS()
	if err != nil || quota != 3 {
		t.Fatalf("advertised quota = %d %v, want 3", quota, err)
	}
}

func TestNamespaceWireDropBarrier(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Abandon()
	srv, addr := startTCP(t, db, Config{SweepInterval: -1})
	defer srv.Close()
	c := dialNS(t, addr)

	if _, err := c.NSPut("doomed", 1, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NSPut("keeper", 2, 22); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !manifestNames(t, db, "doomed") || !manifestNames(t, db, "keeper") {
		t.Fatal("committed manifest does not name both tenants")
	}

	// DROPNS is a durability barrier: by the time the reply arrives, the
	// committed manifest must already omit the tenant — no second
	// checkpoint needed.
	existed, err := c.DropNS("doomed")
	if err != nil || !existed {
		t.Fatalf("drop: %v %v", existed, err)
	}
	if manifestNames(t, db, "doomed") || !manifestNames(t, db, "keeper") {
		t.Fatal("committed manifest after the drop does not name exactly [keeper]")
	}
	if _, ok, _ := c.NSGet("doomed", 1); ok {
		t.Fatal("dropped tenant still readable")
	}
	if v, ok, _ := c.NSGet("keeper", 2); !ok || v != 22 {
		t.Fatal("surviving tenant damaged by the drop")
	}
	// Dropping an absent tenant reports false and commits nothing.
	cps := db.Checkpoints()
	if existed, err := c.DropNS("doomed"); err != nil || existed {
		t.Fatalf("re-drop: %v %v", existed, err)
	}
	if db.Checkpoints() != cps {
		t.Fatal("dropping an absent tenant committed a checkpoint")
	}
	if st := srv.Stats(); st.NSDrops != 2 {
		t.Fatalf("NSDrops = %d, want 2", st.NSDrops)
	}
}

func TestNamespaceWireDropCheckpointFailureRetry(t *testing.T) {
	fs := durable.NewMemFS()
	db, err := durable.Open("db", &durable.Options{
		Shards: 4, Seed: 42, NoBackground: true, FS: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Abandon()
	srv, addr := startTCP(t, db, Config{SweepInterval: -1})
	defer srv.Close()
	c := dialNS(t, addr)

	if _, err := c.NSPut("doomed", 1, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NSPut("keeper", 2, 22); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The disk dies under the erasure checkpoint. The client must get an
	// error — not a positive drop — and the tenant must remain fully
	// present: readable, listed, and still committed. A reply that said
	// "gone" here would leave the tenant durable on disk behind the
	// client's back.
	fs.FailAfter(1)
	if existed, err := c.DropNS("doomed"); err == nil {
		t.Fatalf("DROPNS on a dead disk replied (%v, nil), want an error", existed)
	}
	if v, ok, err := c.NSGet("doomed", 1); err != nil || !ok || v != 11 {
		t.Fatalf("tenant read after failed drop = (%d,%v,%v), want (11,true,nil)", v, ok, err)
	}
	if _, tenants, err := c.ListNS(); err != nil || len(tenants) != 2 {
		t.Fatalf("listing after failed drop = %v %v, want [doomed keeper]", tenants, err)
	}
	if !manifestNames(t, db, "doomed") || !manifestNames(t, db, "keeper") {
		t.Fatal("committed manifest after the failed drop does not name both tenants")
	}

	// The disk recovers; the retried DROPNS completes the erasure and
	// the barrier holds: by reply time the manifest omits the tenant.
	fs.Heal()
	if existed, err := c.DropNS("doomed"); err != nil || !existed {
		t.Fatalf("retried drop = (%v, %v), want (true, nil)", existed, err)
	}
	if manifestNames(t, db, "doomed") || !manifestNames(t, db, "keeper") {
		t.Fatal("committed manifest after the retried drop does not name exactly [keeper]")
	}
	if _, ok, _ := c.NSGet("doomed", 1); ok {
		t.Fatal("dropped tenant still readable after the retry")
	}
	if v, ok, _ := c.NSGet("keeper", 2); !ok || v != 22 {
		t.Fatal("surviving tenant damaged by the retried drop")
	}
	if err := db.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
}

// manifestNames reports whether db's committed manifest — the blob its
// checkpoint stamp names — carries the tenant's name.
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

// TestNamespaceWireReplicationAddressing: a tenant's images are
// addressed like every other blob — by hash alone, no tenant name in
// any SYNC request — and the manifest fetched over the wire is the only
// place the tenant's name crosses it.
func TestNamespaceWireReplicationAddressing(t *testing.T) {
	db, fs := newSyncDB(t)
	defer db.Abandon()
	srv, addr := startTCP(t, db, Config{SweepInterval: -1})
	defer srv.Close()
	c := dialNS(t, addr)

	for k := int64(0); k < 32; k++ {
		if _, err := c.NSPut("acme", k, k*3); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Put(k, -k); err != nil { // empty shards would share one image hash
			t.Fatal(err)
		}
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	man, _ := fetchBlob(t, c, h.Hash, 0)
	if sha256.Sum256(man) != h.Hash || !bytes.Contains(man, []byte("acme")) {
		t.Fatal("the manifest HEALTH names does not verify or does not list the tenant")
	}
	// Root and tenant images alike fetch by hash and verify.
	_, images := committedFiles(t, fs)
	if len(images) != 8 {
		t.Fatalf("%d image files, want 4 for the root and 4 for the tenant", len(images))
	}
	for hash, want := range images {
		if img, _ := fetchBlob(t, c, hash, 0); !bytes.Equal(img, want) {
			t.Fatalf("image %x does not match the committed file", hash[:4])
		}
	}
	// Once the tenant is dropped its images are no blob of the checkpoint.
	if _, err := c.DropNS("acme"); err != nil {
		t.Fatal(err)
	}
	_, kept := committedFiles(t, fs)
	for hash := range images {
		if _, still := kept[hash]; still {
			continue
		}
		if _, _, err := c.SyncChunk(nil, hash, 0, 0); !isStale(err) {
			t.Fatalf("dropped tenant's image %x: %v, want ErrCodeStale", hash[:4], err)
		}
	}
	if len(kept) != 4 {
		t.Fatalf("%d image files after the drop, want the root's 4", len(kept))
	}
}

// TestNamespaceWireReadOnlyRefusal walks the opcode table on a replica:
// every row that mutates — and each mutating BATCH kind — is refused
// with ErrCodeReadOnly before its payload is looked at (the refused
// requests here carry none), and every other row is served.
func TestNamespaceWireReadOnlyRefusal(t *testing.T) {
	db := newReplicaDB(t, 4)
	defer db.Abandon()
	_, stamp := db.CheckpointStamp()
	// A well-formed request for each row a replica serves.
	valid := map[byte][]byte{
		proto.OpGet:     proto.AppendKey(nil, 1),
		proto.OpGetTTL:  proto.AppendKey(nil, 1),
		proto.OpNSGet:   proto.AppendNSKey(nil, "acme", 1),
		proto.OpRange:   proto.AppendRangeReq(nil, 0, 10, 0),
		proto.OpLen:     {},
		proto.OpPing:    []byte("still here"),
		proto.OpHealth:  {},
		proto.OpPromote: {},
		proto.OpListNS:  {},
		proto.OpSync:    proto.AppendSyncReq(nil, stamp, 0, 0),
	}
	type request struct {
		name    string
		op      byte
		payload []byte
		refused bool
	}
	cases := []request{
		{"batch put", proto.OpBatch, proto.AppendBatchPut(nil, []proto.Item{{Key: 1, Val: 1}}), true},
		{"batch del", proto.OpBatch, proto.AppendBatchKeys(nil, proto.BatchDel, []int64{1}), true},
		{"batch get", proto.OpBatch, proto.AppendBatchKeys(nil, proto.BatchGet, []int64{1}), false},
	}
	for op, spec := range opTable {
		if spec == nil || byte(op) == proto.OpBatch {
			continue
		}
		payload, ok := valid[byte(op)]
		if !ok && !spec.mutates {
			t.Fatalf("%s: the test has no well-formed request for this row", spec.label)
		}
		cases = append(cases, request{spec.label, byte(op), payload, spec.mutates})
	}
	for _, tc := range cases {
		srv, addr := startTCP(t, db, Config{SweepInterval: -1})
		f, err := rawCall(t, addr, tc.op, tc.payload)
		srv.Close()
		if !db.Replica() {
			// PROMOTE, served, ended the role: back to it for the next row.
			if tc.op != proto.OpPromote {
				t.Errorf("%s left the node a primary", tc.name)
			}
			if err := db.Demote(); err != nil {
				t.Fatal(err)
			}
		}
		var re *proto.RemoteError
		switch {
		case tc.refused && (!errors.As(err, &re) || re.Code != proto.ErrCodeReadOnly):
			t.Errorf("%s on a replica: %v, want ErrCodeReadOnly", tc.name, err)
		case !tc.refused && (err != nil || f.Op != tc.op|proto.FlagReply):
			t.Errorf("%s on a replica: reply %s, err %v; want it served", tc.name, proto.OpName(f.Op), err)
		}
	}
}
