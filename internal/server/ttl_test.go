package server

// TTL through the wire: PUTTTL/GETTTL round trips, lazy filtering at
// the protocol surface, the epoch-triggered sweeper composing with
// pipelined writes, and the expiry stats.

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/client"
	"repro/internal/durable"
	"repro/internal/expiry"
	"repro/internal/proto"
)

func openTTLDB(t *testing.T, clk expiry.Clock) *durable.DB {
	t.Helper()
	return openTestDB(t, &durable.Options{Shards: 4, Seed: 11, Clock: clk})
}

func TestTTLOverTheWire(t *testing.T) {
	clk := expiry.NewManual(100)
	db := openTTLDB(t, clk)
	defer db.Close()
	srv, addr := startTCP(t, db, Config{SweepInterval: -1}) // no sweeper: test pure laziness
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if ins, err := c.PutTTL(1, 10, 150); err != nil || !ins {
		t.Fatalf("put-ttl: %v %v", ins, err)
	}
	if ins, err := c.PutTTL(2, 20, 0); err != nil || !ins {
		t.Fatalf("put-ttl no expiry: %v %v", ins, err)
	}
	if v, exp, ok, err := c.GetTTL(1); err != nil || !ok || v != 10 || exp != 150 {
		t.Fatalf("get-ttl: %d %d %v %v", v, exp, ok, err)
	}
	if v, exp, ok, err := c.GetTTL(2); err != nil || !ok || v != 20 || exp != 0 {
		t.Fatalf("get-ttl exp0: %d %d %v %v", v, exp, ok, err)
	}
	// Plain GET sees TTL'd entries while live.
	if v, ok, err := c.Get(1); err != nil || !ok || v != 10 {
		t.Fatalf("get of ttl entry: %d %v %v", v, ok, err)
	}

	clk.Set(150) // key 1 dies
	if _, _, ok, err := c.GetTTL(1); err != nil || ok {
		t.Fatalf("expired entry visible over the wire: %v %v", ok, err)
	}
	if _, ok, err := c.Get(1); err != nil || ok {
		t.Fatalf("expired entry visible to GET: %v %v", ok, err)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Fatalf("len = %d (%v), want 1", n, err)
	}
	if items, _, err := c.Range(0, 100, 0); err != nil || len(items) != 1 || items[0].Key != 2 {
		t.Fatalf("range over expired = %v (%v)", items, err)
	}
	// Writing over the expired key is a fresh insert; a plain PUT clears
	// the expiry.
	if ins, err := c.PutTTL(1, 11, 400); err != nil || !ins {
		t.Fatalf("resurrect: %v %v", ins, err)
	}
	if ins, err := c.Put(1, 12); err != nil || ins {
		t.Fatalf("overwrite: %v %v", ins, err)
	}
	if v, exp, ok, err := c.GetTTL(1); err != nil || !ok || v != 12 || exp != 0 {
		t.Fatalf("after plain put: %d %d %v %v", v, exp, ok, err)
	}

	// A malformed expiry is refused without killing the connection.
	raw := proto.AppendKeyVal(nil, 1, 2) // 16 bytes, not 24
	if _, err := rawCall(t, addr, proto.OpPutTTL, raw); err == nil {
		t.Fatal("short put-ttl accepted")
	}
	if err := c.Ping(nil); err != nil {
		t.Fatalf("connection unusable after bad frame test: %v", err)
	}
}

// rawCall sends one frame and returns an error if the reply is OpError.
func rawCall(t *testing.T, addr string, op byte, payload []byte) (proto.Frame, error) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := writeFrame(nc, proto.Frame{Ver: proto.Version, Op: op, ID: 7, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op == proto.OpError {
		code, msg, _ := proto.DecodeError(f.Payload)
		return f, &proto.RemoteError{Code: code, Msg: msg}
	}
	return f, nil
}

func TestTTLSweeperEpochTriggered(t *testing.T) {
	clk := expiry.NewManual(10)
	db := openTTLDB(t, clk)
	defer db.Close()
	srv, addr := startTCP(t, db, Config{SweepInterval: 2 * time.Millisecond})
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200
	for k := int64(0); k < n; k++ {
		exp := int64(20) // dies at epoch 20
		if k%2 == 1 {
			exp = 1000 // far future
		}
		if _, err := c.PutTTL(k, k*3, exp); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing is due at epoch 10 however often the sweeper polls.
	time.Sleep(20 * time.Millisecond)
	if phys := physicalKeys(db); phys != n {
		t.Fatalf("sweeper removed entries before their epoch: %d physical, want %d", phys, n)
	}

	clk.Set(20)
	deadline := time.Now().Add(5 * time.Second)
	for physicalKeys(db) != n/2 {
		if time.Now().After(deadline) {
			t.Fatalf("sweeper did not remove the dead half: %d physical", physicalKeys(db))
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The survivors are exactly the far-future half.
	for k := int64(0); k < n; k++ {
		v, exp, ok, err := c.GetTTL(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := k%2 == 1; ok != want || (ok && (v != k*3 || exp != 1000)) {
			t.Fatalf("key %d after sweep: (%d,%d,%v), want live=%v", k, v, exp, ok, want)
		}
	}
	// A resurrected key must survive sweeps planned before its rebirth.
	if _, err := c.PutTTL(0, 5, 2000); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if v, exp, ok, err := c.GetTTL(0); err != nil || !ok || v != 5 || exp != 2000 {
		t.Fatalf("resurrected key: (%d,%d,%v,%v)", v, exp, ok, err)
	}

	st := srv.Stats()
	if st.Epoch != 20 {
		t.Fatalf("stats epoch = %d, want 20", st.Epoch)
	}
	if st.SweptKeys != n/2 {
		t.Fatalf("stats swept_keys = %d, want %d", st.SweptKeys, n/2)
	}
	if st.Sweeps == 0 {
		t.Fatal("stats sweeps = 0 after a sweep removed entries")
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("stats uptime_seconds = %v", st.UptimeSeconds)
	}
}

// TestTTLSweeperVisitsTenants: the sweeper must remove a tenant's dead
// entries exactly as it removes the default keyspace's. With no
// background checkpointer nothing else would — a sweeper that lists the
// default keyspace only leaves a tenant's expired bytes physically
// resident until somebody happens to checkpoint.
func TestTTLSweeperVisitsTenants(t *testing.T) {
	clk := expiry.NewManual(10)
	db := openTTLDB(t, clk) // NoBackground
	defer db.Abandon()
	srv, addr := startTCP(t, db, Config{SweepInterval: -1}) // sweep only when told to
	defer srv.Close()
	c := dialNS(t, addr)

	const n = 64
	for k := int64(0); k < n; k++ {
		if _, err := c.NSPutTTL("acme", k, k*3, 20); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.PutTTL(1, 1, 20); err != nil {
		t.Fatal(err)
	}
	if tenant, root := db.NSLen("acme"), physicalKeys(db); tenant != n || root != 1 {
		t.Fatalf("before the sweep: %d tenant and %d default entries resident, want %d and 1", tenant, root, n)
	}
	cps := db.Checkpoints()

	clk.Set(20)
	srv.sweepOnceNow() // one sweep, every keyspace
	if got := db.SweptKeys(); got != n+1 {
		t.Fatalf("one sweep removed %d entries, want %d (the tenant's %d and the default keyspace's 1)", got, n+1, n)
	}
	if left := db.SweepExpired(20); left != 0 {
		t.Fatalf("after the sweep: %d dead entries still physically resident", left)
	}
	if got := db.Checkpoints(); got != cps {
		t.Fatalf("a checkpoint ran (%d -> %d): the test must see the sweeper's removals alone", cps, got)
	}
	if st := srv.Stats(); st.Sweeps != 1 {
		t.Fatalf("stats sweeps = %d, want 1", st.Sweeps)
	}
}

// physicalKeys counts entries actually present in the store, expired or
// not.
func physicalKeys(db *durable.DB) int {
	n := 0
	s := db.Store()
	for i := 0; i < s.NumShards(); i++ {
		n += s.ShardLen(i)
	}
	return n
}

func TestTTLReadOnlyReplicaRefusesPutTTL(t *testing.T) {
	clk := expiry.NewManual(10)
	db := openTestDB(t, &durable.Options{Shards: 4, Seed: 11, Clock: clk, NoSweep: true})
	defer db.Close()
	srv, addr := startTCP(t, db, Config{})
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.PutTTL(1, 2, 100); !errorsIsReadOnly(err) {
		t.Fatalf("replica accepted PUTTTL: %v", err)
	}
	// GETTTL keeps working.
	if _, _, ok, err := c.GetTTL(1); err != nil || ok {
		t.Fatalf("replica get-ttl: %v %v", ok, err)
	}
	// The sweeper goroutine runs even on a replica (so a promotion can
	// arm it without restarting the server), but while the node is
	// read-only it must stay inert: sweeping a replica would fork its
	// state from the primary's checkpoints. Exercise a tick directly —
	// it must not consume the due epochs or sweep anything.
	srv.sweepOnceNow()
	if got := srv.st.sweeps.Load(); got != 0 {
		t.Fatalf("read-only sweeper ran %d sweeps", got)
	}
}

func errorsIsReadOnly(err error) bool {
	return err != nil && errors.Is(err, client.ErrReadOnly)
}
