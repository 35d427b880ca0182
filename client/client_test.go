package client_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/durable"
	"repro/internal/proto"
	"repro/internal/server"
)

func startServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	db, err := durable.Open("db", &durable.Options{
		Shards: 4, Seed: 7, NoBackground: true, FS: durable.NewMemFS(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), func() {
		srv.Close()
		db.Close()
	}
}

// TestPool drives the pooled Client concurrently and checks that the
// pool spreads work across its connections.
func TestPool(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	cl, err := client.Open(addr, 3, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < 50; i++ {
				k := base*100 + i
				if _, err := cl.Put(k, k); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n, err := cl.Len(); err != nil || n != 400 {
		t.Fatalf("len = %d (%v), want 400", n, err)
	}
	vals, ok, err := cl.GetBatch([]int64{0, 101, 999999})
	if err != nil || !ok[0] || !ok[1] || ok[2] || vals[1] != 101 {
		t.Fatalf("get batch: %v %v %v", vals, ok, err)
	}
	if cps, err := cl.Checkpoint(); err != nil || cps == 0 {
		t.Fatalf("checkpoint: %d %v", cps, err)
	}
	if err := cl.Ping([]byte("x")); err != nil {
		t.Fatal(err)
	}
	// Distinct pool connections really exist: Conn() cycles.
	c1, err1 := cl.Conn()
	c2, err2 := cl.Conn()
	if err1 != nil || err2 != nil {
		t.Fatalf("conn from healthy pool: %v %v", err1, err2)
	}
	if c1 == c2 {
		t.Fatal("pool of 3 returned the same conn twice in a row")
	}
}

// TestConnClosedErrors checks that operations on a dead connection
// surface ErrConnClosed rather than hanging.
func TestConnClosedErrors(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, _, err := c.Get(1); !errors.Is(err, client.ErrConnClosed) {
		t.Fatalf("get on closed conn: %v", err)
	}
	if _, err := c.Put(2, 2); !errors.Is(err, client.ErrConnClosed) {
		t.Fatalf("put on closed conn: %v", err)
	}
}

// TestServerGoneMidFlight checks that requests in flight when the
// server dies fail with an error instead of hanging forever.
func TestServerGoneMidFlight(t *testing.T) {
	addr, stop := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	stop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, err := c.Get(1); err != nil {
			break // the dead conn surfaced
		}
		if time.Now().After(deadline) {
			t.Fatal("requests kept succeeding after server close")
		}
	}
}

// TestReadOnlyRemoteError checks the read-only error path: every
// mutating operation against a replica surfaces a typed RemoteError
// carrying ErrCodeReadOnly AND matches the ErrReadOnly sentinel, while
// the same connection keeps serving reads — the write-path twin of
// TestRemoteErrorSurface.
func TestReadOnlyRemoteError(t *testing.T) {
	db, err := durable.Open("db", &durable.Options{
		Shards: 4, Seed: 7, NoBackground: true, NoSweep: true, FS: durable.NewMemFS(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put(10, 100)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wantReadOnly := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, client.ErrReadOnly) {
			t.Fatalf("%s on replica: %v, want ErrReadOnly in the chain", what, err)
		}
		var re *proto.RemoteError
		if !errors.As(err, &re) || re.Code != proto.ErrCodeReadOnly {
			t.Fatalf("%s on replica: %v, want RemoteError{ErrCodeReadOnly}", what, err)
		}
	}
	_, err = c.Put(1, 1)
	wantReadOnly("put", err)
	_, err = c.Delete(10)
	wantReadOnly("delete", err)
	_, err = c.PutBatch([]client.Item{{Key: 2, Val: 2}})
	wantReadOnly("put batch", err)
	_, err = c.DeleteBatch([]int64{10})
	wantReadOnly("delete batch", err)
	_, err = c.Checkpoint()
	wantReadOnly("checkpoint", err)

	// The refusals must not have poisoned the connection: reads work and
	// see the replica's installed state, and the write never applied.
	if v, ok, err := c.Get(10); err != nil || !ok || v != 100 {
		t.Fatalf("get after refusals: %d %v %v", v, ok, err)
	}
	if _, ok, err := c.Get(1); err != nil || ok {
		t.Fatalf("refused put leaked into the store: %v %v", ok, err)
	}
	if vals, ok, err := c.GetBatch([]int64{10}); err != nil || !ok[0] || vals[0] != 100 {
		t.Fatalf("batch get on replica: %v %v %v", vals, ok, err)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Fatalf("len on replica: %d %v", n, err)
	}
}

// TestRemoteErrorSurface checks that a server-side rejection arrives as
// a typed RemoteError.
func TestRemoteErrorSurface(t *testing.T) {
	db, err := durable.Open("db", &durable.Options{
		Shards: 4, Seed: 7, NoBackground: true, FS: durable.NewMemFS(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(db, server.Config{MaxConns: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c1, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Ping(nil); err != nil {
		t.Fatal(err)
	}
	c2, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	err = c2.Ping(nil)
	var re *proto.RemoteError
	if !errors.As(err, &re) || re.Code != proto.ErrCodeBusy {
		t.Fatalf("over-limit conn: %v", err)
	}
}

// TestTTLRoundTrip drives PutTTL/GetTTL through both the Conn and the
// pooled Client, including the expiry echo and the expired-read path.
func TestTTLRoundTrip(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	cl, err := client.Open(addr, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The test server runs the system clock, so a far-future expiry is
	// live and a 1970s expiry is long dead.
	farFuture := time.Now().Unix() + 3600
	if ins, err := cl.PutTTL(1, 10, farFuture); err != nil || !ins {
		t.Fatalf("put-ttl: %v %v", ins, err)
	}
	if v, exp, ok, err := cl.GetTTL(1); err != nil || !ok || v != 10 || exp != farFuture {
		t.Fatalf("get-ttl: %d %d %v %v", v, exp, ok, err)
	}
	if v, ok, err := cl.Get(1); err != nil || !ok || v != 10 {
		t.Fatalf("plain get of live ttl entry: %d %v %v", v, ok, err)
	}
	// An entry whose expiry is already past reads as absent immediately
	// (lazy filtering; no sweeper needs to run).
	if ins, err := cl.PutTTL(2, 20, 1000); err != nil || !ins {
		t.Fatalf("dead-on-arrival put-ttl: %v %v", ins, err)
	}
	if _, _, ok, err := cl.GetTTL(2); err != nil || ok {
		t.Fatalf("expired entry visible: %v %v", ok, err)
	}
	// Rewriting it is a fresh insert.
	cc, err := cl.Conn()
	if err != nil {
		t.Fatal(err)
	}
	if ins, err := cc.PutTTL(2, 21, farFuture); err != nil || !ins {
		t.Fatalf("resurrect: %v %v", ins, err)
	}
	if v, exp, ok, err := cc.GetTTL(2); err != nil || !ok || v != 21 || exp != farFuture {
		t.Fatalf("resurrected: %d %d %v %v", v, exp, ok, err)
	}
	// Absent key: found=false with zero value and expiry.
	if v, exp, ok, err := cl.GetTTL(999); err != nil || ok || v != 0 || exp != 0 {
		t.Fatalf("absent get-ttl: %d %d %v %v", v, exp, ok, err)
	}
	// Negative expiry is a client-side arithmetic bug; the server
	// refuses it without killing the connection.
	if _, err := cc.PutTTL(3, 30, -1); err == nil {
		t.Fatal("negative expiry accepted")
	}
	var rerr *proto.RemoteError
	if _, err := cc.PutTTL(3, 30, -1); !errors.As(err, &rerr) || rerr.Code != proto.ErrCodeBadFrame {
		t.Fatalf("negative expiry error = %v, want ErrCodeBadFrame", err)
	}
	if err := cl.Ping(nil); err != nil {
		t.Fatalf("connection dead after refused put-ttl: %v", err)
	}
}
