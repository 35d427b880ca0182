package client

// White-box tests for the pool's HA surface: ErrNoHealthyConn when
// every slot is dead, deterministic redial backoff through the
// injectable sleeper, and endpoint failover after a primary's death or
// an ErrReadOnly refusal.

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/server"
)

// startRoleServer is startTestServer with the node's role chosen — the
// DB's one bit; the server follows it — and the server handle returned.
func startRoleServer(t *testing.T, replica bool) (addr string, srv *server.Server, stop func()) {
	t.Helper()
	db, err := durable.Open("db", &durable.Options{
		Shards: 4, Seed: 7, NoBackground: true, NoSweep: replica, FS: durable.NewMemFS(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv = server.New(db, server.Config{SweepInterval: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), srv, func() {
		srv.Close()
		db.Close()
	}
}

// TestConnErrNoHealthyConn severs every slot's transport and checks
// Conn reports the typed sentinel instead of handing out a corpse.
func TestConnErrNoHealthyConn(t *testing.T) {
	addr, srv, stop := startRoleServer(t, false)
	defer stop()
	cl, err := Open(addr, 3, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Conn(); err != nil {
		t.Fatalf("healthy pool: %v", err)
	}
	// Stop the server first: with its listener closed no background
	// redial can heal a slot, so the assertions below are strict.
	srv.Close()
	for i := range cl.slots {
		c := cl.slots[i].conn.Load()
		c.nc.Close()
		<-c.done // the reader has noticed and marked the conn broken
	}
	// Conn must fail typed, not hand out a broken conn or block, and the
	// pool-level operations wrap the same sentinel (single-endpoint
	// pool: no failover to mask it).
	if _, err := cl.Conn(); !errors.Is(err, ErrNoHealthyConn) {
		t.Fatalf("Conn err = %v, want ErrNoHealthyConn in the chain", err)
	}
	if _, _, err := cl.Get(1); !errors.Is(err, ErrNoHealthyConn) {
		t.Fatalf("Get err = %v, want ErrNoHealthyConn in the chain", err)
	}
}

// TestRedialBackoffDeterministic drives the redial loop's backoff
// through an injected sleeper against an unreachable address and
// checks the exact exponential schedule — no wall-clock time passes.
func TestRedialBackoffDeterministic(t *testing.T) {
	// A listener that is closed immediately: the address is syntactically
	// valid and fast-refusing, so every dial fails promptly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	addr, _, stop := startRoleServer(t, false)
	defer stop()
	cl, err := Open(addr, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var mu sync.Mutex
	var slept []time.Duration
	enough := make(chan struct{})
	cl.sleep = func(d time.Duration) {
		mu.Lock()
		slept = append(slept, d)
		if len(slept) == 8 {
			close(enough)
		}
		n := len(slept)
		mu.Unlock()
		if n >= 8 {
			// Park until Close so the loop stops burning dials once the
			// schedule is captured.
			for !cl.closed.Load() {
				time.Sleep(time.Millisecond)
			}
		}
	}
	// Point the pool at the dead address and sever its conn: the redial
	// loop now fails every dial and walks the backoff schedule.
	cl.endpoints[0] = deadAddr
	cl.slots[0].conn.Load().nc.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := cl.Conn(); err != nil {
			break // broken conn noticed, redial kicked
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never went broken")
		}
		time.Sleep(time.Millisecond)
	}

	select {
	case <-enough:
	case <-time.After(5 * time.Second):
		t.Fatal("redial loop did not back off 8 times")
	}
	mu.Lock()
	defer mu.Unlock()
	want := []time.Duration{
		20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond,
		160 * time.Millisecond, 320 * time.Millisecond, 640 * time.Millisecond,
		time.Second, time.Second, // capped
	}
	for i, w := range want {
		if slept[i] != w {
			t.Fatalf("backoff[%d] = %v, want %v (schedule %v)", i, slept[i], w, slept[:8])
		}
	}
}

// TestFailoverOnReadOnly opens the pool ranked [replica, primary]: the
// first write hits the read-only node, is refused with ErrReadOnly,
// and must transparently land on the writable endpoint — exactly once,
// no replay.
func TestFailoverOnReadOnly(t *testing.T) {
	rAddr, _, rStop := startRoleServer(t, true)
	defer rStop()
	pAddr, _, pStop := startRoleServer(t, false)
	defer pStop()

	cl, err := OpenEndpoints([]string{rAddr, pAddr}, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if ins, err := cl.Put(1, 100); err != nil || !ins {
		t.Fatalf("put through failover: %v %v", ins, err)
	}
	if cl.Endpoint() != pAddr {
		t.Fatalf("pool still pointed at %s, want writable %s", cl.Endpoint(), pAddr)
	}
	if v, ok, err := cl.Get(1); err != nil || !ok || v != 100 {
		t.Fatalf("read-back: %d %v %v", v, ok, err)
	}
}

// TestFailoverAfterPrimaryDeath kills the primary under a two-endpoint
// pool, promotes the replica, and checks writes resume on the promoted
// node without any request replay.
func TestFailoverAfterPrimaryDeath(t *testing.T) {
	pAddr, _, pStop := startRoleServer(t, false)
	rAddr, _, rStop := startRoleServer(t, true)
	defer rStop()

	cl, err := OpenEndpoints([]string{pAddr, rAddr}, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Put(1, 11); err != nil {
		t.Fatalf("pre-failover put: %v", err)
	}

	pStop() // the primary is gone, conns die
	pc, err := Dial(rAddr)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := pc.Promote(); err != nil || n != 1 {
		t.Fatalf("promote: %d %v", n, err)
	}
	pc.Close()

	// Writes must come back once the pool notices and fails over. The
	// first attempts may still race the reader goroutines marking conns
	// broken (those die as ErrConnClosed, never replayed) — but within
	// the deadline a write must land on the promoted node.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := cl.Put(2, 22)
		if err == nil {
			break
		}
		if errors.Is(err, ErrConnClosed) || errors.Is(err, ErrNoHealthyConn) || errors.Is(err, ErrReadOnly) {
			if time.Now().After(deadline) {
				t.Fatalf("writes never resumed after failover: %v", err)
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		t.Fatalf("unexpected error class during failover: %v", err)
	}
	if cl.Endpoint() != rAddr {
		t.Fatalf("pool pointed at %s after failover, want %s", cl.Endpoint(), rAddr)
	}
	if v, ok, err := cl.Get(2); err != nil || !ok || v != 22 {
		t.Fatalf("read from promoted node: %d %v %v", v, ok, err)
	}
	h, err := cl.Health()
	if err != nil || h.ReadOnly || h.Promotions != 1 {
		t.Fatalf("promoted node health = %+v, %v", h, err)
	}
}

// TestFailoverProbeBounded pins the per-probe deadline regression: an
// endpoint that accepts the TCP connection but never answers HEALTH —
// a half-dead process, a black-holing middlebox — must not wedge the
// failover sweep, even on a pool opened with no request timeout. The
// probe clamps each endpoint to maxProbeTimeout and moves on.
func TestFailoverProbeBounded(t *testing.T) {
	blackhole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer blackhole.Close()
	var hmu sync.Mutex
	var held []net.Conn // accepted and never answered
	go func() {
		for {
			c, err := blackhole.Accept()
			if err != nil {
				return
			}
			hmu.Lock()
			held = append(held, c)
			hmu.Unlock()
		}
	}()
	defer func() {
		hmu.Lock()
		for _, c := range held {
			c.Close()
		}
		hmu.Unlock()
	}()

	pAddr, _, pStop := startRoleServer(t, false)
	defer pStop()

	// timeout 0: the pool imposes no request timeout, so only the
	// probe's own clamp stands between the sweep and a permanent hang.
	cl, err := OpenEndpoints([]string{blackhole.Addr().String(), pAddr}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	done := make(chan bool, 1)
	go func() { done <- cl.failover() }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("failover found no writable node despite a healthy primary")
		}
	case <-time.After(3 * maxProbeTimeout):
		t.Fatal("failover wedged on the never-answering endpoint; per-probe deadline not applied")
	}
	if cl.Endpoint() != pAddr {
		t.Fatalf("pool pointed at %s after the sweep, want %s", cl.Endpoint(), pAddr)
	}
	if _, err := cl.Put(1, 1); err != nil {
		t.Fatalf("put after failover: %v", err)
	}
}

// TestPromoteWireErrNotReplica checks the typed refusal for a PROMOTE
// aimed at a node that is already writable.
func TestPromoteWireErrNotReplica(t *testing.T) {
	addr, _, stop := startRoleServer(t, false)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Promote(); !errors.Is(err, ErrNotReplica) {
		t.Fatalf("promoting a primary: %v, want ErrNotReplica", err)
	}
	// The refusal must not poison the connection.
	if err := c.Ping(nil); err != nil {
		t.Fatalf("connection dead after refused promote: %v", err)
	}
}
