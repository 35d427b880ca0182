package client

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
)

// Tests for the hazards pooled call records introduce. Each is named
// for the bug it catches and drives the Conn against a scripted peer on
// the far end of a net.Pipe, so the test decides exactly when (and
// whether) each reply arrives.

// pipeConn returns a Conn with the given reply timeout and the peer's
// end of its transport. The peer reads requests with nextReq — one
// FrameReader for the connection's life — and answers with sendReply.
func pipeConn(t *testing.T, timeout time.Duration) (*Conn, net.Conn, *proto.FrameReader) {
	t.Helper()
	cli, srv := net.Pipe()
	c := NewConnTimeout(cli, timeout)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	return c, srv, proto.NewFrameReader(srv, 0)
}

// nextReq reads one request and returns its id and the key its payload
// starts with (0 for a payload shorter than a key).
func nextReq(fr *proto.FrameReader) (id uint64, key int64, err error) {
	f, err := fr.Next()
	if err != nil {
		return 0, 0, err
	}
	if len(f.Payload) >= 8 {
		key, _ = proto.DecodeKey(f.Payload[:8])
	}
	return f.ID, key, nil
}

func sendReply(nc net.Conn, id uint64, op byte, payload []byte) error {
	_, err := nc.Write(proto.AppendFrame(nil, proto.Frame{Ver: proto.Version, Op: op | proto.FlagReply, ID: id, Payload: payload}))
	return err
}

// valOf is the value the scripted peer stores under key.
func valOf(key int64) int64 { return key*10 + 7 }

func foundReply(key int64) []byte { return proto.AppendFound(nil, true, valOf(key), 0) }

// TestLateReplyNeverReachesAnotherCall: the peer answers Get(1) only
// after the client has timed it out and issued Get(2), which runs on a
// record from the same pool. A timed-out call must leave its record to
// the collector — the reply may still be on its way into it. With the
// bug (the timed-out caller releases its record), Get(2) picks that
// record up and returns key 1's value.
func TestLateReplyNeverReachesAnotherCall(t *testing.T) {
	c, peer, fr := pipeConn(t, 150*time.Millisecond)

	peerErr := make(chan error, 1)
	got2 := make(chan struct{})
	go func() {
		peerErr <- func() error {
			// Request 0 is answered at once: its record goes back to the pool.
			id, key, err := nextReq(fr)
			if err != nil {
				return err
			}
			if err := sendReply(peer, id, proto.OpGet, foundReply(key)); err != nil {
				return err
			}
			// Request 1 is held until request 2 has arrived, which the
			// client only sends after timing request 1 out.
			id1, key1, err := nextReq(fr)
			if err != nil {
				return err
			}
			id2, key2, err := nextReq(fr)
			if err != nil {
				return err
			}
			close(got2)
			if err := sendReply(peer, id1, proto.OpGet, foundReply(key1)); err != nil {
				return err
			}
			return sendReply(peer, id2, proto.OpGet, foundReply(key2))
		}()
	}()

	if v, ok, err := c.Get(0); err != nil || !ok || v != valOf(0) {
		t.Fatalf("Get(0) = %d %v %v, want %d", v, ok, err, valOf(0))
	}
	if _, _, err := c.Get(1); err == nil {
		t.Fatal("Get(1) returned although the peer never answered it in time")
	}
	v, ok, err := c.Get(2)
	if err != nil || !ok || v != valOf(2) {
		t.Fatalf("Get(2) = %d %v %v, want key 2's value %d (key 1's is %d)", v, ok, err, valOf(2), valOf(1))
	}
	<-got2
	if err := <-peerErr; err != nil {
		t.Fatalf("peer: %v", err)
	}
	// The late reply found no waiter and was dropped; the stream is intact.
	go func() {
		id, key, err := nextReq(fr)
		if err == nil {
			err = sendReply(peer, id, proto.OpGet, foundReply(key))
		}
		peerErr <- err
	}()
	if v, ok, err := c.Get(3); err != nil || !ok || v != valOf(3) {
		t.Fatalf("Get(3) after the late reply = %d %v %v, want %d", v, ok, err, valOf(3))
	}
	if err := <-peerErr; err != nil {
		t.Fatalf("peer: %v", err)
	}
}

// TestFailWakesEveryPooledWaiter: the peer dies with n calls parked on
// pooled records. fail must wake each through its record's channel
// exactly once. With the bug — a wake that is lost, or delivered twice —
// a caller hangs forever, or a record goes back to the pool with a
// token still in its channel and the next call on it "completes" before
// its reply exists.
func TestFailWakesEveryPooledWaiter(t *testing.T) {
	const n = 24
	c, peer, fr := pipeConn(t, 0)

	// parked is closed once the peer has read n requests it will never
	// answer; the first n it answers, so the pool holds n records.
	parked := make(chan struct{})
	go func() {
		for i := 0; i < 2*n; i++ {
			id, key, err := nextReq(fr)
			if err != nil {
				return
			}
			if i < n {
				if sendReply(peer, id, proto.OpGet, foundReply(key)) != nil {
					return
				}
			}
		}
		close(parked)
	}()

	wave := func() []error {
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, _, errs[i] = c.Get(int64(i))
			}(i)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("calls still parked 10s after the peer died: a waiter was never woken")
		}
		return errs
	}

	for i, err := range wave() {
		if err != nil {
			t.Fatalf("answered call %d: %v", i, err)
		}
	}
	go func() {
		<-parked
		peer.Close()
	}()
	for i, err := range wave() {
		if !errors.Is(err, ErrConnClosed) {
			t.Errorf("parked call %d returned %v, want ErrConnClosed", i, err)
		}
	}

	if _, _, err := c.Get(0); !errors.Is(err, ErrConnClosed) {
		t.Errorf("call on the dead connection: %v, want ErrConnClosed", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[*call]bool{}
	for _, r := range c.free {
		if seen[r] {
			t.Error("a record is on the free list twice")
		}
		seen[r] = true
		if len(r.done) != 0 {
			t.Error("a pooled record's channel still holds a wake")
		}
	}
	if len(c.pending) != 0 {
		t.Errorf("%d calls still registered on a dead connection", len(c.pending))
	}
}

// TestJumboReplyBufferNotRetained: a reply near the 1 MiB frame cap
// grows its record's buffer to match. With the bug (release keeps
// whatever the buffer grew to) every record that ever carried a jumbo
// RANGE or SYNC reply pins 1 MiB for the connection's lifetime. The
// connection may keep ONE such buffer between consecutive jumbo replies,
// and gives that up with the first small one.
func TestJumboReplyBufferNotRetained(t *testing.T) {
	c, peer, fr := pipeConn(t, 0)

	items := make([]Item, proto.MaxRangeItems)
	for i := range items {
		items[i] = Item{Key: int64(i), Val: valOf(int64(i))}
	}
	chunk := make([]byte, proto.MaxSyncChunk)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	go func() {
		for _, rep := range []struct {
			op      byte
			payload []byte
		}{
			{proto.OpRange, proto.AppendRangeReply(nil, items, false, 0)},
			{proto.OpSync, proto.AppendSyncChunk(nil, false, chunk)},
			{proto.OpGet, foundReply(5)},
		} {
			id, _, err := nextReq(fr)
			if err != nil || sendReply(peer, id, rep.op, rep.payload) != nil {
				return
			}
		}
	}()

	pooledMax := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		most := 0
		for _, r := range c.free {
			most = max(most, cap(r.reply))
		}
		return most
	}

	got, more, err := c.Range(0, 1<<40, 0)
	if err != nil || more || len(got) != len(items) || got[len(got)-1] != items[len(items)-1] {
		t.Fatalf("jumbo Range: %d items, more=%v, err=%v", len(got), more, err)
	}
	if n := pooledMax(); n > maxRetained {
		t.Fatalf("a pooled record retains %d bytes after a jumbo RANGE reply, cap %d", n, maxRetained)
	}
	prefix := []byte("kept")
	blob, more, err := c.SyncChunk(prefix, [32]byte{1}, 0, 0)
	if err != nil || more || len(blob) != len(prefix)+len(chunk) || string(blob[:4]) != "kept" || blob[len(blob)-1] != chunk[len(chunk)-1] {
		t.Fatalf("jumbo SyncChunk: %d bytes, more=%v, err=%v", len(blob), more, err)
	}
	if n := pooledMax(); n > maxRetained {
		t.Fatalf("a pooled record retains %d bytes after a jumbo SYNC reply, cap %d", n, maxRetained)
	}
	// The chunk was copied out before the record was reused: the next
	// reply through the same record must not show through the blob.
	if v, ok, err := c.Get(5); err != nil || !ok || v != valOf(5) {
		t.Fatalf("Get(5) after the jumbo replies = %d %v %v", v, ok, err)
	}
	c.mu.Lock()
	kept := cap(c.jumbo)
	c.mu.Unlock()
	if kept != 0 {
		t.Fatalf("the connection still keeps a %d-byte jumbo buffer after a small reply", kept)
	}
	for i, b := range blob[len(prefix):] {
		if b != byte(i) {
			t.Fatalf("blob byte %d changed to %#x after the record was reused", i, b)
		}
	}
}
