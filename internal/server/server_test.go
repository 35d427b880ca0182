package server

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/client"
	"repro/internal/durable"
	"repro/internal/proto"
	"repro/internal/trace"
)

// newTestDB returns an in-memory durable DB with no background
// checkpointer, so tests control every commit.
func newTestDB(t *testing.T, shards int) *durable.DB {
	t.Helper()
	return openTestDB(t, &durable.Options{Shards: shards, Seed: 42})
}

// newReplicaDB is newTestDB in the replica role; a server over it is a
// read replica, with nothing said to the server.
func newReplicaDB(t *testing.T, shards int) *durable.DB {
	t.Helper()
	return openTestDB(t, &durable.Options{Shards: shards, Seed: 42, NoSweep: true})
}

func openTestDB(t *testing.T, o *durable.Options) *durable.DB {
	t.Helper()
	o.NoBackground, o.FS = true, durable.NewMemFS()
	db, err := durable.Open("db", o)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// startTCP serves a new server over db on a loopback listener and
// returns its address plus a stopper.
func startTCP(t *testing.T, db *durable.DB, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// exerciseFullAPI drives every opcode through c against a fresh DB.
func exerciseFullAPI(t *testing.T, c *client.Conn) {
	t.Helper()
	if err := c.Ping([]byte("hello")); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if ins, err := c.Put(1, 100); err != nil || !ins {
		t.Fatalf("put: %v %v", ins, err)
	}
	if ins, err := c.Put(1, 101); err != nil || ins {
		t.Fatalf("overwrite put: %v %v", ins, err)
	}
	if v, ok, err := c.Get(1); err != nil || !ok || v != 101 {
		t.Fatalf("get: %d %v %v", v, ok, err)
	}
	if _, ok, err := c.Get(2); err != nil || ok {
		t.Fatalf("get absent: %v %v", ok, err)
	}
	if n, err := c.PutBatch([]client.Item{{Key: 2, Val: 200}, {Key: 3, Val: 300}, {Key: 1, Val: 110}}); err != nil || n != 2 {
		t.Fatalf("put batch: %d %v", n, err)
	}
	vals, ok, err := c.GetBatch([]int64{1, 2, 9})
	if err != nil || vals[0] != 110 || vals[1] != 200 || !ok[0] || !ok[1] || ok[2] {
		t.Fatalf("get batch: %v %v %v", vals, ok, err)
	}
	items, more, err := c.Range(0, 1000, 0)
	if err != nil || more || len(items) != 3 || items[0].Key != 1 || items[2].Key != 3 {
		t.Fatalf("range: %v %v %v", items, more, err)
	}
	// A capped range truncates and says so.
	items, more, err = c.Range(0, 1000, 2)
	if err != nil || !more || len(items) != 2 {
		t.Fatalf("capped range: %v %v %v", items, more, err)
	}
	if n, err := c.Len(); err != nil || n != 3 {
		t.Fatalf("len: %d %v", n, err)
	}
	if del, err := c.Delete(3); err != nil || !del {
		t.Fatalf("delete: %v %v", del, err)
	}
	if del, err := c.Delete(3); err != nil || del {
		t.Fatalf("re-delete: %v %v", del, err)
	}
	if n, err := c.DeleteBatch([]int64{1, 2, 3}); err != nil || n != 2 {
		t.Fatalf("delete batch: %d %v", n, err)
	}
	if cps, err := c.Checkpoint(); err != nil || cps == 0 {
		t.Fatalf("checkpoint: %d %v", cps, err)
	}
}

// TestServeConnOverPipe drives the full API through net.Pipe — no
// sockets, pure protocol + dispatch.
func TestServeConnOverPipe(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Close()
	srv := New(db, Config{ReadTimeout: -1})
	cliEnd, srvEnd := net.Pipe()
	srv.ServeConn(srvEnd)
	c := client.NewConn(cliEnd)
	exerciseFullAPI(t, c)
	c.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServeTCP drives the full API over a real loopback socket.
func TestServeTCP(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Close()
	srv, addr := startTCP(t, db, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	exerciseFullAPI(t, c)
	c.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.ConnsAccepted != 1 || st.Requests == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestPipelinedReadYourWrites checks program order on one connection:
// many puts issued concurrently (pipelined through the coalescer),
// then gets that must observe them.
func TestPipelinedReadYourWrites(t *testing.T) {
	db := newTestDB(t, 8)
	defer db.Close()
	srv, addr := startTCP(t, db, Config{})
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(k int64) {
			_, err := c.Put(k, k*10)
			errs <- err
		}(int64(i))
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < n; i++ {
		if v, ok, err := c.Get(i); err != nil || !ok || v != i*10 {
			t.Fatalf("get %d: %d %v %v", i, v, ok, err)
		}
	}
	// The coalescer must have batched at least some of those 200
	// concurrent single puts into shared ApplyBatch calls.
	st := srv.Stats()
	if st.WriteBatched != n {
		t.Fatalf("WriteBatched = %d, want %d", st.WriteBatched, n)
	}
	if st.WriteBatches >= n {
		t.Fatalf("no coalescing: %d batches for %d writes", st.WriteBatches, n)
	}
	if st.WriteMaxBatch < 2 {
		t.Fatalf("WriteMaxBatch = %d", st.WriteMaxBatch)
	}
}

// TestConnLimit checks that a connection over MaxConns is refused with
// an ErrCodeBusy error frame.
func TestConnLimit(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Close()
	srv, addr := startTCP(t, db, Config{MaxConns: 1})
	defer srv.Close()

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Ping(nil); err != nil { // ensure c1 is fully admitted
		t.Fatal(err)
	}

	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	err = c2.Ping(nil)
	var re *proto.RemoteError
	if !errors.As(err, &re) || re.Code != proto.ErrCodeBusy {
		t.Fatalf("second conn: %v, want ErrCodeBusy", err)
	}

	// Closing the first connection frees the slot.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		err = c3.Ping(nil)
		c3.Close()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIdleReadTimeout checks that a silent connection is dropped.
func TestIdleReadTimeout(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Close()
	srv, addr := startTCP(t, db, Config{ReadTimeout: 50 * time.Millisecond})
	defer srv.Close()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("idle connection still open after read timeout")
	}
}

// writeFrame and readFrame speak raw frames on a bare connection, for
// tests that must send what the stock client never would. A
// FrameReader never over-reads, so a fresh one per frame is safe.
func writeFrame(nc net.Conn, f proto.Frame) error {
	_, err := nc.Write(proto.AppendFrame(nil, f))
	return err
}

func readFrame(nc net.Conn) (proto.Frame, error) {
	return proto.NewFrameReader(nc, 0).Next()
}

// TestHostileFrames checks the server's reaction to protocol garbage:
// an error frame (where the stream is still framed) and a close, with
// the store unharmed.
func TestHostileFrames(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Close()
	srv, addr := startTCP(t, db, Config{})
	defer srv.Close()

	// Any version but the server's is refused with ErrCodeVersion and the
	// connection closed: a version byte nobody speaks, and a frame in the
	// retired version-3 layout (no extension-length byte after the id),
	// which is hand-built here because no encoder emits it any more.
	v3 := binary.BigEndian.AppendUint32(nil, uint32(proto.HeaderSize-4+8))
	v3 = append(v3, 3, proto.OpGet)
	v3 = binary.BigEndian.AppendUint64(v3, 7)
	v3 = proto.AppendKey(v3, 42)
	for name, wire := range map[string][]byte{
		"version 99": proto.AppendFrame(nil, proto.Frame{Ver: 99, Op: proto.OpLen, ID: 7}),
		"v3 layout":  v3,
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Write(wire); err != nil {
			t.Fatal(err)
		}
		f, err := readFrame(nc)
		if err != nil {
			t.Fatalf("%s: no reply: %v", name, err)
		}
		if f.Ver != proto.Version || f.Op != proto.OpError || f.ID != 7 {
			t.Fatalf("%s: reply version %d op %s id %d", name, f.Ver, proto.OpName(f.Op), f.ID)
		}
		if code, _, _ := proto.DecodeError(f.Payload); code != proto.ErrCodeVersion {
			t.Fatalf("%s: code %s", name, proto.ErrCodeName(code))
		}
		if _, err := readFrame(nc); err != io.EOF {
			t.Fatalf("%s: connection still open after the refusal: %v", name, err)
		}
		nc.Close()
	}

	// Unknown opcode: error reply, but the connection survives.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeFrame(c, proto.Frame{Ver: proto.Version, Op: 0x6E, ID: 1})
	writeFrame(c, proto.Frame{Ver: proto.Version, Op: proto.OpPing, ID: 2})
	f1, err := readFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := readFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Op != proto.OpError || f1.ID != 1 {
		t.Fatalf("unknown-op reply: %s id %d", proto.OpName(f1.Op), f1.ID)
	}
	if f2.Op != proto.OpPing|proto.FlagReply || f2.ID != 2 {
		t.Fatalf("ping after unknown op: %s id %d", proto.OpName(f2.Op), f2.ID)
	}

	// A malformed payload gets an error reply; the stream continues.
	writeFrame(c, proto.Frame{Ver: proto.Version, Op: proto.OpGet, ID: 3, Payload: []byte{1, 2}})
	f3, err := readFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	if f3.Op != proto.OpError || f3.ID != 3 {
		t.Fatalf("bad payload reply: %s id %d", proto.OpName(f3.Op), f3.ID)
	}

	// Traced, the same malformed GET (refused inline, on the reader) and
	// a quota-refused NSPUT (refused on the coalescer) leave the same
	// trace: both go through the one completion path. Neither is sampled;
	// the error alone keeps them.
	tr := trace.NewStore(1024, 0, nil)
	tsrv, taddr := startTCP(t, db, Config{SweepInterval: -1, Trace: tr, NSQuota: 1})
	defer tsrv.Close()
	tc, err := net.Dial("tcp", taddr)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	for i, f := range []proto.Frame{
		{Op: proto.OpGet, Payload: []byte{1, 2}},
		{Op: proto.OpNSPut, Payload: proto.AppendNSKeyValExp(nil, "acme", 1, 1, 0)}, // fills the quota
		{Op: proto.OpNSPut, Payload: proto.AppendNSKeyValExp(nil, "acme", 2, 2, 0)},
	} {
		f.Ver, f.ID, f.Trace = proto.Version, uint64(10+i), proto.TraceCtx{ID: uint64(0xA0 + i), Span: 0xB0}
		writeFrame(tc, f)
		if _, err := readFrame(tc); err != nil {
			t.Fatal(err)
		}
	}
	assertErrorSpanTree(t, tsrv, tr, 0xA0, proto.OpGet, proto.ErrCodeBadFrame, 0)
	assertErrorSpanTree(t, tsrv, tr, 0xA2, proto.OpNSPut, proto.ErrCodeQuota, 1)

	// An oversized frame kills the connection with ErrCodeTooLarge.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := c.Write(huge); err != nil {
		t.Fatal(err)
	}
	f4, err := readFrame(c)
	if err == nil {
		if f4.Op != proto.OpError {
			t.Fatalf("oversized frame reply: %s", proto.OpName(f4.Op))
		}
		if code, _, _ := proto.DecodeError(f4.Payload); code != proto.ErrCodeTooLarge {
			t.Fatalf("code %s", proto.ErrCodeName(code))
		}
	}
}

// assertErrorSpanTree checks what a request that ended in an error
// reply must leave behind, whichever goroutine refused it: trace tid
// holds one server span for op carrying the error code, parented under
// the client's span, with its decode / coalesce-wait / apply / encode
// children — and the opcode's latency histogram holds only the
// succeeded requests, because errors are never timed.
func assertErrorSpanTree(t *testing.T, srv *Server, tr *trace.Store, tid uint64, op, code byte, succeeded uint64) {
	t.Helper()
	// The encode child is the last span of the tree to be recorded.
	sps := spansOf(t, tr, tid, func(sps []trace.Span) bool { return hasKind(sps, trace.KindEncode) })
	root := one(t, sps, trace.KindServer)
	if root.Op != op || root.Err != code || root.Parent != 0xB0 || root.Shard != -1 {
		t.Fatalf("%s error span = %+v, want err %s under parent b0 with shard -1",
			proto.OpName(op), root, proto.ErrCodeName(code))
	}
	for _, k := range []trace.Kind{trace.KindDecode, trace.KindWait, trace.KindApply, trace.KindEncode} {
		if sp := one(t, sps, k); sp.Parent != root.ID || sp.Dur < 0 {
			t.Fatalf("%s error trace: %v span %+v, want a child of the server span %x", proto.OpName(op), k, sp, root.ID)
		}
	}
	if n := srv.sm.ops[op].Snapshot().Count; n != succeeded {
		t.Fatalf("hidb_server_op_seconds{op=%s} holds %d observations, want %d: an error reply was timed",
			opTable[op].label, n, succeeded)
	}
}

// TestReplySizeCaps checks that requests whose replies would exceed
// the frame payload cap are refused with ErrCodeTooLarge instead of
// the server emitting an unreadable frame.
func TestReplySizeCaps(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Close()
	srv, addr := startTCP(t, db, Config{})
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// An over-cap batch-get fits the request frame but not the reply.
	keys := make([]int64, proto.MaxBatchGet+1)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := writeFrame(nc, proto.Frame{
		Ver: proto.Version, Op: proto.OpBatch, ID: 5,
		Payload: proto.AppendBatchKeys(nil, proto.BatchGet, keys),
	}); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != proto.OpError || f.ID != 5 {
		t.Fatalf("over-cap batch-get reply: %s id %d", proto.OpName(f.Op), f.ID)
	}
	if code, _, _ := proto.DecodeError(f.Payload); code != proto.ErrCodeTooLarge {
		t.Fatalf("code %s", proto.ErrCodeName(code))
	}
	// The stock client refuses to send it at all.
	if _, _, err := c.GetBatch(keys); err == nil {
		t.Fatal("client sent an over-cap batch-get")
	}

	// A configured range cap above the protocol bound is clamped.
	if got := (Config{MaxRangeItems: 1 << 30}).withDefaults().MaxRangeItems; got != proto.MaxRangeItems {
		t.Fatalf("MaxRangeItems clamped to %d, want %d", got, proto.MaxRangeItems)
	}
}

// TestGracefulShutdown checks that Shutdown answers in-flight requests,
// refuses new connections, and commits a final checkpoint.
func TestGracefulShutdown(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Close()
	srv, addr := startTCP(t, db, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := int64(0); i < 100; i++ {
		if _, err := c.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	cpsBefore := db.Checkpoints()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if db.Checkpoints() != cpsBefore+1 {
		t.Fatalf("checkpoints %d -> %d, want final checkpoint", cpsBefore, db.Checkpoints())
	}
	if db.PendingOps() != 0 {
		t.Fatalf("%d pending ops after graceful shutdown", db.PendingOps())
	}
	if err := db.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
	// The listener is gone.
	if c2, err := client.Dial(addr); err == nil {
		if err := c2.Ping(nil); err == nil {
			t.Fatal("server still serving after Shutdown")
		}
		c2.Close()
	}
}

// TestForceClose checks that Close severs connections without a final
// checkpoint — the crash the durable layer absorbs.
func TestForceClose(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Close()
	srv, addr := startTCP(t, db, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	cps := db.Checkpoints()
	srv.Close()
	if db.Checkpoints() != cps {
		t.Fatal("force close committed a checkpoint")
	}
	if _, _, err := c.Get(1); err == nil {
		t.Fatal("connection survived force close")
	}
}
