package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/trace"
)

// Item is a key plus its value, the element type of batch and range
// operations. Values are fixed 8-byte integers — the data model of the
// underlying history-independent structures.
type Item = proto.Item

// ErrConnClosed is returned by operations on a closed connection (or
// one whose peer went away). The detailed cause is wrapped.
var ErrConnClosed = errors.New("client: connection closed")

// ErrReadOnly is wrapped into the error a mutating operation gets back
// from a read replica (server code ErrCodeReadOnly). Check it with
// errors.Is and redirect the write to the primary; the connection
// stays usable for reads. The underlying *proto.RemoteError is also in
// the chain for errors.As.
var ErrReadOnly = errors.New("client: server is a read-only replica")

// ErrNotReplica is wrapped into the error Promote gets back from a
// node that is already writable (server code ErrCodeNotReplica) —
// a double promotion, or a PROMOTE aimed at the primary.
var ErrNotReplica = errors.New("client: server is already writable")

// Health re-exports the OpHealth reply: the node's role, promotion
// count, checkpoint epoch, and committed-manifest hash.
type Health = proto.Health

// Conn is one pipelined protocol connection. It is safe for concurrent
// use: every method may be called from any goroutine, and concurrent
// calls share the connection as in-flight pipelined requests.
type Conn struct {
	nc net.Conn

	// One lock covers the outbound buffer and the in-flight table. The
	// outbound side is the design of internal/server's conn: a caller
	// encodes its frame in place into out under mu and nudges the writer
	// through wsig; the writer swaps out for its spare buffer and writes
	// the whole burst with one syscall. The two buffers alternate, so a
	// steady pipeline allocates nothing.
	mu      sync.Mutex
	out     []byte           // encoded request frames awaiting the writer
	nextID  uint64           // last request id issued; ids start at 1
	pending map[uint64]*call // in-flight calls by request id
	free    []*call          // released call records, reused last-in first-out
	jumbo   []byte           // the one reply buffer over maxRetained kept for reuse (see release)
	err     error            // set once broken; guards future calls
	closed  bool
	dead    atomic.Bool   // mirrors closed for lock-free health checks
	wsig    chan struct{} // capacity 1: wake the writer

	done    chan struct{} // closed when the reader exits
	timeout time.Duration

	// lastEpoch is the highest checkpoint epoch seen in any stamped
	// read reply on this connection — the client side of the
	// bounded-staleness contract (see LastEpoch).
	lastEpoch atomic.Uint64

	// m is never nil: Conns outside an observed pool share
	// defaultClientMetrics (live, unregistered).
	m *clientMetrics

	// tr is the span store this connection records client spans into
	// (nil pointer: tracing off). When set, every request carries a
	// trace-context extension — a fresh trace id, this call's span id
	// as the parent the server stitches under, and the head-sampling
	// decision — and sampled or failed calls record a client span. An
	// atomic pointer because SetTrace may race in-flight calls.
	tr atomic.Pointer[trace.Store]
}

// maxRetained is the largest buffer a call record, or the writer's
// spare, keeps for reuse. Anything that grew past it — a jumbo batch,
// range or sync chunk — leaves with that one use, so a large transfer is
// never pinned once per pooled record. The server's pscratch rule.
const maxRetained = 64 << 10

// call is the state of one in-flight request, pooled per Conn so a
// steady caller allocates none of it.
//
// OWNERSHIP: the reply payload belongs to its call record until
// release; anything a method hands back to its caller is decoded or
// copied out of it first. A record is released only by the caller that
// received its wake, so a record on the free list has an empty done
// channel and no other holder. A caller whose wait timed out never
// releases: the reader may already hold the record and a late reply
// may still land in it, so it is left to the collector.
type call struct {
	// done carries the one wake a registered call gets: nil once the
	// reader has filed the reply, the connection's terminal error when
	// fail swept the call. Whoever removes the record from Conn.pending
	// sends, so there is exactly one send per registration and, at
	// capacity 1, it never blocks.
	done  chan error
	op    byte        // the reply frame's opcode
	reply []byte      // the reply payload, copied out of the reader's buffer
	timer *time.Timer // the reply timeout, re-armed per call (nil: none armed yet)
}

// Dial connects to a hidbd server at addr ("host:port").
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// DialTimeout is Dial with a connect timeout, and sets the same value
// as the per-request reply timeout (0: none).
func DialTimeout(addr string, d time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	c := NewConn(nc)
	c.timeout = d
	return c, nil
}

// NewConnTimeout is NewConn with a per-request reply timeout (0:
// none): a call whose reply does not arrive within d fails instead of
// waiting forever, so a peer that accepts the connection but never
// answers cannot wedge the caller.
func NewConnTimeout(nc net.Conn, d time.Duration) *Conn {
	c := NewConn(nc)
	c.timeout = d
	return c
}

// NewConn wraps an established net.Conn (a TCP conn, one end of a
// net.Pipe, ...) in a protocol connection and starts its reader and
// writer goroutines.
func NewConn(nc net.Conn) *Conn {
	c := &Conn{
		nc:      nc,
		pending: map[uint64]*call{},
		wsig:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		m:       defaultClientMetrics,
	}
	go c.writeLoop()
	go c.readLoop()
	return c
}

// Close tears the connection down and returns the socket's close
// error. In-flight requests fail with ErrConnClosed. Close is
// idempotent: only the call that actually tears the connection down
// can return an error; every later call (including one racing the
// reader or writer noticing a dead peer) returns nil.
func (c *Conn) Close() error {
	return c.fail(ErrConnClosed)
}

// broken reports whether the connection has been torn down (by Close
// or by a transport failure). A false result is advisory — the peer
// may die between the check and the next call — but a true result is
// permanent: a Conn never comes back.
func (c *Conn) broken() bool { return c.dead.Load() }

// fail marks the connection broken, closes the socket, and fails every
// in-flight request by sending the cause down its record's done channel.
// First cause wins; the socket close error is returned by the invocation
// that actually performed the teardown.
func (c *Conn) fail(cause error) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.dead.Store(true)
	c.err = cause
	waiters := c.pending
	c.pending = nil // registration stops at closed; lookups and deletes on nil are no-ops
	c.mu.Unlock()
	cerr := c.nc.Close()
	for _, r := range waiters {
		r.done <- cause
	}
	return cerr
}

// writeLoop writes queued request frames: swap the whole outbound
// buffer for a spare, write it with one syscall, repeat — so concurrent
// callers share syscalls and the writer does no per-frame work (frames
// were encoded by their callers as they were queued).
func (c *Conn) writeLoop() {
	var spare []byte
	for {
		c.mu.Lock()
		burst := c.out
		c.out = spare[:0]
		c.mu.Unlock()
		spare = burst
		if len(burst) == 0 {
			select {
			case <-c.wsig:
			case <-c.done:
				return // conn dead
			}
			continue
		}
		if _, err := c.nc.Write(burst); err != nil {
			c.fail(fmt.Errorf("%w: write: %w", ErrConnClosed, err))
			return
		}
		if cap(spare) > maxRetained {
			spare = nil
		}
	}
}

// readLoop routes replies to their waiting callers by request id.
func (c *Conn) readLoop() {
	defer close(c.done)
	fr := proto.NewFrameReader(bufio.NewReaderSize(c.nc, 64<<10), proto.MaxPayload)
	for {
		f, err := fr.Next()
		if err != nil {
			c.fail(fmt.Errorf("%w: read: %w", ErrConnClosed, err))
			return
		}
		if f.Ver != proto.Version {
			c.fail(fmt.Errorf("%w: reply in protocol version %d, client speaks %d", ErrConnClosed, f.Ver, proto.Version))
			return
		}
		c.mu.Lock()
		r := c.pending[f.ID]
		delete(c.pending, f.ID)
		if r != nil {
			if len(f.Payload) <= maxRetained && f.Op != proto.OpSync|proto.FlagReply {
				c.jumbo = nil
			} else if cap(c.jumbo) >= len(f.Payload) {
				r.reply, c.jumbo = c.jumbo, nil
			}
		}
		c.mu.Unlock()
		if r != nil {
			// The payload aliases the reader's buffer, which the next
			// Next overwrites; the record keeps its own copy.
			r.op = f.Op
			r.reply = append(r.reply[:0], f.Payload...)
			r.done <- nil
			continue
		}
		// No waiting caller. An error frame with id 0 addresses the
		// connection itself (the server rejected us: busy, shutdown, a
		// framing violation we made — see docs/PROTOCOL.md) — surface
		// it as the connection's terminal error. Anything else,
		// including a per-request error frame whose caller already
		// timed out and deregistered, is a reply to an abandoned
		// request; drop it and keep the stream alive.
		if f.Op == proto.OpError && f.ID == 0 {
			if code, msg, derr := proto.DecodeError(f.Payload); derr == nil {
				c.fail(&proto.RemoteError{Code: code, Msg: msg})
				return
			}
		}
	}
}

// call sends one request and waits for its reply, enforcing the
// version and error-frame conventions. On success it returns the call
// record holding the reply: the caller decodes what it needs out of
// r.reply and then hands r back with release.
func (c *Conn) call(op byte, payload []byte) (*call, error) {
	t0 := time.Now()
	c.m.inflight.Add(1)
	r, err := c.doCall(op, payload)
	c.m.inflight.Add(-1)
	c.m.reqSecs.ObserveSince(t0)
	if err != nil {
		c.m.requestErrors.Inc()
	}
	return r, err
}

// release returns a record whose reply has been consumed to the
// connection's free list. A reply buffer over maxRetained does not stay
// on the record: the connection keeps one such buffer, in jumbo, and the
// reader lends it to the next reply that large — a SYNC stream or a
// paged RANGE reuses it reply after reply — and drops it with the first
// reply that is not, a SYNC chunk excepted: a blob's short last chunk is
// followed by the next blob's first.
func (c *Conn) release(r *call) {
	c.mu.Lock()
	if cap(r.reply) > maxRetained {
		c.jumbo, r.reply = r.reply, nil
	}
	c.free = append(c.free, r)
	c.mu.Unlock()
}

// errLocalFailure is the Err byte a client span carries when the call
// failed before any server error code existed — a broken connection, a
// timeout, a malformed reply. Deliberately outside the wire error-code
// vocabulary.
const errLocalFailure = 0xff

// SetTrace wires a span store into the connection: requests start
// carrying the trace-context extension, and calls that are
// head-sampled (the store's rate) or fail record a client span. Safe
// to call concurrently with in-flight calls; a nil store is ignored.
func (c *Conn) SetTrace(st *trace.Store) {
	if st != nil {
		c.tr.Store(st)
	}
}

func (c *Conn) doCall(op byte, payload []byte) (*call, error) {
	tr := c.tr.Load()
	if tr == nil {
		return c.doCallCtx(op, payload, proto.TraceCtx{})
	}
	// The client span's id travels as the context's parent-span field,
	// so every server-side span the request spawns stitches under it.
	sid := tr.NewID()
	tc := proto.TraceCtx{ID: tr.NewID(), Span: sid, Sampled: tr.Sample()}
	t0 := time.Now()
	r, err := c.doCallCtx(op, payload, tc)
	if tc.Sampled || err != nil {
		ec, out := byte(0), 0
		if err != nil {
			ec = errLocalFailure
			var re *proto.RemoteError
			if errors.As(err, &re) {
				ec = re.Code
			}
		} else {
			out = len(r.reply)
		}
		tr.Record(trace.Span{
			Trace: tc.ID, ID: sid,
			Start: t0.UnixNano(), Dur: int64(time.Since(t0)),
			Kind: trace.KindClient, Op: op, Err: ec, Shard: -1,
			In: int32(len(payload)), Out: int32(out),
		})
	}
	return r, err
}

func (c *Conn) doCallCtx(op byte, payload []byte, tc proto.TraceCtx) (*call, error) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	var r *call
	if n := len(c.free); n > 0 {
		r = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		r = &call{done: make(chan error, 1)}
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = r
	c.out = proto.AppendFrame(c.out, proto.Frame{Ver: proto.Version, Op: op, ID: id, Payload: payload, Trace: tc})
	c.mu.Unlock()
	select {
	case c.wsig <- struct{}{}:
	default:
	}

	var timeout <-chan time.Time
	if c.timeout > 0 {
		if r.timer == nil {
			r.timer = time.NewTimer(c.timeout)
		} else {
			r.timer.Reset(c.timeout)
		}
		timeout = r.timer.C
	}
	select {
	case err := <-r.done:
		if r.timer != nil && !r.timer.Stop() {
			// The timer fired while the reply landed, so its channel may
			// hold a tick, now or in a moment (which one depends on the
			// timer-channel semantics the binary was built with). A tick
			// left behind would time the next call out at once, and a
			// drain could block: drop the timer; the next call arms a new
			// one.
			r.timer = nil
		}
		if err == nil {
			err = checkReply(op, r)
		}
		if err != nil {
			c.release(r)
			return nil, err
		}
		return r, nil
	case <-timeout:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		// r is abandoned, not released: see call's ownership rule.
		return nil, fmt.Errorf("client: %s timed out after %v", proto.OpName(op), c.timeout)
	}
}

// checkReply turns an error frame into its Go error and refuses a
// reply whose opcode does not answer op. Everything it returns is
// copied out of the record.
func checkReply(op byte, r *call) error {
	if r.op == proto.OpError {
		code, msg, err := proto.DecodeError(r.reply)
		if err != nil {
			return fmt.Errorf("client: bad error frame: %w", err)
		}
		rerr := &proto.RemoteError{Code: code, Msg: msg}
		switch code {
		case proto.ErrCodeReadOnly:
			// Both sentinels stay in the chain: errors.Is(err,
			// ErrReadOnly) for routing, errors.As for the code.
			return fmt.Errorf("%w: %w", ErrReadOnly, rerr)
		case proto.ErrCodeNotReplica:
			return fmt.Errorf("%w: %w", ErrNotReplica, rerr)
		case proto.ErrCodeQuota:
			return fmt.Errorf("%w: %w", ErrQuota, rerr)
		}
		return rerr
	}
	if r.op != op|proto.FlagReply {
		return fmt.Errorf("client: reply opcode %s to request %s",
			proto.OpName(r.op), proto.OpName(op))
	}
	return nil
}

// noteEpoch records a stamped reply's checkpoint epoch, keeping the
// connection-local high-water mark monotonic.
func (c *Conn) noteEpoch(epoch uint64) {
	for {
		old := c.lastEpoch.Load()
		if epoch <= old || c.lastEpoch.CompareAndSwap(old, epoch) {
			return
		}
	}
}

// LastEpoch returns the highest checkpoint epoch stamped on any read
// reply this connection has seen. The epoch is NODE-LOCAL (checkpoints
// committed or installed since that process started), so it is only
// comparable between replies from the same node incarnation — which is
// exactly what read-your-writes needs: write to the primary,
// CHECKPOINT, then read from a replica until its stamp advances past
// the epoch it reported before the checkpoint.
func (c *Conn) LastEpoch() uint64 { return c.lastEpoch.Load() }

// Get returns the value stored for key and whether it exists.
func (c *Conn) Get(key int64) (val int64, ok bool, err error) {
	val, _, ok, err = c.GetStamped(key)
	return val, ok, err
}

// GetStamped is Get plus the serving node's checkpoint epoch stamp —
// the bounded-staleness contract made visible. On a replica the stamp
// identifies exactly which installed checkpoint served the read.
//
// Like every point op, it builds its request payload in a stack array,
// so the call allocates nothing on its way out either.
func (c *Conn) GetStamped(key int64) (val int64, epoch uint64, ok bool, err error) {
	var b [8]byte
	r, err := c.call(proto.OpGet, proto.AppendKey(b[:0], key))
	if err != nil {
		return 0, 0, false, err
	}
	val, epoch, ok, err = proto.DecodeFound(r.reply)
	c.release(r)
	if err == nil {
		c.noteEpoch(epoch)
	}
	return val, epoch, ok, err
}

// Put upserts the value for key and reports whether the key was newly
// inserted.
func (c *Conn) Put(key, val int64) (inserted bool, err error) {
	var b [16]byte
	return c.callBool(proto.OpPut, proto.AppendKeyVal(b[:0], key, val))
}

// callBool is a call whose reply is a single flag.
func (c *Conn) callBool(op byte, payload []byte) (bool, error) {
	r, err := c.call(op, payload)
	if err != nil {
		return false, err
	}
	v, err := proto.DecodeBool(r.reply)
	c.release(r)
	return v, err
}

// PutTTL upserts the value for key with an ABSOLUTE expiry epoch (unix
// seconds; 0: never expires) and reports whether the key was newly
// inserted — counting a key whose previous entry had already expired as
// new. The server echoes the applied expiry back. A relative TTL is the
// caller's arithmetic (time.Now().Unix() + seconds): the wire
// deliberately carries only absolute state, never request timing.
func (c *Conn) PutTTL(key, val, exp int64) (inserted bool, err error) {
	var b [24]byte
	return c.putTTL(proto.OpPutTTL, proto.AppendKeyValExp(b[:0], key, val, exp), exp)
}

// putTTL is the expiring put of either op family (PUTTTL, NSPUT): the
// reply is the inserted flag and the applied expiry, which must echo
// exp.
func (c *Conn) putTTL(op byte, payload []byte, exp int64) (inserted bool, err error) {
	r, err := c.call(op, payload)
	if err != nil {
		return false, err
	}
	inserted, echoed, err := proto.DecodeTTLAck(r.reply)
	c.release(r)
	if err != nil {
		return false, err
	}
	if echoed != exp {
		return inserted, fmt.Errorf("client: %s echoed expiry %d, sent %d", proto.OpName(op), echoed, exp)
	}
	return inserted, nil
}

// GetTTL returns the value and recorded absolute expiry (0: none) for
// key, and whether the key is live. An entry whose expiry has passed
// reads as absent from the moment the epoch passes it.
func (c *Conn) GetTTL(key int64) (val, exp int64, ok bool, err error) {
	var b [8]byte
	return c.getTTL(proto.OpGetTTL, proto.AppendKey(b[:0], key))
}

// getTTL is the expiry-reporting get of either op family (GETTTL,
// NSGET).
func (c *Conn) getTTL(op byte, payload []byte) (val, exp int64, ok bool, err error) {
	r, err := c.call(op, payload)
	if err != nil {
		return 0, 0, false, err
	}
	val, exp, epoch, ok, err := proto.DecodeFoundTTL(r.reply)
	c.release(r)
	if err == nil {
		c.noteEpoch(epoch)
	}
	return val, exp, ok, err
}

// Delete removes key and reports whether it was present.
func (c *Conn) Delete(key int64) (deleted bool, err error) {
	var b [8]byte
	return c.callBool(proto.OpDel, proto.AppendKey(b[:0], key))
}

// callU32 is a call whose reply is a 32-bit count.
func (c *Conn) callU32(op byte, payload []byte) (int, error) {
	r, err := c.call(op, payload)
	if err != nil {
		return 0, err
	}
	n, err := proto.DecodeU32(r.reply)
	c.release(r)
	return int(n), err
}

// PutBatch upserts every item in one request and returns the number of
// keys newly inserted. Duplicate keys apply in batch order.
func (c *Conn) PutBatch(items []Item) (inserted int, err error) {
	return c.callU32(proto.OpBatch, proto.AppendBatchPut(nil, items))
}

// GetBatch looks up every key in one request; values and presence
// flags align with keys. len(keys) must not exceed proto.MaxBatchGet
// (the reply-size cap, ~116k keys); split larger lookups.
func (c *Conn) GetBatch(keys []int64) (vals []int64, ok []bool, err error) {
	if len(keys) > proto.MaxBatchGet {
		return nil, nil, fmt.Errorf("client: batch-get of %d keys exceeds the %d-key reply cap",
			len(keys), proto.MaxBatchGet)
	}
	r, err := c.call(proto.OpBatch, proto.AppendBatchKeys(nil, proto.BatchGet, keys))
	if err != nil {
		return nil, nil, err
	}
	vals, ok, epoch, err := proto.DecodeBatchGetReply(r.reply)
	c.release(r)
	if err == nil {
		c.noteEpoch(epoch)
	}
	return vals, ok, err
}

// DeleteBatch removes every key in one request and returns the number
// that were present.
func (c *Conn) DeleteBatch(keys []int64) (deleted int, err error) {
	return c.callU32(proto.OpBatch, proto.AppendBatchKeys(nil, proto.BatchDel, keys))
}

// Range returns up to max items with lo <= key <= hi in ascending key
// order (max 0: the server's cap). more reports that the scan was
// truncated; resume with lo = last key + 1.
func (c *Conn) Range(lo, hi int64, max int) (items []Item, more bool, err error) {
	var b [20]byte
	r, err := c.call(proto.OpRange, proto.AppendRangeReq(b[:0], lo, hi, uint32(max)))
	if err != nil {
		return nil, false, err
	}
	items, epoch, more, err := proto.DecodeRangeReply(r.reply)
	c.release(r)
	if err == nil {
		c.noteEpoch(epoch)
	}
	return items, more, err
}

// Len returns the number of keys in the database.
func (c *Conn) Len() (int, error) {
	r, err := c.call(proto.OpLen, nil)
	if err != nil {
		return 0, err
	}
	n, epoch, err := proto.DecodeLenReply(r.reply)
	c.release(r)
	if err == nil {
		c.noteEpoch(epoch)
	}
	return int(n), err
}

// callU64 is a payload-free call whose reply is one counter.
func (c *Conn) callU64(op byte) (uint64, error) {
	r, err := c.call(op, nil)
	if err != nil {
		return 0, err
	}
	n, err := proto.DecodeU64(r.reply)
	c.release(r)
	return n, err
}

// Checkpoint commits a checkpoint and returns the server's total
// committed-checkpoint count. It is a durability barrier for this
// connection: every previously acknowledged operation is on disk when
// it returns.
func (c *Conn) Checkpoint() (uint64, error) { return c.callU64(proto.OpCheckpoint) }

// SyncChunk fetches up to maxLen bytes (0: the server's default),
// starting at offset, of the blob of the server's committed checkpoint
// whose SHA-256 is hash — the manifest itself (the hash Health reports)
// or an image file that manifest names — and appends them to dst,
// returning the extended slice; on error dst comes back as it was. more
// reports that the blob continues past the appended bytes. A hash the
// committed checkpoint does not (or no longer does) name fails with a
// RemoteError carrying proto.ErrCodeStale — start over from Health.
// Callers assembling a whole blob must verify its SHA-256 against the
// hash they asked for.
func (c *Conn) SyncChunk(dst []byte, hash [32]byte, offset uint64, maxLen int) (out []byte, more bool, err error) {
	var b [44]byte
	r, err := c.call(proto.OpSync, proto.AppendSyncReq(b[:0], hash, offset, uint32(maxLen)))
	if err != nil {
		return dst, false, err
	}
	data, more, err := proto.DecodeSyncChunk(r.reply)
	dst = append(dst, data...) // data aliases the record's buffer
	c.release(r)
	return dst, more, err
}

// Health fetches the server's role and checkpoint position: whether it
// is read-only, how many times the process has been promoted, its
// checkpoint epoch, and the SHA-256 of its committed manifest. The
// server answers without queueing behind writes, so Health stays
// responsive as a liveness probe even when the write path is backed
// up. Two nodes serving identical checkpoints report identical hashes.
func (c *Conn) Health() (Health, error) {
	r, err := c.call(proto.OpHealth, nil)
	if err != nil {
		return Health{}, err
	}
	h, err := proto.DecodeHealth(r.reply)
	c.release(r)
	if err == nil {
		c.noteEpoch(h.Epoch)
	}
	return h, err
}

// Promote asks a read replica to become the writable primary and
// returns the node's promotion count. A node that is already writable
// refuses with an error satisfying errors.Is(err, ErrNotReplica).
// Promotion is in-memory and wire-visible only; the caller is
// responsible for making sure the old primary is actually gone.
func (c *Conn) Promote() (uint64, error) { return c.callU64(proto.OpPromote) }

// Ping round-trips payload (may be nil) through the server.
func (c *Conn) Ping(payload []byte) error {
	r, err := c.call(proto.OpPing, payload)
	if err != nil {
		return err
	}
	n, same := len(r.reply), string(r.reply) == string(payload)
	c.release(r)
	if !same {
		return fmt.Errorf("client: ping echoed %d bytes, sent %d", n, len(payload))
	}
	return nil
}
