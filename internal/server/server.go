package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/expiry"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/trace"
)

// ErrServerClosed is returned by Serve and ListenAndServe after
// Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// Config tunes a Server. The zero value is production-ready defaults.
type Config struct {
	// MaxConns bounds concurrently served connections (0: 1024). A
	// connection over the limit receives an ErrCodeBusy error frame and
	// is closed.
	MaxConns int
	// ReadTimeout is the idle deadline: a connection that sends no
	// frame for this long is closed (0: 5 minutes; negative: none).
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply flush (0: 30 seconds; negative:
	// none). A peer that stops reading is disconnected rather than
	// allowed to pin server memory.
	WriteTimeout time.Duration
	// MaxRangeItems caps the items in one RANGE reply (0: 4096; always
	// clamped to proto.MaxRangeItems so the reply fits a frame). Longer
	// scans paginate: the reply's more flag tells the client to reissue
	// from its last key + 1.
	MaxRangeItems int
	// SweepInterval is the expiry sweeper's poll period (0: 1 second;
	// negative: no sweeper). The interval only bounds how soon after an
	// epoch transition the sweeper NOTICES it — sweeps themselves are
	// epoch-triggered (at most one per epoch, of exactly the entries
	// already dead at it), so poll frequency never reaches the disk
	// state. Replicas sweep nothing (see sweepOnceNow).
	SweepInterval time.Duration
	// Metrics registers the server's metric set — per-opcode latency
	// histograms, phase timings (decode → coalesce-wait → apply →
	// encode → flush), and counter mirrors — on the given registry,
	// scraped via its /metrics handler. nil: the same recording happens
	// into unregistered instances (the hot path never branches on
	// observability) and is exposed nowhere.
	Metrics *obs.Registry
	// SlowOpThreshold enables the sampled slow-op structured log:
	// operations whose total latency reaches the threshold are recorded
	// to SlowOpLog, rate-limited per second (0: disabled). The record
	// format is forensically clean by construction — opcode, sizes,
	// shard index, durations, request id; never key or value bytes. See
	// internal/obs.SlowOp and docs/OBSERVABILITY.md.
	SlowOpThreshold time.Duration
	// SlowOpLog receives slow-op records (nil: disabled).
	SlowOpLog io.Writer
	// NSQuota caps each tenant namespace's live key count (0: unlimited).
	// An NSPUT that would grow a tenant past the quota — upserts of
	// existing keys always pass — is refused with ErrCodeQuota. The check
	// is exact: it runs on the coalescer goroutine, serialized with every
	// other namespaced write.
	NSQuota int
	// Trace is the span store request traces are recorded into (nil:
	// tracing off). Which requests are kept is one rule, stated at
	// conn.finish and in docs/OBSERVABILITY.md; kept server spans carry
	// the client's trace id so /debug/traces stitches the cross-node
	// tree.
	Trace *trace.Store
}

func (c Config) withDefaults() Config {
	// Sizes get their defaults for any non-positive value (a negative
	// size would panic make(chan)); only the timeouts use negative to
	// mean "none".
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.MaxRangeItems <= 0 {
		c.MaxRangeItems = 4096
	}
	// The protocol bound keeps every RANGE reply under the frame payload
	// cap; a larger configured value could emit frames no client can read.
	c.MaxRangeItems = min(c.MaxRangeItems, proto.MaxRangeItems)
	if c.SweepInterval == 0 {
		c.SweepInterval = time.Second
	}
	return c
}

// Server serves the hidbd wire protocol over a durable.DB. Create one
// with New, start it with Serve or ListenAndServe (or hand it raw
// connections via ServeConn), and stop it with Shutdown (graceful,
// final checkpoint) or Close (severed connections, no checkpoint). The
// Server does not own the DB: closing the DB is the caller's job, after
// the server has stopped.
//
// The node's role is the DB's (durable.DB.Replica), read where it
// matters and kept nowhere else: over a replica, PUT, DEL, mutating
// BATCH kinds and CHECKPOINT are answered with ErrCodeReadOnly (the
// connection stays open — reads continue) while HEALTH/SYNC still serve
// the node's own last installed checkpoint, so replicas can chain off
// replicas; PROMOTE is DB.Promote, and the next request sees a primary.
type Server struct {
	db   *durable.DB
	cfg  Config
	st   stats
	sm   *serverMetrics
	slow *obs.SlowLog
	bat  *batcher

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	sem       chan struct{}

	closing atomic.Bool    // draining: reject new work (set under mu)
	batOnce sync.Once      // starts the coalescer on first use
	wg      sync.WaitGroup // live connection handlers (Add under mu)

	start time.Time // for the uptime stat

	// sweep schedules the epoch-triggered expiry sweeps the coalescer
	// goroutine runs between drains (see sweepOnceNow).
	sweep *expiry.Schedule
}

// New returns an unstarted server over db.
func New(db *durable.DB, cfg Config) *Server {
	c := cfg.withDefaults()
	s := &Server{
		db:        db,
		cfg:       c,
		listeners: map[net.Listener]struct{}{},
		conns:     map[*conn]struct{}{},
		sem:       make(chan struct{}, c.MaxConns),
		start:     time.Now(),
		sweep:     expiry.NewSchedule(db.Clock()),
	}
	s.sm = newServerMetrics(c.Metrics)
	s.slow = obs.NewSlowLog(c.SlowOpLog, c.SlowOpThreshold, c.Metrics)
	if c.Metrics != nil {
		registerServerFuncs(c.Metrics, s)
	}
	s.bat = newBatcher(s)
	// Synchronous barriers (CHECKPOINT, DROPNS) thread their trace into
	// the durable layer so checkpoint/sweep spans join the requesting
	// trace; background checkpoints mint their own.
	db.SetTrace(c.Trace)
	return s
}

// startBatcher launches the coalescer goroutine exactly once.
func (s *Server) startBatcher() {
	s.batOnce.Do(func() { go s.bat.run() })
}

// sweepOnceNow runs one epoch-triggered sweep if one is due: every
// entry already dead at the current epoch, in every keyspace, is
// removed by DB.SweepExpired — the same sweep a checkpoint runs before
// rendering. The coalescer calls it on a Config.SweepInterval tick,
// which only bounds reaction latency: what gets removed is a pure
// function of (contents, epoch). The tick runs on replicas too (so a
// promotion arms nothing), but a replica's dead entries leave when the
// primary's swept checkpoint ships.
func (s *Server) sweepOnceNow() {
	if s.db.Replica() {
		// BEFORE Due(), so epochs that pass on a replica stay pending: the
		// first sweep after a promotion covers everything dead then.
		return
	}
	epoch, due := s.sweep.Due()
	if !due {
		return
	}
	if s.db.SweepExpired(epoch) > 0 {
		s.st.sweeps.Add(1)
	}
	s.sweep.MarkDone(epoch)
}

// ListenAndServe listens on addr ("host:port") and serves until
// Shutdown or Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown or Close, then returns
// ErrServerClosed. Multiple Serve calls on different listeners may run
// concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	s.startBatcher()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return ErrServerClosed
			}
			return err
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.st.connsRejected.Add(1)
			s.refuse(nc, proto.ErrCodeBusy, "connection limit reached")
			continue
		}
		if !s.admit(nc) {
			<-s.sem
			continue
		}
		go func() {
			defer func() { <-s.sem }()
			s.handle(nc)
		}()
	}
}

// admit reserves a handler slot in the connection WaitGroup, or refuses
// the connection if the server is draining. The check and the Add
// happen under mu — the same lock stop() holds while setting closing —
// so an Add can never race a Shutdown that already started Wait
// (sync.WaitGroup forbids Add concurrent with a Wait at zero).
func (s *Server) admit(nc net.Conn) bool {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		s.refuse(nc, proto.ErrCodeShutdown, "server is shutting down")
		return false
	}
	s.wg.Add(1)
	s.mu.Unlock()
	return true
}

// ServeConn serves a single pre-established connection (net.Pipe in
// tests, a socketpair, an accepted TLS conn, ...) to completion. It
// counts against MaxConns only in the sense of sharing the batcher and
// stats; the semaphore governs Serve's accepts.
func (s *Server) ServeConn(nc net.Conn) {
	if !s.admit(nc) {
		return
	}
	s.startBatcher()
	go s.handle(nc)
}

// refuse sends one error frame (best effort, bounded) and closes.
func (s *Server) refuse(nc net.Conn, code byte, msg string) {
	go func() {
		nc.SetWriteDeadline(time.Now().Add(time.Second))
		nc.Write(proto.AppendFrame(nil, proto.Frame{
			Ver: proto.Version, Op: proto.OpError, Payload: proto.AppendError(nil, code, msg)}))
		nc.Close()
	}()
}

// Shutdown gracefully stops the server: it closes the listeners, wakes
// idle readers, lets in-flight requests finish and their replies flush,
// stops the write coalescer, and commits a final checkpoint. If ctx
// expires first, remaining connections are severed (their unapplied
// requests are dropped; the checkpoint still runs). Shutdown returns
// the checkpoint's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stop(false)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		s.severConns()
		<-done
	}
	s.bat.close()
	return s.db.Checkpoint()
}

// Close force-stops the server: listeners closed, connections severed,
// no final checkpoint — the on-disk state stays at the last commit,
// exactly as if the process had been killed. It never blocks on peers.
func (s *Server) Close() {
	s.stop(true)
	s.wg.Wait()
	s.bat.close()
}

// stop closes listeners and either wakes (graceful) or severs (force)
// the live connections. Safe to repeat.
func (s *Server) stop(force bool) {
	// closing is set under mu so it cannot interleave with admit():
	// after this critical section, no new handler can join the
	// WaitGroup that Shutdown/Close is about to Wait on.
	s.mu.Lock()
	s.closing.Store(true)
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()
	// Ensure the coalescer goroutine exists: bat.close() waits for it
	// to exit, even if the server never served a connection.
	s.startBatcher()
	if force {
		s.severConns()
	} else {
		s.mu.Lock()
		for c := range s.conns {
			// Expire the blocked read; the reader drains its buffered
			// frames and exits cleanly, flushing pending replies.
			c.nc.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
	}
}

func (s *Server) severConns() {
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
}

// maxReplyQueue bounds the per-connection outbound queue in frames. A
// healthy peer's queue is bounded by its pipeline depth; a peer that
// pipelines past this without reading replies is disconnected rather
// than allowed to grow server memory.
const maxReplyQueue = 1 << 14

// conn is one served connection.
type conn struct {
	srv *Server
	nc  net.Conn

	// Outbound replies, pre-encoded. sendFrame never blocks — it
	// appends the encoded frame to out under qmu and signals qsig — so
	// the server-wide write coalescer can never be stalled by one slow
	// connection (it just disconnects a peer whose queue passes
	// maxReplyQueue frames). The writer swaps out for its spare buffer
	// and writes the whole burst with one syscall; the two buffers
	// alternate, so a steady pipeline allocates nothing. qdone marks
	// end-of-stream: the reader finished (flush what remains) or the
	// conn died (discard).
	qmu   sync.Mutex
	out   []byte // encoded frames awaiting the writer
	nq    int    // frames currently in out
	qdone bool
	qsig  chan struct{} // capacity 1: wake the writer

	closeOnce sync.Once
	// pending counts writes handed to the coalescer and not yet
	// replied. Only the reader goroutine Adds, so Wait in the reader is
	// race-free; reads and barriers Wait to preserve program order.
	pending sync.WaitGroup

	// Reader-goroutine scratch, reused across requests. Reply payloads
	// are built in pscratch and copied into out by sendFrame before the
	// call returns, so reuse is safe; rangeBuf holds RANGE windows the
	// same way. Only the reader goroutine touches either.
	pscratch []byte
	rangeBuf []proto.Item
	// blob is the committed blob this connection's SYNC stream reads,
	// open from the stream's first chunk to its last: each chunk is one
	// ReadAt straight into pscratch, so a fetch costs one open and one
	// verification per blob, and no copy of it is held between requests.
	// nil: no stream. Reader goroutine only.
	blob *durable.BlobReader

	// The trace identity awaiting the next flush, set under qmu by
	// whichever goroutine finishes a kept request and consumed by the
	// writer after its Write returns. A flush carries many replies;
	// attribution goes to the last kept request — approximate by design,
	// like the flush phase histogram itself.
	flushTID uint64
	flushSID uint64
}

func (c *conn) close() {
	c.closeOnce.Do(func() {
		c.nc.Close()
		c.markDone()
	})
}

// markDone ends the outbound stream and wakes the writer.
func (c *conn) markDone() {
	c.qmu.Lock()
	c.qdone = true
	c.qmu.Unlock()
	select {
	case c.qsig <- struct{}{}:
	default:
	}
}

// sendFrame encodes rq's reply straight into the outbound buffer without
// ever blocking the caller. The payload is copied before sendFrame
// returns, so callers may reuse their payload scratch immediately.
// Replies after end-of-stream are dropped; a peer whose queue is full
// (it stopped reading) is disconnected. The reply echoes the request's
// trace context, and a record whose span ids are already minted arms the
// flush attribution in the same critical section that queues the reply,
// so the flush that carries this frame cannot run before it is armed.
func (c *conn) sendFrame(op byte, rq *request, payload []byte) {
	c.qmu.Lock()
	if c.qdone {
		c.qmu.Unlock()
		return
	}
	if c.nq >= maxReplyQueue {
		c.qmu.Unlock()
		c.close()
		return
	}
	c.out = proto.AppendFrame(c.out, proto.Frame{Ver: proto.Version, Op: op, ID: rq.id, Payload: payload, Trace: rq.tc})
	c.nq++
	if rq.sid != 0 {
		c.flushTID, c.flushSID = rq.tid, rq.sid
	}
	c.qmu.Unlock()
	select {
	case c.qsig <- struct{}{}:
	default:
	}
}

// handle runs one connection to completion: a writer goroutine plus the
// read-dispatch loop on this goroutine. Must be preceded by wg.Add(1).
func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{
		srv:  s,
		nc:   nc,
		qsig: make(chan struct{}, 1),
	}
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	if s.closing.Load() {
		// Shutdown may have poked the registered conns just before this
		// one registered; make sure it cannot sit in a blocked read.
		nc.SetReadDeadline(time.Now())
	}
	s.st.connsAccepted.Add(1)
	s.st.connsActive.Add(1)

	var writerDone sync.WaitGroup
	writerDone.Add(1)
	go func() {
		defer writerDone.Done()
		c.writeLoop()
	}()

	c.readLoop()

	// The reader is done submitting. Wait for the coalescer to answer
	// every in-flight write, end the reply stream so the writer flushes
	// and exits, then tear the connection down.
	c.pending.Wait()
	c.markDone()
	writerDone.Wait()
	c.close()
	c.dropBlob()

	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.st.connsActive.Add(-1)
}

// writeLoop serializes replies: swap the whole pending byte buffer for
// a spare, write it with one syscall, repeat — so a burst of pipelined
// replies costs one Write and zero per-frame work (frames were encoded
// by sendFrame as they were queued). The two buffers alternate forever,
// so a steady pipeline stops allocating once both have grown to the
// burst size. After a write error the connection is closed and later
// replies are discarded; senders never block either way.
func (c *conn) writeLoop() {
	var spare []byte
	failed := false
	wt := c.srv.cfg.WriteTimeout
	for {
		c.qmu.Lock()
		batch := c.out
		c.out = spare[:0]
		c.nq = 0
		done := c.qdone
		c.qmu.Unlock()
		spare = batch

		if len(batch) > 0 && !failed {
			if wt > 0 {
				c.nc.SetWriteDeadline(time.Now().Add(wt))
			}
			c.srv.st.bytesOut.Add(uint64(len(batch)))
			t0 := time.Now()
			if _, err := c.nc.Write(batch); err != nil {
				failed = true
				c.close()
			}
			c.srv.sm.phaseFlush.ObserveSince(t0)
			c.srv.sm.flushBytes.Observe(int64(len(batch)))
			if tr := c.srv.cfg.Trace; tr != nil {
				c.qmu.Lock()
				tid, sid := c.flushTID, c.flushSID
				c.flushTID, c.flushSID = 0, 0
				c.qmu.Unlock()
				if tid != 0 {
					tr.Record(trace.Span{
						Trace: tid, ID: tr.NewID(), Parent: sid,
						Start: t0.UnixNano(), Dur: int64(time.Since(t0)),
						Kind: trace.KindFlush, Shard: -1, Out: int32(len(batch)),
					})
				}
			}
		}
		if done {
			c.qmu.Lock()
			empty := len(c.out) == 0
			c.qmu.Unlock()
			if empty {
				return
			}
			continue // drain what raced in with markDone
		}
		if len(batch) == 0 {
			<-c.qsig // sleep until there is work or end-of-stream
		}
	}
}

// readLoop decodes and dispatches frames until the peer goes away, the
// stream turns hostile, or shutdown expires the read deadline.
func (c *conn) readLoop() {
	s := c.srv
	// FrameReader reuses one payload buffer across frames; dispatch
	// honors its aliasing contract by fully consuming (decoding or
	// copying) each payload before returning.
	fr := proto.NewFrameReader(bufio.NewReaderSize(c.nc, 64<<10), proto.MaxPayload)
	for {
		if s.closing.Load() {
			// Draining: stop accepting new frames. Without this check a
			// busy pipeliner would overwrite Shutdown's deadline poke
			// below and keep the server "draining" until the force
			// timeout. In-flight writes still get their replies flushed
			// by the teardown in handle.
			return
		}
		if s.cfg.ReadTimeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		f, err := fr.Next()
		if err != nil {
			// Framing violations get a parting error frame; EOF and
			// deadline expiry are normal ends. Either way the stream
			// cannot be resynchronized, so the connection ends. No
			// request was parsed, so nothing is timed or traced.
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!isTimeout(err) && !errors.Is(err, net.ErrClosed) {
				code := byte(proto.ErrCodeBadFrame)
				if errors.Is(err, proto.ErrFrameTooLarge) {
					code = proto.ErrCodeTooLarge
				}
				s.st.errors.Add(1)
				c.sendFrame(proto.OpError, &request{}, proto.AppendError(nil, code, err.Error()))
			}
			return
		}
		// Receipt: phase timing starts here.
		rq := request{op: f.Op, id: f.ID, tc: f.Trace, in: len(f.Payload), t0: time.Now()}
		// Bytes on the wire: header, the extlen byte, extension, payload.
		wire := proto.HeaderSize + 1 + len(f.Payload)
		if f.Trace.ID != 0 {
			wire += proto.TraceExtLen
		}
		s.st.bytesIn.Add(uint64(wire))
		s.st.requests.Add(1)
		if f.Ver != proto.Version {
			c.fail(&rq, proto.ErrCodeVersion,
				fmt.Sprintf("protocol version %d, server speaks %d", f.Ver, proto.Version))
			return
		}
		c.dispatch(rq, f.Payload)
		if cap(c.pscratch) > 64<<10 && len(c.pscratch) <= 64<<10 && f.Op != proto.OpSync {
			// A jumbo batch, range or sync reply grew the scratch. It
			// stays while replies keep needing it — a SYNC stream reuses
			// it chunk after chunk, and a fetcher's next blob follows the
			// short last chunk of the one before — and goes with the first
			// other reply that does not, so it is not pinned for the
			// connection's lifetime.
			c.pscratch = nil
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// dispatch executes one request: look up the opcode's row, refuse a
// mutation on a replica, count, decode, then either hand the record to
// the write coalescer — which owns its wait/apply/encode phases and its
// reply — or wait out the connection's in-flight writes (barrier ops)
// and serve it here. Every path ends in finish. Malformed payloads get
// an error reply and the stream continues, since framing is still
// intact. p may alias the FrameReader's buffer and is dead once dispatch
// returns.
func (c *conn) dispatch(rq request, p []byte) {
	s := c.srv
	spec := opTable[rq.op]
	if spec == nil {
		c.fail(&rq, proto.ErrCodeUnknownOp, proto.OpName(rq.op))
		return
	}
	if s.db.Replica() && mutates(rq.op, p) {
		s.st.readOnlyRejected.Add(1)
		c.fail(&rq, proto.ErrCodeReadOnly,
			fmt.Sprintf("%s: this node is a read replica; send writes to the primary", proto.OpName(rq.op)))
		return
	}
	s.st.byClass[spec.class].Add(1)
	if spec.tenant {
		s.st.nsOps.Add(1)
	}
	if spec.decode != nil {
		ns, key, val, exp, err := spec.decode(p)
		if err != nil {
			c.fail(&rq, proto.ErrCodeBadFrame, err.Error())
			return
		}
		rq.key, rq.val, rq.exp = key, val, exp
		if len(ns) > 0 {
			rq.ns = s.db.InternNS(ns)
		}
	}
	rq.td = time.Now()
	if spec.premint && s.cfg.Trace != nil {
		rq.tid, rq.sid = mintSpan(s.cfg.Trace, rq.tc)
	}
	if spec.coalesced {
		c.pending.Add(1)
		rq.c = c
		s.bat.ch <- rq // blocks when the queue is full: backpressure, not unbounded buffering
		return
	}
	if spec.barrier {
		c.pending.Wait()
	}
	tw := time.Now()
	payload, ta, errCode := spec.serve(c, rq, p, c.pscratch[:0])
	if errCode == 0 {
		c.pscratch = payload
	}
	c.finish(&rq, payload, errCode, 0, tw, ta)
}

// fail finishes a request refused before it was served; its remaining
// phase boundaries collapse to now.
func (c *conn) fail(rq *request, code byte, msg string) {
	payload, now, _ := refuse(code, msg)
	rq.td = now
	c.finish(rq, payload, code, 0, now, now)
}
