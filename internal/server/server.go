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
	// MaxPayload caps accepted frame payloads (0: proto.MaxPayload).
	MaxPayload int
	// MaxRangeItems caps the items in one RANGE reply (0: 4096; always
	// clamped to proto.MaxRangeItems so the reply fits a frame). Longer
	// scans paginate: the reply's more flag tells the client to reissue
	// from its last key + 1.
	MaxRangeItems int
	// WriteQueue is the coalescer's queue depth in operations
	// (0: 4096); submitters block when it is full.
	WriteQueue int
	// MaxWriteBatch caps one coalesced ApplyBatch (0: 4096).
	MaxWriteBatch int
	// ReadOnly makes this a read replica: PUT, DEL, mutating BATCH
	// kinds, and CHECKPOINT are answered with ErrCodeReadOnly (the
	// connection stays open — reads continue). SHARDHASH/SYNC still
	// serve the node's own last installed checkpoint, so replicas can
	// chain off replicas. Promote lifts the restriction at runtime.
	ReadOnly bool
	// OnPromote, if set, runs inside Promote BEFORE writes are accepted.
	// A replica wires its anti-entropy shutdown here: the callback must
	// not return until no further checkpoint install can land, or a
	// stale install could clobber post-promotion writes.
	OnPromote func()
	// PromoteBackground makes Promote start the DB's background
	// checkpointer (replicas open their DB with NoBackground — installs,
	// not local checkpoints, keep the directory current — so a promoted
	// primary needs the checkpointer brought up).
	PromoteBackground bool
	// MaxSyncChunk caps the image bytes in one SYNC reply (0: 256 KiB;
	// always clamped to proto.MaxSyncChunk so the reply fits a frame).
	MaxSyncChunk int
	// SweepInterval is the expiry sweeper's poll period (0: 1 second;
	// negative: no sweeper). The interval only bounds how soon after an
	// epoch transition the sweeper NOTICES it — sweeps themselves are
	// epoch-triggered (at most one per epoch, of exactly the entries
	// already dead at it), so poll frequency never reaches the disk
	// state. Read-only replicas never run a sweeper: their dead entries
	// leave when the primary's swept checkpoint ships.
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
	// tracing off, and every trace branch below reduces to one nil
	// check). A request is KEPT — its span tree recorded — when the
	// client head-sampled it (trace-context sampled flag), when the
	// server head-samples it (the store's rate; only requests arriving
	// with no trace context, so a tracing client's sampling decision is
	// never second-guessed), when it crosses the slow-op threshold, or
	// when it ends in a protocol error; everything else records
	// nothing. Kept server spans carry the client's trace id so
	// /debug/traces stitches the cross-node tree. See internal/trace
	// and docs/OBSERVABILITY.md.
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
	if c.MaxPayload <= 0 || c.MaxPayload > proto.MaxPayload {
		c.MaxPayload = proto.MaxPayload
	}
	if c.MaxRangeItems <= 0 || c.MaxRangeItems > proto.MaxRangeItems {
		// The protocol bound keeps every RANGE reply under the frame
		// payload cap; a larger configured value could emit frames no
		// client can read.
		if c.MaxRangeItems > proto.MaxRangeItems {
			c.MaxRangeItems = proto.MaxRangeItems
		} else {
			c.MaxRangeItems = 4096
		}
	}
	if c.WriteQueue <= 0 {
		c.WriteQueue = 4096
	}
	if c.MaxWriteBatch <= 0 {
		c.MaxWriteBatch = 4096
	}
	if c.MaxSyncChunk <= 0 {
		c.MaxSyncChunk = 256 << 10
	} else if c.MaxSyncChunk > proto.MaxSyncChunk {
		c.MaxSyncChunk = proto.MaxSyncChunk
	}
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
type Server struct {
	db   *durable.DB
	cfg  Config
	st   stats
	sm   *serverMetrics
	slow *obs.SlowLog
	bat  *batcher
	tr   *trace.Store // nil: tracing off

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	sem       chan struct{}

	closing atomic.Bool    // draining: reject new work (set under mu)
	batOnce sync.Once      // starts the coalescer (and sweeper) on first use
	wg      sync.WaitGroup // live connection handlers (Add under mu)

	// readOnly is Config.ReadOnly made switchable at runtime; Promote
	// clears it, Demote sets it. promoteMu serializes role changes so
	// the refuse-on-already-writable check and the flip are atomic.
	readOnly   atomic.Bool
	promotions atomic.Uint64
	promoteMu  sync.Mutex

	start time.Time // for the uptime stat

	// Expiry sweeper: an epoch-triggered loop that feeds conditional
	// expire-deletes through the write coalescer. sweepDone is non-nil
	// exactly when the goroutine was started (under batOnce).
	sweep     *expiry.Schedule
	sweepStop chan struct{}
	sweepOnce sync.Once
	sweepDone chan struct{}

	// One-entry cache of the last shard image served to a SYNC fetch,
	// so a replica pulling an image chunk by chunk costs one disk read,
	// not one per chunk. Content-addressed (and namespace-qualified:
	// syncNS is "" for the default keyspace), so it can never serve the
	// wrong bytes — at worst it misses.
	syncMu    sync.Mutex
	syncNS    string
	syncIdx   int
	syncHash  [32]byte
	syncImage []byte
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
		sweepStop: make(chan struct{}),
	}
	s.readOnly.Store(c.ReadOnly)
	s.tr = c.Trace
	s.sm = newServerMetrics(c.Metrics)
	s.slow = obs.NewSlowLog(c.SlowOpLog, c.SlowOpThreshold, c.Metrics)
	if c.Metrics != nil {
		registerServerFuncs(c.Metrics, s)
	}
	s.bat = newBatcher(db, &s.st, s.sm, s.slow, c.WriteQueue, c.MaxWriteBatch, c.NSQuota)
	s.bat.tr = c.Trace
	if c.Trace != nil {
		// Synchronous barriers (CHECKPOINT, DROPNS) thread their trace
		// into the durable layer so checkpoint/sweep spans join the
		// requesting trace; background checkpoints mint their own.
		db.SetTrace(c.Trace)
	}
	return s
}

// startBatcher launches the coalescer — and the expiry sweeper that
// submits through it — exactly once. The sweeper runs on replicas too
// (so a later Promote needs no new goroutine, which would race
// shutdown) but sweepOnceNow is a no-op while the node is read-only.
func (s *Server) startBatcher() {
	s.batOnce.Do(func() {
		go s.bat.run()
		if s.cfg.SweepInterval > 0 {
			s.sweepDone = make(chan struct{})
			go s.sweepLoop()
		}
	})
}

// sweepLoop polls the sweep schedule. The ticker only bounds reaction
// latency; what gets removed is a pure function of (contents, epoch).
func (s *Server) sweepLoop() {
	defer close(s.sweepDone)
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-t.C:
		}
		s.sweepOnceNow()
	}
}

// sweepOnceNow runs one epoch-triggered sweep if one is due: list the
// keys already dead at the current epoch, in every keyspace, and push
// conditional expire-deletes through the write coalescer, so the
// physical removals serialize with the pipelined client writes they
// race — an expire op re-checks the entry's recorded expiry under the
// shard lock, so a key a client resurrects mid-sweep survives.
func (s *Server) sweepOnceNow() {
	if s.readOnly.Load() {
		// A replica's dead entries leave when the primary's swept
		// checkpoint ships. The role check comes BEFORE Due() so epochs
		// that pass while read-only stay pending: the first sweep after
		// a promotion covers everything dead at that moment.
		return
	}
	epoch, due := s.sweep.Due()
	if !due {
		return
	}
	n := 0
	s.db.ExpiredKeys(epoch, func(ns string, k int64) {
		s.bat.submit(writeReq{ns: ns, key: k, exp: epoch})
		n++
	})
	s.sweep.MarkDone(epoch)
	if n > 0 {
		s.st.sweeps.Add(1)
	}
}

// stopSweeper stops the sweep loop and waits for it to exit. It must
// run before the batcher closes — the loop submits into the batcher's
// queue.
func (s *Server) stopSweeper() {
	s.sweepOnce.Do(func() { close(s.sweepStop) })
	if s.sweepDone != nil {
		<-s.sweepDone
	}
}

// ErrNotReplica is returned by Promote on a node that is already
// writable — a double promotion, or a PROMOTE aimed at the primary.
var ErrNotReplica = errors.New("server: node is already writable")

// Promote lifts a read replica into a writable primary and returns the
// node's promotion count. The sequence is load-bearing: first
// Config.OnPromote quiesces anti-entropy (no checkpoint install may
// land after this returns), then the DB re-enables sweeping (and the
// background checkpointer if Config.PromoteBackground), and only then
// is ReadOnly lifted — so no accepted write can ever be clobbered by a
// stale install. The sweeper, already polling, begins sweeping on its
// next tick. Promotion state lives in memory and on the wire only;
// nothing about the role change is persisted.
func (s *Server) Promote() (uint64, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if !s.readOnly.Load() {
		return s.promotions.Load(), ErrNotReplica
	}
	if s.cfg.OnPromote != nil {
		s.cfg.OnPromote()
	}
	s.db.Promote(s.cfg.PromoteBackground)
	s.readOnly.Store(false)
	return s.promotions.Add(1), nil
}

// Demote returns a writable node to read-replica duty (the rejoin
// path: an old primary that crashed and recovered demotes itself
// before syncing off the new primary). Writes in the coalescer queue
// at the flip still apply — demotion is a role change, not a barrier;
// callers quiesce their own clients first.
func (s *Server) Demote() error {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.readOnly.Load() {
		return errors.New("server: node is already read-only")
	}
	s.db.Demote()
	s.readOnly.Store(true)
	return nil
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
	s.stopSweeper()
	s.bat.close()
	return s.db.Checkpoint()
}

// Close force-stops the server: listeners closed, connections severed,
// no final checkpoint — the on-disk state stays at the last commit,
// exactly as if the process had been killed. It never blocks on peers.
func (s *Server) Close() {
	s.stop(true)
	s.wg.Wait()
	s.stopSweeper()
	s.bat.close()
}

// stop closes listeners and either wakes (graceful) or severs (force)
// the live connections. Idempotent via stopOnce for the listener part;
// conn poking is safe to repeat.
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

	// done closes when the connection is dead.
	done      chan struct{}
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

	// Per-request wire state, written by readLoop before dispatch and
	// read only on the reader goroutine: the frame's trace context.
	// Coalesced writes carry a copy in their writeReq instead — the
	// batcher goroutine must never read these fields. reqOp/reqT0 let
	// sendError record an error span for a traced request without
	// threading more parameters through every decode-failure path.
	reqT  proto.TraceCtx
	reqOp byte
	reqT0 time.Time

	// A span identity preminted before an inline apply, for ops that
	// must hand their trace to a lower layer mid-flight (CHECKPOINT
	// threads it into durable so the checkpoint span can parent here).
	// replyInline consumes it: nonzero preSID means "this request is
	// kept, under exactly these ids". Reader-goroutine only.
	preTID uint64
	preSID uint64

	// The trace identity awaiting the next flush, set under qmu by
	// whichever goroutine keeps a span tree (reader or batcher) — by
	// sendFrame together with the reply when the keep was decided before
	// the send, by noteFlushTrace otherwise — and consumed by the writer
	// after its Write returns. A flush carries many replies; attribution
	// goes to the last kept request — approximate by design, like the
	// flush phase histogram itself.
	flushTID uint64
	flushSID uint64
}

func (c *conn) close() {
	c.closeOnce.Do(func() {
		close(c.done)
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

// sendFrame encodes a reply straight into the outbound buffer without
// ever blocking the caller. The payload is copied before sendFrame
// returns, so callers may reuse their payload scratch immediately.
// Replies after end-of-stream are dropped; a peer whose queue is full
// (it stopped reading) is disconnected.
//
// tc is the request's trace context, passed explicitly because
// sendFrame runs on both the reader goroutine (inline ops) and the
// coalescer goroutine (batched writes) — per-conn "current request"
// fields would race. The reply echoes it so the client can confirm the
// server saw its ids.
//
// ftid/fsid nonzero are the span identity of a request whose trace is
// already known to be kept: they arm the flush attribution in the same
// critical section that queues the reply, so the flush that carries
// this frame cannot run before it is armed.
func (c *conn) sendFrame(op byte, id uint64, payload []byte, tc proto.TraceCtx, ftid, fsid uint64) {
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
	c.out = proto.AppendFrame(c.out, proto.Frame{Ver: proto.Version, Op: op, ID: id, Payload: payload, Trace: tc})
	c.nq++
	if fsid != 0 {
		c.flushTID, c.flushSID = ftid, fsid
	}
	c.qmu.Unlock()
	select {
	case c.qsig <- struct{}{}:
	default:
	}
}

// noteFlushTrace arms the flush attribution after the reply was queued:
// the path of a request kept only because it turned out slow, which is
// known only once the reply is on its way. The writer may already have
// flushed that reply, in which case the attribution lands on the
// connection's next flush or none — a slow-kept trace may lack its
// flush span.
func (c *conn) noteFlushTrace(tid, sid uint64) {
	c.qmu.Lock()
	c.flushTID, c.flushSID = tid, sid
	c.qmu.Unlock()
}

// handle runs one connection to completion: a writer goroutine plus the
// read-dispatch loop on this goroutine. Must be preceded by wg.Add(1).
func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{
		srv:  s,
		nc:   nc,
		qsig: make(chan struct{}, 1),
		done: make(chan struct{}),
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
			if tr := c.srv.tr; tr != nil {
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
	fr := proto.NewFrameReader(bufio.NewReaderSize(c.nc, 64<<10), s.cfg.MaxPayload)
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
			// cannot be resynchronized, so the connection ends. The
			// stale per-request trace context is cleared first so the
			// parting error is not misattributed to the previous
			// request's trace.
			c.reqT = proto.TraceCtx{}
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!isTimeout(err) && !errors.Is(err, net.ErrClosed) {
				code := byte(proto.ErrCodeBadFrame)
				if errors.Is(err, proto.ErrFrameTooLarge) {
					code = proto.ErrCodeTooLarge
				}
				c.sendError(0, code, err.Error())
			}
			return
		}
		t0 := time.Now() // receipt: phase timing starts here
		// Bytes on the wire: header, the extlen byte, extension, payload.
		wire := proto.HeaderSize + 1 + len(f.Payload)
		if f.Trace.ID != 0 {
			wire += proto.TraceExtLen
		}
		s.st.bytesIn.Add(uint64(wire))
		s.st.requests.Add(1)
		c.reqT, c.reqOp, c.reqT0 = f.Trace, f.Op, t0
		if f.Ver != proto.Version {
			c.sendError(f.ID, proto.ErrCodeVersion,
				fmt.Sprintf("protocol version %d, server speaks %d", f.Ver, proto.Version))
			return
		}
		c.pscratch = c.pscratch[:0]
		if !c.dispatch(f, t0) {
			return
		}
		if cap(c.pscratch) > 64<<10 && len(c.pscratch) <= 64<<10 {
			// A jumbo batch, range or sync reply grew the scratch. It
			// stays while replies keep needing it — a SYNC stream reuses
			// it chunk after chunk — and goes with the first reply that
			// does not, so it is not pinned for the connection's lifetime.
			c.pscratch = nil
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (c *conn) sendError(id uint64, code byte, msg string) {
	c.srv.st.errors.Add(1)
	// Errors are cold; building the payload fresh keeps pscratch free
	// for whatever reply construction the caller was in the middle of.
	c.sendFrame(proto.OpError, id, proto.AppendError(nil, code, msg), c.reqT, 0, 0)
	// Tail-keep on error: a request that arrived with a trace context
	// and failed keeps a server span carrying the error code, whatever
	// the sampling decision was. Only the reader goroutine calls
	// sendError, so reqOp/reqT0/reqT are safe to read. Framing errors
	// (no parsed request) cleared reqT and record nothing.
	if tr := c.srv.tr; tr != nil && c.reqT.ID != 0 {
		tr.Record(trace.Span{
			Trace: c.reqT.ID, ID: tr.NewID(), Parent: c.reqT.Span,
			Start: c.reqT0.UnixNano(), Dur: int64(time.Since(c.reqT0)),
			Kind: trace.KindServer, Op: c.reqOp, Err: code, Shard: -1,
		})
	}
}

// dispatch executes one request. It returns false when the connection
// must close (protocol violation so severe the stream is untrustworthy
// — currently nothing below qualifies; malformed payloads get an error
// reply and the stream continues, since framing is still intact).
//
// t0 is the frame's receipt time. Each inline-served case captures the
// phase boundaries (decode done / barrier-wait done / apply done) and
// hands them to replyInline; coalesced writes record their decode phase
// here and carry t0 into the batcher, which owns their wait/apply/
// encode phases and total latency. Error paths are not timed — the
// errors counter covers them.
func (c *conn) dispatch(f proto.Frame, t0 time.Time) bool {
	s := c.srv
	if s.readOnly.Load() && mutates(f) {
		s.st.readOnlyRejected.Add(1)
		c.sendError(f.ID, proto.ErrCodeReadOnly,
			fmt.Sprintf("%s: this node is a read replica; send writes to the primary", proto.OpName(f.Op)))
		return true
	}
	switch f.Op {
	case proto.OpPut, proto.OpPutTTL, proto.OpDel, proto.OpNSPut, proto.OpNSDel, proto.OpDropNS:
		c.submitWrite(f, t0)

	case proto.OpGet, proto.OpGetTTL, proto.OpNSGet:
		ns, key, _, _, err := decodePoint(f)
		if err != nil {
			c.sendError(f.ID, proto.ErrCodeBadFrame, err.Error())
			return true
		}
		s.st.reads.Add(1)
		if f.Op == proto.OpNSGet {
			s.st.nsOps.Add(1)
		}
		td := time.Now()
		c.pending.Wait() // program order: reads see this conn's writes
		tw := time.Now()
		val, exp, ok := s.db.NSGetTTL(ns, key)
		ta := time.Now()
		if f.Op == proto.OpGet {
			c.pscratch = proto.AppendFound(c.pscratch[:0], ok, val, s.db.Checkpoints())
		} else {
			c.pscratch = proto.AppendFoundTTL(c.pscratch[:0], ok, val, exp, s.db.Checkpoints())
		}
		c.replyInline(f, c.pscratch, key, ns == "", t0, td, tw, ta)

	case proto.OpBatch:
		kind, items, keys, err := proto.DecodeBatch(f.Payload)
		if err != nil {
			c.sendError(f.ID, proto.ErrCodeBadFrame, err.Error())
			return true
		}
		td := time.Now()
		c.pending.Wait()
		tw := time.Now()
		switch kind {
		case proto.BatchPut:
			s.st.writes.Add(uint64(len(items)))
			n := s.db.PutBatch(items)
			ta := time.Now()
			c.pscratch = proto.AppendU32(c.pscratch[:0], uint32(n))
			c.replyInline(f, c.pscratch, 0, false, t0, td, tw, ta)
		case proto.BatchGet:
			if len(keys) > proto.MaxBatchGet {
				// The reply (9 bytes per key) would exceed the frame
				// payload cap even though the request fit under it.
				c.sendError(f.ID, proto.ErrCodeTooLarge,
					fmt.Sprintf("batch-get of %d keys exceeds the %d-key reply cap", len(keys), proto.MaxBatchGet))
				return true
			}
			s.st.reads.Add(uint64(len(keys)))
			vals, ok := s.db.GetBatch(keys)
			ta := time.Now()
			c.pscratch = proto.AppendBatchGetReply(c.pscratch[:0], vals, ok, s.db.Checkpoints())
			c.replyInline(f, c.pscratch, 0, false, t0, td, tw, ta)
		case proto.BatchDel:
			s.st.writes.Add(uint64(len(keys)))
			n := s.db.DeleteBatch(keys)
			ta := time.Now()
			c.pscratch = proto.AppendU32(c.pscratch[:0], uint32(n))
			c.replyInline(f, c.pscratch, 0, false, t0, td, tw, ta)
		}

	case proto.OpRange:
		lo, hi, max, err := proto.DecodeRangeReq(f.Payload)
		if err != nil {
			c.sendError(f.ID, proto.ErrCodeBadFrame, err.Error())
			return true
		}
		s.st.reads.Add(1)
		td := time.Now()
		c.pending.Wait()
		tw := time.Now()
		limit := s.cfg.MaxRangeItems
		if max > 0 && int(max) < limit {
			limit = int(max)
		}
		// RangeN bounds work and memory by the limit, not the window
		// size, so a whole-keyspace RANGE costs O(shards·limit).
		items, more := s.db.RangeN(lo, hi, limit, c.rangeBuf[:0])
		ta := time.Now()
		c.rangeBuf = items
		c.pscratch = proto.AppendRangeReply(c.pscratch[:0], items, more, s.db.Checkpoints())
		c.replyInline(f, c.pscratch, 0, false, t0, td, tw, ta)

	case proto.OpLen:
		s.st.reads.Add(1)
		td := time.Now()
		c.pending.Wait()
		tw := time.Now()
		n := uint64(s.db.Len())
		ta := time.Now()
		c.pscratch = proto.AppendLenReply(c.pscratch[:0], n, s.db.Checkpoints())
		c.replyInline(f, c.pscratch, 0, false, t0, td, tw, ta)

	case proto.OpCheckpoint:
		// A durability barrier: everything this connection has been
		// acknowledged for is on disk when the reply arrives. When
		// tracing, the span identity is minted up front (the barrier is
		// inherently slow — always kept) so the durable layer's
		// checkpoint/sweep spans can parent under this request's server
		// span; replyInline consumes the premint instead of re-deciding.
		var ptid, psid uint64
		if s.tr != nil {
			ptid, psid = mintSpan(s.tr, f.Trace)
			c.preTID, c.preSID = ptid, psid
		}
		td := time.Now()
		c.pending.Wait()
		tw := time.Now()
		if err := s.db.CheckpointTraced(ptid, psid); err != nil {
			c.preTID, c.preSID = 0, 0
			c.sendError(f.ID, proto.ErrCodeInternal, err.Error())
			return true
		}
		ta := time.Now() // apply phase = the checkpoint commit itself
		c.pscratch = proto.AppendU64(c.pscratch[:0], s.db.Checkpoints())
		c.replyInline(f, c.pscratch, 0, false, t0, td, tw, ta)

	case proto.OpPing:
		// f.Payload may alias the FrameReader's reused buffer; sendFrame
		// copies it into the outbound queue before returning, so the
		// echo is captured before the next frame overwrites it.
		tn := time.Now()
		c.replyInline(f, f.Payload, 0, false, t0, tn, tn, tn)

	case proto.OpHealth:
		// A liveness probe with a staleness report. Deliberately NO
		// pending.Wait: a health check must answer even when the write
		// path is backed up — failover decisions hinge on it.
		if len(f.Payload) != 0 {
			c.sendError(f.ID, proto.ErrCodeBadFrame, "health request carries a payload")
			return true
		}
		epoch, hash := s.db.CheckpointStamp()
		tn := time.Now()
		c.pscratch = proto.AppendHealth(c.pscratch[:0], proto.Health{
			ReadOnly:   s.readOnly.Load(),
			Promotions: s.promotions.Load(),
			Epoch:      epoch,
			Hash:       hash,
		})
		c.replyInline(f, c.pscratch, 0, false, t0, tn, tn, tn)

	case proto.OpPromote:
		if len(f.Payload) != 0 {
			c.sendError(f.ID, proto.ErrCodeBadFrame, "promote request carries a payload")
			return true
		}
		td := time.Now()
		n, err := s.Promote()
		if err != nil {
			c.sendError(f.ID, proto.ErrCodeNotReplica, err.Error())
			return true
		}
		ta := time.Now()
		c.pscratch = proto.AppendU64(c.pscratch[:0], n)
		c.replyInline(f, c.pscratch, 0, false, t0, td, td, ta)

	case proto.OpListNS:
		if len(f.Payload) != 0 {
			c.sendError(f.ID, proto.ErrCodeBadFrame, "list-namespaces request carries a payload")
			return true
		}
		s.st.reads.Add(1)
		s.st.nsOps.Add(1)
		td := time.Now()
		c.pending.Wait()
		tw := time.Now()
		nss := s.db.Namespaces()
		ta := time.Now()
		if len(nss) > proto.MaxListNS {
			c.sendError(f.ID, proto.ErrCodeTooLarge,
				fmt.Sprintf("%d namespaces exceed the %d-entry reply cap", len(nss), proto.MaxListNS))
			return true
		}
		out := make([]proto.NSStat, len(nss))
		for i, e := range nss {
			out[i] = proto.NSStat{Name: e.Name, Keys: uint64(e.Keys)}
		}
		payload := proto.AppendNSList(nil, uint64(s.cfg.NSQuota), out)
		if len(payload) > proto.MaxPayload {
			c.sendError(f.ID, proto.ErrCodeTooLarge, "namespace listing exceeds the frame payload cap")
			return true
		}
		c.replyInline(f, payload, 0, false, t0, td, tw, ta)

	case proto.OpShardHash:
		// Replication: advertise the last committed checkpoint's
		// canonical per-shard hashes. A barrier over this connection's
		// writes makes SHARDHASH-after-CHECKPOINT see that checkpoint.
		// An empty request addresses the default keyspace (the reply
		// appends the committed namespace-name table); a request carrying
		// nslen(2) ns addresses that tenant's cell.
		s.st.syncHashes.Add(1)
		var ns string
		if len(f.Payload) != 0 {
			var err error
			if ns, err = proto.DecodeNSName(f.Payload); err != nil {
				c.sendError(f.ID, proto.ErrCodeBadFrame, err.Error())
				return true
			}
		}
		td := time.Now()
		c.pending.Wait()
		tw := time.Now()
		hseed, entries, err := s.db.ShardHashes(ns)
		var names []string
		if err == nil && ns == "" {
			names, err = s.db.NSNames()
		}
		if err != nil {
			code := byte(proto.ErrCodeInternal)
			if errors.Is(err, durable.ErrNoNamespace) {
				code = proto.ErrCodeBadFrame
			}
			c.sendError(f.ID, code, err.Error())
			return true
		}
		ta := time.Now()
		if len(entries) > proto.MaxSyncShards {
			c.sendError(f.ID, proto.ErrCodeTooLarge,
				fmt.Sprintf("%d shards exceed the %d-shard reply cap", len(entries), proto.MaxSyncShards))
			return true
		}
		out := make([]proto.ShardHash, len(entries))
		for i, e := range entries {
			out[i] = proto.ShardHash{Size: e.Size, Hash: e.Hash}
		}
		payload := proto.AppendShardHashes(nil, hseed, out, names)
		if len(payload) > proto.MaxPayload {
			c.sendError(f.ID, proto.ErrCodeTooLarge, "shard-hash reply exceeds the frame payload cap")
			return true
		}
		c.replyInline(f, payload, 0, false, t0, td, tw, ta)

	case proto.OpSync:
		shardIdx, hash, off, maxLen, ns, err := proto.DecodeSyncReq(f.Payload)
		if err != nil {
			c.sendError(f.ID, proto.ErrCodeBadFrame, err.Error())
			return true
		}
		s.st.syncChunks.Add(1)
		td := time.Now()
		img, err := s.shardImage(ns, int(shardIdx), hash)
		switch {
		case errors.Is(err, durable.ErrStaleShard):
			c.sendError(f.ID, proto.ErrCodeStale, err.Error())
			return true
		case errors.Is(err, durable.ErrNoNamespace):
			c.sendError(f.ID, proto.ErrCodeBadFrame, err.Error())
			return true
		case err != nil:
			c.sendError(f.ID, proto.ErrCodeInternal, err.Error())
			return true
		}
		if off > uint64(len(img)) {
			c.sendError(f.ID, proto.ErrCodeBadFrame,
				fmt.Sprintf("offset %d past the %d-byte image", off, len(img)))
			return true
		}
		limit := s.cfg.MaxSyncChunk
		if maxLen > 0 && int(maxLen) < limit {
			limit = int(maxLen)
		}
		end := int(off) + limit
		if end > len(img) {
			end = len(img)
		}
		chunk := img[off:end]
		more := end < len(img)
		if !more {
			// The fetcher just took the image's last chunk; release the
			// cache rather than pin a whole shard image between syncs.
			s.syncMu.Lock()
			if s.syncNS == ns && s.syncIdx == int(shardIdx) && s.syncHash == hash {
				s.syncImage = nil
			}
			s.syncMu.Unlock()
		}
		s.st.syncBytesOut.Add(uint64(len(chunk)))
		ta := time.Now()
		c.pscratch = proto.AppendSyncChunk(c.pscratch[:0], more, chunk)
		c.replyInline(f, c.pscratch, 0, false, t0, td, td, ta)

	default:
		c.sendError(f.ID, proto.ErrCodeUnknownOp, proto.OpName(f.Op))
	}
	return true
}

// decodePoint decodes any point op's payload into the one shape they
// all share: a keyspace ("": the default one), a key, and — for the
// puts — a value and an absolute expiry (0: none). DROPNS carries only
// the keyspace.
func decodePoint(f proto.Frame) (ns string, key, val, exp int64, err error) {
	switch f.Op {
	case proto.OpPut:
		key, val, err = proto.DecodeKeyVal(f.Payload)
	case proto.OpPutTTL:
		key, val, exp, err = proto.DecodeKeyValExp(f.Payload)
	case proto.OpNSPut:
		ns, key, val, exp, err = proto.DecodeNSKeyValExp(f.Payload)
	case proto.OpNSGet, proto.OpNSDel:
		ns, key, err = proto.DecodeNSKey(f.Payload)
	case proto.OpDropNS:
		ns, err = proto.DecodeNSName(f.Payload)
	default: // GET, GETTTL, DEL
		key, err = proto.DecodeKey(f.Payload)
	}
	return ns, key, val, exp, err
}

// submitWrite decodes a point write or DROPNS and hands it to the
// coalescer, which owns its wait/apply/encode phases and its reply.
func (c *conn) submitWrite(f proto.Frame, t0 time.Time) {
	s := c.srv
	ns, key, val, exp, err := decodePoint(f)
	if err != nil {
		c.sendError(f.ID, proto.ErrCodeBadFrame, err.Error())
		return
	}
	s.st.writes.Add(1)
	if ns != "" {
		s.st.nsOps.Add(1)
	}
	td := time.Now()
	s.sm.phaseDecode.Observe(int64(td.Sub(t0)))
	c.pending.Add(1)
	s.bat.submit(writeReq{op: f.Op, ns: ns, key: key, val: val, exp: exp,
		id: f.ID, c: c, t0: t0, td: td, tc: f.Trace, in: len(f.Payload)})
}

// shardImage returns the committed image for (ns, idx, hash) through
// the one-entry sync cache; ns "" addresses the default keyspace.
func (s *Server) shardImage(ns string, idx int, hash [32]byte) ([]byte, error) {
	s.syncMu.Lock()
	if s.syncImage != nil && s.syncNS == ns && s.syncIdx == idx && s.syncHash == hash {
		img := s.syncImage
		s.syncMu.Unlock()
		return img, nil
	}
	s.syncMu.Unlock()
	img, err := s.db.ShardImage(ns, idx, hash)
	if err != nil {
		return nil, err
	}
	s.syncMu.Lock()
	s.syncNS, s.syncIdx, s.syncHash, s.syncImage = ns, idx, hash, img
	s.syncMu.Unlock()
	return img, nil
}

// mutates reports whether a request would change the database: the ops
// a read replica must refuse. Malformed mutating payloads are also
// refused (rejection is decided before decoding), which is fine — the
// error the client gets is the one that tells it where writes go.
func mutates(f proto.Frame) bool {
	switch f.Op {
	case proto.OpPut, proto.OpPutTTL, proto.OpDel, proto.OpCheckpoint,
		proto.OpNSPut, proto.OpNSDel, proto.OpDropNS:
		return true
	case proto.OpBatch:
		return len(f.Payload) < 1 || f.Payload[0] != proto.BatchGet
	}
	return false
}
