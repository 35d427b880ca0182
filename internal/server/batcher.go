package server

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/shard"
	"repro/internal/trace"
)

// request is the one record of a parsed request, from frame receipt to
// finish. The reader goroutine holds it on its stack for inline ops and
// sends it by value to the coalescer for writes, so neither goroutine
// ever reads per-request state off the connection.
type request struct {
	op byte
	id uint64
	tc proto.TraceCtx // the frame's trace context; the reply echoes it
	in int            // request payload bytes
	c  *conn          // set when a write is queued: whose pending count finish releases

	t0, td time.Time // frame receipt; decode done

	// The decoded point shape: keyspace ("": the default one; DROPNS: the
	// tenant to erase), key, value, absolute expiry (0: none).
	ns            string
	key, val, exp int64

	// The server span's identity once minted; a nonzero sid means the
	// request's trace is kept, under exactly these ids.
	tid, sid uint64
}

// Coalescer sizing. writeQueue is the queue depth in operations;
// submitters block when it is full. maxWriteBatch caps one drain so a
// firehose of writers cannot grow the staging slices without bound.
const (
	writeQueue    = 4096
	maxWriteBatch = 4096
)

// batcher is the server-wide write coalescer: a single goroutine that
// drains pending writes from every connection, groups them by keyspace,
// and applies each group as one mixed shard.Op batch, taking each
// shard's write lock once per drain instead of once per operation (see
// run for what the grouping preserves). It is also the only goroutine
// that mutates namespaces, which is what makes Config.NSQuota exact.
type batcher struct {
	srv       *Server
	ch        chan request
	done      chan struct{}
	closeOnce sync.Once

	// Coalescer-goroutine scratch, reused across drains. slot, counts
	// and grouped belong to groupByKeyspace.
	ops      []shard.Op
	changed  []bool
	pscratch []byte
	slot     map[string]int
	counts   []int
	grouped  []request
}

func newBatcher(s *Server) *batcher {
	return &batcher{
		srv:  s,
		ch:   make(chan request, writeQueue),
		done: make(chan struct{}),
		slot: map[string]int{},
	}
}

// close stops the coalescer after the queue drains. All submitters must
// have exited first, and run must have been started.
func (b *batcher) close() {
	b.closeOnce.Do(func() { close(b.ch) })
	<-b.done
}

// extendThreshold is the adaptive batch window: a greedy drain that
// collected at least this many writes is evidence of concurrent
// pipelining, so the coalescer yields the processor once and drains
// again before taking the shard locks — submitters that were mid-send
// land in this batch instead of forcing another full lock-take. A
// smaller drain skips the yield: latency stays tight when load is
// light.
const extendThreshold = 8

// run is the coalescer loop: block for one write, then greedily drain
// whatever else is queued (up to maxWriteBatch, with one adaptive window
// extension under load), then apply the drain: between DROPNS barriers
// the writes are grouped by keyspace and each group goes through one
// ApplyBatch; a DROPNS is a full barrier (drop + checkpoint before the
// reply). Writes to different keyspaces commute and replies are routed
// by request id, so regrouping is unobservable; within a keyspace the
// channel is FIFO and the grouping stable, so the reply each connection
// sees is exactly what the equivalent point op would have returned.
// Between drains the same goroutine runs the epoch-triggered expiry
// sweep, so the server mutates the store from one place.
func (b *batcher) run() {
	defer close(b.done)
	var tick <-chan time.Time // nil: no sweeper
	if d := b.srv.cfg.SweepInterval; d > 0 {
		t := time.NewTicker(d)
		defer t.Stop()
		tick = t.C
	}
	var reqs []request
	for {
		select {
		case <-tick:
			b.srv.sweepOnceNow()
			continue
		case first, ok := <-b.ch:
			if !ok {
				return
			}
			reqs = append(reqs[:0], first)
		}
		reqs = b.drain(reqs)
		if n := len(reqs); n >= extendThreshold && n < maxWriteBatch {
			runtime.Gosched()
			if reqs = b.drain(reqs); len(reqs) > n {
				b.srv.st.wExtends.Add(1)
			}
		}

		// tw: end of coalesce-wait for everything in this drain (batch
		// formation); apply and encode are per-group costs shared by every
		// member.
		tw := time.Now()
		for lo := 0; lo < len(reqs); {
			hi := lo
			for hi < len(reqs) && reqs[hi].op != proto.OpDropNS {
				hi++
			}
			seg := b.groupByKeyspace(reqs[lo:hi])
			for i := 0; i < len(seg); {
				j := i + 1
				for j < len(seg) && seg[j].ns == seg[i].ns {
					j++
				}
				b.applyGroup(seg[i:j], tw)
				i = j
			}
			if hi < len(reqs) {
				b.applyDrop(&reqs[hi], tw)
				hi++
			}
			lo = hi
		}
	}
}

// groupByKeyspace returns seg reordered so that each keyspace's writes
// are contiguous: keyspaces in order of first appearance, each one's
// writes in submission order (a stable counting sort). A segment that
// addresses a single keyspace — the common case — is returned as is.
func (b *batcher) groupByKeyspace(seg []request) []request {
	mixed := false
	for i := 1; i < len(seg) && !mixed; i++ {
		mixed = seg[i].ns != seg[0].ns
	}
	if !mixed {
		return seg
	}
	clear(b.slot)
	counts := b.counts[:0]
	for i := range seg {
		g, ok := b.slot[seg[i].ns]
		if !ok {
			g = len(counts)
			b.slot[seg[i].ns] = g
			counts = append(counts, 0)
		}
		counts[g]++
	}
	at := 0
	for g, n := range counts { // counts[g] becomes group g's write cursor
		counts[g] = at
		at += n
	}
	b.counts = counts
	if cap(b.grouped) < len(seg) {
		b.grouped = make([]request, len(seg))
	}
	out := b.grouped[:len(seg)]
	for i := range seg {
		g := b.slot[seg[i].ns]
		out[counts[g]] = seg[i]
		counts[g]++
	}
	return out
}

// applyGroup applies one keyspace's writes from a drain. Without a
// quota that is a single run. With one, every tenant upsert is checked
// against the state left by ALL the writes before it, so the run so
// far is applied first: the check stays as exact as the sequential
// point-op path it replaces, on the same ApplyBatch path.
func (b *batcher) applyGroup(reqs []request, tw time.Time) {
	db := b.srv.db
	lo := 0
	if q, ns := b.srv.cfg.NSQuota, reqs[0].ns; q > 0 && ns != "" {
		for i := range reqs {
			r := &reqs[i]
			if opTable[r.op].del {
				continue
			}
			b.applyRun(reqs[lo:i], tw)
			lo = i
			if !db.NSHas(ns, r.key) && db.NSLen(ns) >= q {
				b.srv.st.nsQuotaRejected.Add(1)
				b.pscratch = proto.AppendError(b.pscratch[:0], proto.ErrCodeQuota,
					fmt.Sprintf("namespace is at its %d-key quota", q))
				r.c.finish(r, b.pscratch, proto.ErrCodeQuota, 0, tw, time.Now())
				lo = i + 1
			}
		}
	}
	b.applyRun(reqs[lo:], tw)
}

// applyRun applies a run of writes to one keyspace as a single
// ApplyBatch and fans the per-op outcomes back out as replies.
func (b *batcher) applyRun(reqs []request, tw time.Time) {
	if len(reqs) == 0 {
		return
	}
	s := b.srv
	ops := b.ops[:0]
	for i := range reqs {
		r := &reqs[i]
		ops = append(ops, shard.Op{Key: r.key, Val: r.val, Exp: r.exp, Delete: opTable[r.op].del})
	}
	b.ops = ops
	if cap(b.changed) < len(ops) {
		b.changed = make([]bool, len(ops))
	}
	changed := b.changed[:len(ops)]
	_, err := s.db.NSApplyBatch(reqs[0].ns, ops, changed)
	s.st.noteBatch(len(ops))
	ta := time.Now()
	s.sm.phaseApply.Observe(int64(ta.Sub(tw)))
	s.sm.batchOps.Observe(int64(len(ops)))

	for i := range reqs {
		r := &reqs[i]
		// Payloads are built in a coalescer-lifetime scratch: finish
		// copies them into the connection's outbound buffer before
		// returning, so the next iteration may overwrite it.
		ec := byte(0)
		switch {
		case err != nil:
			ec = proto.ErrCodeInternal
			b.pscratch = proto.AppendError(b.pscratch[:0], ec, err.Error())
		case opTable[r.op].ttlAck:
			b.pscratch = proto.AppendTTLAck(b.pscratch[:0], changed[i], r.exp)
		default:
			b.pscratch = proto.AppendBool(b.pscratch[:0], changed[i])
		}
		r.c.finish(r, b.pscratch, ec, len(reqs), tw, ta)
	}
	s.sm.phaseEncode.Observe(int64(time.Since(ta)))
}

// applyDrop serves DROPNS as the erasure barrier the protocol promises:
// the cell is dropped AND a checkpoint committed (manifest without the
// tenant, files zero-wiped and unlinked) before the reply leaves, so a
// positive DROPNS reply means the erasure is already durable and
// forensically complete.
func (b *batcher) applyDrop(r *request, tw time.Time) {
	s := b.srv
	s.st.nsDrops.Add(1)
	// Drop and checkpoint as one operation: a failed checkpoint restores
	// the cell before the error reply, so the client is never told a
	// tenant is gone while its data stays durable, and a retried DROPNS
	// finds the tenant (or its lingering manifest entry) and completes
	// the erasure. The record's preminted span ids go down with it, so
	// the checkpoint span parents under this request.
	changed, err := s.db.DropNamespaceSync(r.ns, r.tid, r.sid)
	ta := time.Now()
	s.sm.phaseApply.Observe(int64(ta.Sub(tw)))
	ec := byte(0)
	if err != nil {
		ec = proto.ErrCodeInternal
		b.pscratch = proto.AppendError(b.pscratch[:0], ec, err.Error())
	} else {
		b.pscratch = proto.AppendBool(b.pscratch[:0], changed)
	}
	if r.sid != 0 {
		// The barrier span covers the drop-and-checkpoint apply window;
		// the checkpoint span recorded inside it is a sibling child of
		// the same server span, linked by the committed manifest hash.
		s.cfg.Trace.Record(trace.Span{Trace: r.tid, ID: s.cfg.Trace.NewID(), Parent: r.sid,
			Start: tw.UnixNano(), Dur: int64(ta.Sub(tw)), Kind: trace.KindEraseBarrier,
			Shard: -1, Err: ec})
	}
	r.c.finish(r, b.pscratch, ec, 0, tw, ta)
	s.sm.phaseEncode.Observe(int64(time.Since(ta)))
}

// drain greedily moves queued writes into reqs without blocking, up to
// maxWriteBatch.
func (b *batcher) drain(reqs []request) []request {
	for len(reqs) < maxWriteBatch {
		select {
		case r, ok := <-b.ch:
			if !ok {
				return reqs
			}
			reqs = append(reqs, r)
		default:
			return reqs
		}
	}
	return reqs
}
