package server

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/shard"
	"repro/internal/trace"
)

// writeReq is one write handed to the coalescer: a connection's point
// write (PUT, PUTTTL, DEL, NSPUT, NSDEL) or DROPNS, carrying everything
// needed to route the reply back — or a server-internal expire op from
// the sweeper (op 0, c nil: no reply).
type writeReq struct {
	op       byte   // request opcode; 0: sweeper-issued conditional delete
	ns       string // keyspace ("": the default one); DROPNS: the tenant to erase
	key, val int64
	exp      int64 // PUTTTL/NSPUT: absolute expiry; expire op: epoch bound
	id       uint64
	c        *conn

	t0 time.Time // frame receipt, for phase timing (zero for sweeper ops)
	in int       // request payload bytes, for the slow-op log

	// Wire context carried across the goroutine hop: the request
	// frame's trace context (the reply echoes it), plus the decode-done
	// timestamp for the decode child span. The batcher must read these,
	// never the conn's reader-goroutine per-request fields. Zero for
	// sweeper ops.
	td time.Time
	tc proto.TraceCtx
}

// batcher is the server-wide write coalescer: a single goroutine that
// drains pending writes from every connection, groups them by keyspace,
// and applies each group as one mixed shard.Op batch, taking each
// shard's write lock once per drain instead of once per operation (see
// run for what the grouping preserves).
type batcher struct {
	db        *durable.DB
	ch        chan writeReq
	st        *stats
	sm        *serverMetrics
	slow      *obs.SlowLog
	done      chan struct{}
	closeOnce sync.Once
	// maxBatch caps one drain so a firehose of writers cannot grow the
	// staging slices without bound.
	maxBatch int
	// nsQuota is Config.NSQuota: the per-tenant live-key cap enforced
	// here, on the only goroutine that mutates namespaces, so the check
	// is exact rather than racy.
	nsQuota int
	// tr is the span store (nil: tracing off), set by New right after
	// newBatcher. Kept coalesced writes record their span trees from
	// this goroutine.
	tr *trace.Store

	// Coalescer-goroutine scratch, reused across drains. slot, counts
	// and grouped belong to groupByKeyspace.
	ops      []shard.Op
	changed  []bool
	pscratch []byte
	slot     map[string]int
	counts   []int
	grouped  []writeReq
}

func newBatcher(db *durable.DB, st *stats, sm *serverMetrics, slow *obs.SlowLog, queue, maxBatch, nsQuota int) *batcher {
	return &batcher{
		db:       db,
		ch:       make(chan writeReq, queue),
		st:       st,
		sm:       sm,
		slow:     slow,
		done:     make(chan struct{}),
		maxBatch: maxBatch,
		nsQuota:  nsQuota,
		slot:     map[string]int{},
	}
}

// submit hands a write to the coalescer. It blocks when the queue is
// full — backpressure, not unbounded buffering. The caller must have
// incremented its connection's pending-write count first.
func (b *batcher) submit(r writeReq) { b.ch <- r }

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
// whatever else is queued (up to maxBatch, with one adaptive window
// extension under load), then apply the drain: between DROPNS barriers
// the writes are grouped by keyspace and each group goes through one
// ApplyBatch; a DROPNS is a full barrier (drop + checkpoint before the
// reply). Writes to different keyspaces commute and replies are routed
// by request id, so regrouping is unobservable; within a keyspace the
// channel is FIFO and the grouping stable, so the reply each connection
// sees is exactly what the equivalent point op would have returned.
func (b *batcher) run() {
	defer close(b.done)
	var reqs []writeReq
	for first := range b.ch {
		reqs = append(reqs[:0], first)
		reqs = b.drain(reqs)
		if n := len(reqs); n >= extendThreshold && n < b.maxBatch {
			runtime.Gosched()
			if reqs = b.drain(reqs); len(reqs) > n {
				b.st.wExtends.Add(1)
			}
		}

		// tw: end of coalesce-wait for everything in this drain. Per-req
		// wait is tw−r.t0 (receipt to batch formation); apply and encode
		// are per-group costs shared by every member.
		tw := time.Now()
		for _, r := range reqs {
			if r.c != nil {
				b.sm.phaseWait.Observe(int64(tw.Sub(r.t0)))
			}
		}
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
				b.applyDrop(reqs[hi], tw)
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
func (b *batcher) groupByKeyspace(seg []writeReq) []writeReq {
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
		b.grouped = make([]writeReq, len(seg))
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
// quota that is a single run. With one, every tenant put is checked
// against the state left by ALL the writes before it, so the run so
// far is applied first: the check stays as exact as the sequential
// point-op path it replaces, on the same ApplyBatch path.
func (b *batcher) applyGroup(reqs []writeReq, tw time.Time) {
	lo := 0
	if q, ns := b.nsQuota, reqs[0].ns; q > 0 && ns != "" {
		for i, r := range reqs {
			if r.op != proto.OpNSPut {
				continue
			}
			b.applyRun(reqs[lo:i], tw)
			lo = i
			if !b.db.NSHas(ns, r.key) && b.db.NSLen(ns) >= q {
				b.st.nsQuotaRejected.Add(1)
				b.pscratch = proto.AppendError(b.pscratch[:0], proto.ErrCodeQuota,
					fmt.Sprintf("namespace is at its %d-key quota", q))
				b.reply(r, proto.ErrCodeQuota, 0, tw, time.Now(), 0, 0)
				lo = i + 1
			}
		}
	}
	b.applyRun(reqs[lo:], tw)
}

// applyRun applies a run of writes to one keyspace as a single
// ApplyBatch and fans the per-op outcomes back out as replies.
func (b *batcher) applyRun(reqs []writeReq, tw time.Time) {
	if len(reqs) == 0 {
		return
	}
	ops := b.ops[:0]
	for _, r := range reqs {
		ops = append(ops, shard.Op{Key: r.key, Val: r.val, Exp: r.exp,
			Delete: r.op == proto.OpDel || r.op == proto.OpNSDel, Expire: r.op == 0})
	}
	b.ops = ops
	if cap(b.changed) < len(ops) {
		b.changed = make([]bool, len(ops))
	}
	changed := b.changed[:len(ops)]
	_, err := b.db.NSApplyBatch(reqs[0].ns, ops, changed)
	b.st.noteBatch(len(ops))
	ta := time.Now()
	b.sm.phaseApply.Observe(int64(ta.Sub(tw)))
	b.sm.batchOps.Observe(int64(len(ops)))

	for i, r := range reqs {
		if r.c == nil {
			continue // server-internal op (expiry sweep): no reply owed
		}
		// Payloads are built in a coalescer-lifetime scratch: sendFrame
		// copies them into the connection's outbound buffer before
		// returning, so the next iteration may overwrite it.
		ec := byte(0)
		switch {
		case err != nil:
			ec = proto.ErrCodeInternal
			b.pscratch = proto.AppendError(b.pscratch[:0], ec, err.Error())
		case r.op == proto.OpPutTTL || r.op == proto.OpNSPut:
			b.pscratch = proto.AppendTTLAck(b.pscratch[:0], changed[i], r.exp)
		default:
			b.pscratch = proto.AppendBool(b.pscratch[:0], changed[i])
		}
		b.reply(r, ec, len(reqs), tw, ta, 0, 0)
	}
	b.sm.phaseEncode.Observe(int64(time.Since(ta)))
}

// applyDrop serves DROPNS as the erasure barrier the protocol promises:
// the cell is dropped AND a checkpoint committed (manifest without the
// tenant, files zero-wiped and unlinked) before the reply leaves, so a
// positive DROPNS reply means the erasure is already durable and
// forensically complete.
func (b *batcher) applyDrop(r writeReq, tw time.Time) {
	b.st.nsDrops.Add(1)
	var tid, sid uint64
	if b.tr != nil {
		// The erasure barrier commits a checkpoint — always slow, always
		// kept. Mint the span identity now so the durable layer's
		// checkpoint span parents under this request.
		tid, sid = mintSpan(b.tr, r.tc)
	}
	// Drop and checkpoint as one operation: a failed checkpoint restores
	// the cell before the error reply, so the client is never told a
	// tenant is gone while its data stays durable, and a retried DROPNS
	// finds the tenant (or its lingering manifest entry) and completes
	// the erasure.
	changed, err := b.db.DropNamespaceSync(r.ns, tid, sid)
	ta := time.Now()
	b.sm.phaseApply.Observe(int64(ta.Sub(tw)))
	ec := byte(0)
	if err != nil {
		ec = proto.ErrCodeInternal
		b.pscratch = proto.AppendError(b.pscratch[:0], ec, err.Error())
	} else {
		b.pscratch = proto.AppendBool(b.pscratch[:0], changed)
	}
	if sid != 0 {
		// The barrier span covers the drop-and-checkpoint apply window;
		// the checkpoint span recorded inside it is a sibling child of
		// the same server span, linked by the committed manifest hash.
		b.tr.Record(trace.Span{Trace: tid, ID: b.tr.NewID(), Parent: sid,
			Start: tw.UnixNano(), Dur: int64(ta.Sub(tw)), Kind: trace.KindEraseBarrier,
			Shard: -1, Err: ec})
	}
	b.reply(r, ec, 0, tw, ta, tid, sid)
	b.sm.phaseEncode.Observe(int64(time.Since(ta)))
}

// reply sends one write's reply — b.pscratch, an error payload when
// errCode is nonzero — and records the request's latency, span tree
// and slow-op line. batch is the size of the ApplyBatch that carried
// the write (0: none did — a DROPNS or a quota refusal — which
// suppresses the batch span); tw and ta bound its apply phase. Error
// replies are counted and traced, but not timed. The slow-op record
// never carries the tenant name or key.
//
// The span tree is the server root (parented under the client's span)
// with decode / coalesce-wait / batch / apply / encode children.
// tid/sid nonzero mean the identity was preminted and the request is
// kept unconditionally (DROPNS — the span ids had to exist before the
// apply so the durable layer could parent its checkpoint span);
// otherwise the keep rule is head-sampled || error || slow. The first
// two are known before the send, so the identity is minted first and
// sendFrame arms the flush attribution together with the reply; a keep
// decided only by slowness arms it afterwards (see noteFlushTrace).
func (b *batcher) reply(r writeReq, errCode byte, batch int, tw, ta time.Time, tid, sid uint64) {
	op := r.op | proto.FlagReply
	if errCode != 0 {
		op = proto.OpError
		b.st.errors.Add(1)
	}
	if b.tr != nil && sid == 0 && (errCode != 0 || headKeep(b.tr, r.tc)) {
		tid, sid = mintSpan(b.tr, r.tc)
	}
	r.c.sendFrame(op, r.id, b.pscratch, r.tc, tid, sid)
	r.c.pending.Done()

	now := time.Now()
	total := now.Sub(r.t0)
	if h := b.sm.ops[r.op]; h != nil && errCode == 0 {
		h.Observe(int64(total))
	}
	slow := b.slow.Slow(total)
	if b.tr != nil {
		if sid == 0 && slow {
			tid, sid = mintSpan(b.tr, r.tc)
			r.c.noteFlushTrace(tid, sid)
		}
		if sid != 0 {
			r.c.recordTree(trace.Span{
				Trace: tid, ID: sid, Parent: r.tc.Span,
				Start: r.t0.UnixNano(), Dur: int64(total),
				Kind: trace.KindServer, Op: r.op, Err: errCode, Shard: int32(b.shardOf(r)),
				In: int32(r.in), Out: int32(len(b.pscratch)),
			}, batch, r.t0, r.td, tw, ta, now)
		}
	}
	if errCode == 0 && slow {
		b.slow.Record(obs.SlowOp{
			Op: opLabels[r.op], ReqID: r.id, Shard: b.shardOf(r),
			BytesIn: r.in, BytesOut: len(b.pscratch), Batch: batch,
			Total: total, Wait: tw.Sub(r.t0),
			Apply: ta.Sub(tw), Encode: now.Sub(ta),
			Trace: tid,
		})
	}
}

// shardOf returns the shard index telemetry may carry for r: the
// routed shard in the default keyspace, -1 for a tenant's write.
func (b *batcher) shardOf(r writeReq) int {
	if r.ns != "" {
		return -1
	}
	return b.db.Store().ShardOf(r.key)
}

// drain greedily moves queued writes into reqs without blocking, up to
// maxBatch.
func (b *batcher) drain(reqs []writeReq) []writeReq {
	for len(reqs) < b.maxBatch {
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
