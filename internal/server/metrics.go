package server

import (
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/trace"
)

// serverMetrics is the server's hot-path metric set: one latency
// histogram per opcode, one histogram per request phase, and size
// histograms for flush bursts and coalesced batches. Every field is
// non-nil even without a registry (obs is nil-registry safe), so
// recording sites never branch. Recording is a few atomic adds —
// the instrumented paths keep their 0-alloc budgets.
type serverMetrics struct {
	// ops is indexed directly by opcode byte, one histogram per opTable
	// row; unknown opcodes map to nil and are never timed (they only
	// ever finish with an error).
	ops [256]*obs.Histogram

	phaseDecode *obs.Histogram // payload decode
	phaseWait   *obs.Histogram // coalesce-wait (writes) / in-flight-write barrier (reads)
	phaseApply  *obs.Histogram // store/db work
	phaseEncode *obs.Histogram // reply build + enqueue
	phaseFlush  *obs.Histogram // one outbound burst's syscall
	flushBytes  *obs.Histogram // bytes per outbound burst
	batchOps    *obs.Histogram // ops per coalesced write batch
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	m := &serverMetrics{}
	const opHelp = "request latency by opcode, receipt to reply enqueued"
	for op, spec := range opTable {
		if spec == nil {
			continue
		}
		m.ops[op] = r.HistogramL("hidb_server_op_seconds", "op", spec.label, opHelp, obs.UnitSeconds)
		// Exemplars link each latency bucket to the last kept trace
		// that landed in it. Arming is unconditional — an exemplar slab
		// is only ever fed from kept traces, and Observe itself never
		// touches it, so the no-tracing hot path is unchanged.
		m.ops[op].EnableExemplars()
	}
	const phaseHelp = "time per request phase: decode, coalesce_wait, apply, encode, flush"
	m.phaseDecode = r.HistogramL("hidb_server_phase_seconds", "phase", "decode", phaseHelp, obs.UnitSeconds)
	m.phaseWait = r.HistogramL("hidb_server_phase_seconds", "phase", "coalesce_wait", phaseHelp, obs.UnitSeconds)
	m.phaseApply = r.HistogramL("hidb_server_phase_seconds", "phase", "apply", phaseHelp, obs.UnitSeconds)
	m.phaseEncode = r.HistogramL("hidb_server_phase_seconds", "phase", "encode", phaseHelp, obs.UnitSeconds)
	m.phaseFlush = r.HistogramL("hidb_server_phase_seconds", "phase", "flush", phaseHelp, obs.UnitSeconds)
	m.flushBytes = r.Histogram("hidb_server_flush_bytes", "bytes written per outbound reply burst", obs.UnitBytes)
	m.batchOps = r.Histogram("hidb_server_write_batch_ops", "operations per coalesced write batch", obs.UnitNone)
	return m
}

// registerServerFuncs exposes the server's existing atomic counters
// (and the durable layer's totals) on the registry as read-at-scrape
// functions — no double counting anywhere on the hot path.
func registerServerFuncs(r *obs.Registry, s *Server) {
	st, db := &s.st, s.db
	r.CounterFunc("hidb_server_requests_total", "frames dispatched", func() uint64 { return st.requests.Load() })
	r.CounterFunc("hidb_server_errors_total", "error frames sent", func() uint64 { return st.errors.Load() })
	r.CounterFunc("hidb_server_bytes_in_total", "request bytes received", func() uint64 { return st.bytesIn.Load() })
	r.CounterFunc("hidb_server_bytes_out_total", "reply bytes written", func() uint64 { return st.bytesOut.Load() })
	r.CounterFunc("hidb_server_conns_accepted_total", "connections accepted", func() uint64 { return st.connsAccepted.Load() })
	r.CounterFunc("hidb_server_conns_rejected_total", "connections refused at the MaxConns limit", func() uint64 { return st.connsRejected.Load() })
	r.GaugeFunc("hidb_server_conns_active", "connections currently served", func() float64 { return float64(st.connsActive.Load()) })
	r.CounterFunc("hidb_server_write_batches_total", "coalescer drains applied", func() uint64 { return st.wBatches.Load() })
	r.CounterFunc("hidb_server_write_batched_ops_total", "write ops through the coalescer", func() uint64 { return st.wBatchedOps.Load() })
	r.CounterFunc("hidb_server_read_only_rejected_total", "writes refused because this node is a replica", func() uint64 { return st.readOnlyRejected.Load() })
	r.CounterFunc("hidb_server_promotions_total", "replica-to-primary promotions of this process", func() uint64 { return s.db.Promotions() })
	r.CounterFunc("hidb_server_sweeps_total", "epoch sweeps that removed at least one expired entry", func() uint64 { return st.sweeps.Load() })
	r.CounterFunc("hidb_server_swept_keys_total", "expired entries physically removed", func() uint64 { return db.SweptKeys() })
	r.CounterFunc("hidb_server_checkpoints_total", "checkpoints committed", func() uint64 { return db.Checkpoints() })
	r.GaugeFunc("hidb_server_pending_ops", "mutations not yet covered by a checkpoint", func() float64 { return float64(db.PendingOps()) })
	r.GaugeFunc("hidb_server_keys_physical", "keys physically present, including expired-but-unswept entries (per-shard sums, no atomic cut)",
		func() float64 { return float64(physicalLen(db)) })
	r.GaugeFunc("hidb_server_keys_logical", "live keys — expired entries excluded — at an atomic cut",
		func() float64 { return float64(db.Store().Len()) })
	// Namespace telemetry is aggregate-only by contract: counts and
	// totals, never a tenant-name label — a scraped metrics page must
	// not double as a tenant roster (see docs/OBSERVABILITY.md).
	r.GaugeFunc("hidb_server_namespaces", "live tenant namespaces with at least one live key",
		func() float64 { return float64(db.NamespaceCount()) })
	r.CounterFunc("hidb_server_ns_ops_total", "namespaced requests dispatched, all tenants", func() uint64 { return st.nsOps.Load() })
	r.CounterFunc("hidb_server_ns_quota_rejected_total", "namespaced puts refused at the per-tenant quota", func() uint64 { return st.nsQuotaRejected.Load() })
	r.CounterFunc("hidb_server_ns_drops_total", "tenant erasures requested via DROPNS", func() uint64 { return st.nsDrops.Load() })
}

// physicalLen sums the shards' physical entry counts one brief lock at
// a time: cheap to scrape, and deliberately DISTINCT from the logical
// length — under TTL load the physical count includes entries that are
// already dead but not yet swept, so the two disagreeing is signal
// (sweep backlog), not a bug. See docs/OBSERVABILITY.md.
func physicalLen(db *durable.DB) int {
	store := db.Store()
	n := 0
	for i := 0; i < store.NumShards(); i++ {
		n += store.ShardLen(i)
	}
	return n
}

// finish is the one exit of every parsed request, on whichever
// goroutine served it — the reader (inline ops, and anything refused
// before it was served) or the coalescer (writes): it queues the reply
// (an error frame carrying payload when errCode is nonzero), then
// records the request's latency, span tree and slow-op line. tw and ta
// bound the apply phase (t0 ≤ td ≤ tw ≤ ta; encode runs from ta to
// now); batch is the size of the ApplyBatch that carried a coalesced
// write (0: none did).
//
// Error replies are counted and traced but never timed: they stay out
// of the histograms and the slow-op log. A coalesced write's apply and
// encode phases are per-group costs its group observes once.
//
// The one keep rule: the span tree is recorded when the span ids were
// preminted, the request is head-sampled, it ends in an error, or it
// turns out slow. The first three are known before the send, so the
// identity is minted first and sendFrame arms the flush attribution in
// the critical section that queues the reply; slowness is known only
// afterwards. Telemetry never carries a key or tenant name, and a shard
// index only for a successful keyed op in the default keyspace.
func (c *conn) finish(rq *request, payload []byte, errCode byte, batch int, tw, ta time.Time) {
	s := c.srv
	spec := opTable[rq.op] // nil only on an error path (unknown opcode)
	tr := s.cfg.Trace
	op := rq.op | proto.FlagReply
	if errCode != 0 {
		op = proto.OpError
		s.st.errors.Add(1)
	}
	if tr != nil && rq.sid == 0 && (errCode != 0 || headKeep(tr, rq.tc)) {
		rq.tid, rq.sid = mintSpan(tr, rq.tc)
	}
	c.sendFrame(op, rq, payload)
	if rq.c != nil {
		c.pending.Done()
	}

	te := time.Now()
	total := te.Sub(rq.t0)
	slow, shard := false, -1
	if errCode == 0 {
		s.sm.phaseDecode.Observe(int64(rq.td.Sub(rq.t0)))
		s.sm.phaseWait.Observe(int64(tw.Sub(rq.td)))
		if !spec.coalesced {
			s.sm.phaseApply.Observe(int64(ta.Sub(tw)))
			s.sm.phaseEncode.Observe(int64(te.Sub(ta)))
		}
		s.sm.ops[rq.op].Observe(int64(total))
		slow = s.slow.Slow(total)
	}
	if tr != nil && rq.sid == 0 && slow {
		// The writer may already have flushed the reply: the attribution
		// then lands on the connection's next flush or none.
		rq.tid, rq.sid = mintSpan(tr, rq.tc)
		c.qmu.Lock()
		c.flushTID, c.flushSID = rq.tid, rq.sid
		c.qmu.Unlock()
	}
	if errCode == 0 && spec.keyed && rq.ns == "" && (slow || rq.sid != 0) {
		shard = s.db.Store().ShardOf(rq.key)
	}
	if rq.sid != 0 {
		c.recordTree(trace.Span{
			Trace: rq.tid, ID: rq.sid, Parent: rq.tc.Span,
			Start: rq.t0.UnixNano(), Dur: int64(total),
			Kind: trace.KindServer, Op: rq.op, Err: errCode, Shard: int32(shard),
			In: int32(rq.in), Out: int32(len(payload)),
		}, batch, rq.t0, rq.td, tw, ta, te)
	}
	if slow {
		s.slow.Record(obs.SlowOp{
			Op: spec.label, ReqID: rq.id, Shard: shard,
			BytesIn: rq.in, BytesOut: len(payload), Batch: batch,
			Total: total, Decode: rq.td.Sub(rq.t0), Wait: tw.Sub(rq.td),
			Apply: ta.Sub(tw), Encode: te.Sub(ta),
			Trace: rq.tid,
		})
	}
}

// headKeep reports whether a request's trace is kept by head sampling:
// a request that arrived with a trace context defers to the client's
// decision, one with none is the server's own to sample.
func headKeep(tr *trace.Store, tc proto.TraceCtx) bool {
	return tc.Sampled || (tc.ID == 0 && tr.Sample())
}

// mintSpan returns the identity a kept request's server span records
// under: the trace id the request arrived with — a fresh one if it
// carried none — and a fresh span id.
func mintSpan(tr *trace.Store, tc proto.TraceCtx) (tid, sid uint64) {
	if tid = tc.ID; tid == 0 {
		tid = tr.NewID()
	}
	return tid, tr.NewID()
}

// recordTree records a kept request's span tree: root — the server
// span, already parented under the client's — then its decode /
// coalesce-wait / batch / apply / encode children from the phase
// boundaries t0 ≤ td ≤ tw ≤ ta ≤ te, and the opcode histogram's
// exemplar. The flush span is the writer's, armed by the caller. batch
// is the size of the ApplyBatch that carried the request; 0 suppresses
// the batch span.
func (c *conn) recordTree(root trace.Span, batch int, t0, td, tw, ta, te time.Time) {
	tr := c.srv.cfg.Trace
	tr.Record(root)
	child := func(kind trace.Kind, from, to time.Time, in int) {
		tr.Record(trace.Span{Trace: root.Trace, ID: tr.NewID(), Parent: root.ID,
			Start: from.UnixNano(), Dur: int64(to.Sub(from)), Kind: kind, Shard: root.Shard, In: int32(in)})
	}
	child(trace.KindDecode, t0, td, 0)
	child(trace.KindWait, td, tw, 0)
	if batch > 0 {
		child(trace.KindBatch, tw, ta, batch)
	}
	child(trace.KindApply, tw, ta, 0)
	child(trace.KindEncode, ta, te, 0)
	if h := c.srv.sm.ops[root.Op]; h != nil {
		h.Exemplar(root.Dur, root.Trace)
	}
}
