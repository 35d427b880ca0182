package server

import (
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/trace"
)

// opLabels maps each request opcode to its metric label — the fixed
// vocabulary the per-opcode latency histograms and the slow-op log
// use. Only names from this table ever reach telemetry output.
var opLabels = map[byte]string{
	proto.OpGet:        "get",
	proto.OpPut:        "put",
	proto.OpDel:        "del",
	proto.OpBatch:      "batch",
	proto.OpRange:      "range",
	proto.OpLen:        "len",
	proto.OpCheckpoint: "checkpoint",
	proto.OpPing:       "ping",
	proto.OpShardHash:  "shard_hash",
	proto.OpSync:       "sync",
	proto.OpPutTTL:     "put_ttl",
	proto.OpGetTTL:     "get_ttl",
	proto.OpHealth:     "health",
	proto.OpPromote:    "promote",
	proto.OpNSPut:      "ns_put",
	proto.OpNSGet:      "ns_get",
	proto.OpNSDel:      "ns_del",
	proto.OpDropNS:     "drop_ns",
	proto.OpListNS:     "list_ns",
}

// serverMetrics is the server's hot-path metric set: one latency
// histogram per opcode, one histogram per request phase, and size
// histograms for flush bursts and coalesced batches. Every field is
// non-nil even without a registry (obs is nil-registry safe), so
// recording sites never branch. Recording is a few atomic adds —
// the instrumented paths keep their 0-alloc budgets.
type serverMetrics struct {
	// ops is indexed directly by opcode byte; unknown opcodes map to
	// nil and are simply not timed.
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
	for op, label := range opLabels {
		m.ops[op] = r.HistogramL("hidb_server_op_seconds", "op", label, opHelp, obs.UnitSeconds)
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
	r.CounterFunc("hidb_server_promotions_total", "replica-to-primary promotions of this process", func() uint64 { return s.promotions.Load() })
	r.CounterFunc("hidb_server_sweeps_total", "epoch sweeps that submitted expire ops", func() uint64 { return st.sweeps.Load() })
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

// replyInline answers one inline-dispatched (non-coalesced) request f
// with payload, then records its phases and total latency, and feeds
// the slow-op log when the total crosses its threshold. Timestamps: t0
// receipt, td decode done, tw barrier wait done, ta apply done; encode
// runs from ta to now. For key-addressed ops hasKey routes the slow-op
// record's shard index; the key itself never reaches telemetry.
//
// When tracing is on and the request is kept, replyInline records the
// server span plus its four phase children and feeds the opcode
// histogram's exemplar slot; the slow-op record then carries the trace
// id. A keep known before the reply is sent — preminted ids
// (CHECKPOINT) or a head sample — mints the span identity first and
// hands it to sendFrame, which arms the flush attribution together
// with the reply; a keep decided only by slowness arms it afterwards
// (see noteFlushTrace). Runs on the reader goroutine only
// (reqT/preTID/preSID are safe to read).
func (c *conn) replyInline(f proto.Frame, payload []byte, key int64, hasKey bool, t0, td, tw, ta time.Time) {
	tr := c.srv.tr
	var tid, sid uint64
	if tr != nil {
		if sid = c.preSID; sid != 0 {
			tid = c.preTID
			c.preTID, c.preSID = 0, 0
		} else if headKeep(tr, c.reqT) {
			tid, sid = mintSpan(tr, c.reqT)
		}
	}
	c.sendFrame(f.Op|proto.FlagReply, f.ID, payload, c.reqT, tid, sid)
	sm := c.srv.sm
	te := time.Now()
	sm.phaseDecode.Observe(int64(td.Sub(t0)))
	sm.phaseWait.Observe(int64(tw.Sub(td)))
	sm.phaseApply.Observe(int64(ta.Sub(tw)))
	sm.phaseEncode.Observe(int64(te.Sub(ta)))
	total := te.Sub(t0)
	if h := sm.ops[f.Op]; h != nil {
		h.Observe(int64(total))
	}
	slow := c.srv.slow.Slow(total)
	shard := -1
	if hasKey && (slow || tr != nil) {
		shard = c.srv.db.Store().ShardOf(key)
	}
	if tr != nil {
		if sid == 0 && slow {
			tid, sid = mintSpan(tr, c.reqT)
			c.noteFlushTrace(tid, sid)
		}
		if sid != 0 {
			c.recordTree(trace.Span{
				Trace: tid, ID: sid, Parent: c.reqT.Span,
				Start: t0.UnixNano(), Dur: int64(total),
				Kind: trace.KindServer, Op: f.Op, Shard: int32(shard),
				In: int32(len(f.Payload)), Out: int32(len(payload)),
			}, 0, t0, td, tw, ta, te)
		}
	}
	if slow {
		c.srv.slow.Record(obs.SlowOp{
			Op: opLabels[f.Op], ReqID: f.ID, Shard: shard,
			BytesIn: len(f.Payload), BytesOut: len(payload),
			Total: total, Decode: td.Sub(t0), Wait: tw.Sub(td),
			Apply: ta.Sub(tw), Encode: te.Sub(ta),
			Trace: tid,
		})
	}
}

// headKeep reports whether a request's trace is kept by head sampling,
// the one keep rule both reply paths can evaluate before the reply is
// sent: a request that arrived with a trace context defers to the
// client's decision, one with none is the server's own to sample.
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
// the batch span. Called from the reader goroutine (inline ops) and
// from the coalescer (writes), so it reads no per-request conn state.
func (c *conn) recordTree(root trace.Span, batch int, t0, td, tw, ta, te time.Time) {
	tr := c.srv.tr
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
