package server

import (
	"sync/atomic"
	"time"
)

// stats holds the server's hot-path counters. Everything is atomic so
// the handlers never synchronize just to count.
type stats struct {
	connsAccepted atomic.Uint64
	connsRejected atomic.Uint64
	connsActive   atomic.Int64
	requests      atomic.Uint64
	// byClass counts requests by their opTable row's class — reads,
	// writes (BATCH adds one per entry), SYNC requests; the classOther
	// slot is never reported.
	byClass     [numClasses]atomic.Uint64
	errors      atomic.Uint64 // error frames sent
	wBatches    atomic.Uint64 // coalescer drains applied
	wBatchedOps atomic.Uint64 // write ops that went through the coalescer
	wMaxBatch   atomic.Uint64 // largest single coalesced batch
	wExtends    atomic.Uint64 // adaptive-window drain extensions that found more work
	bytesIn     atomic.Uint64
	bytesOut    atomic.Uint64

	readOnlyRejected atomic.Uint64 // writes refused because this node is a replica
	syncBytesOut     atomic.Uint64 // image bytes shipped to replicas

	sweeps atomic.Uint64 // epoch sweeps that removed at least one expired entry

	// Namespace traffic, deliberately aggregate-only: counts, never
	// tenant names — telemetry must not become a tenant roster.
	nsOps           atomic.Uint64 // namespaced requests dispatched (all five opcodes)
	nsQuotaRejected atomic.Uint64 // NSPUTs refused at the per-tenant quota
	nsDrops         atomic.Uint64 // DROPNS requests processed (existent or not)
}

func (s *stats) noteBatch(n int) {
	s.wBatches.Add(1)
	s.wBatchedOps.Add(uint64(n))
	for {
		old := s.wMaxBatch.Load()
		if uint64(n) <= old || s.wMaxBatch.CompareAndSwap(old, uint64(n)) {
			return
		}
	}
}

// Stats is a point-in-time snapshot of the server's counters, shaped
// for expvar publication (every field marshals to JSON).
type Stats struct {
	Role          string `json:"role"` // "primary" or "replica"
	ConnsAccepted uint64 `json:"conns_accepted"`
	ConnsRejected uint64 `json:"conns_rejected"`
	ConnsActive   int64  `json:"conns_active"`
	Requests      uint64 `json:"requests"`
	Reads         uint64 `json:"reads"`
	Writes        uint64 `json:"writes"`
	Errors        uint64 `json:"errors"`
	WriteBatches  uint64 `json:"write_batches"`
	WriteBatched  uint64 `json:"write_batched_ops"`
	WriteMaxBatch uint64 `json:"write_max_batch"`
	WriteExtends  uint64 `json:"write_window_extends"`
	BytesIn       uint64 `json:"bytes_in"`
	BytesOut      uint64 `json:"bytes_out"`

	// KeysPhysical counts entries physically present in the shards —
	// including TTL-expired entries the sweeper has not removed yet —
	// summed one brief per-shard lock at a time (no atomic cut).
	// KeysLogical counts live keys at an atomic cut: expired entries
	// are excluded even before they are swept. Under TTL load the two
	// legitimately disagree; the gap is the sweep backlog, and reporting
	// it as a single "keys" number hid real behavior.
	KeysPhysical int `json:"keys_physical"`
	KeysLogical  int `json:"keys_logical"`

	Checkpoints uint64 `json:"checkpoints"`
	PendingOps  uint64 `json:"pending_ops"`

	ReadOnlyRejected uint64 `json:"read_only_rejected"`
	SyncChunks       uint64 `json:"sync_chunks"`
	SyncBytesOut     uint64 `json:"sync_bytes_out"`
	// Promotions counts replica-to-primary promotions of this process
	// (in-memory only — a restart forgets them, by design: persisted
	// election history would break history independence).
	Promotions uint64 `json:"promotions"`

	// TTL expiry. Epoch is the database's current epoch (unix seconds
	// under the default clock); SweptKeys counts expired entries
	// physically removed since Open (the server's sweeps and checkpoint
	// sweeps alike); Sweeps counts the server's epoch sweeps that
	// removed at least one entry.
	Epoch         int64   `json:"epoch"`
	SweptKeys     uint64  `json:"swept_keys"`
	Sweeps        uint64  `json:"sweeps"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Namespaces is the live tenant count (cells with at least one live
	// key); the traffic counters are aggregates across all tenants. No
	// per-tenant breakdown is published here by design — tenant names
	// stay off every telemetry surface (LISTNS, an authenticated data
	// op, is the only way to enumerate them).
	Namespaces      int    `json:"namespaces"`
	NSOps           uint64 `json:"ns_ops"`
	NSQuotaRejected uint64 `json:"ns_quota_rejected"`
	NSDrops         uint64 `json:"ns_drops"`
}

// Stats returns a snapshot of the server's counters plus the durable
// layer's key counts, committed checkpoints, and uncheckpointed-op
// window. It is safe to call at any time, including during shutdown,
// and cheap enough to scrape: the physical count sums the shards one
// brief lock at a time (a consistent-enough reading for monitoring);
// the logical count pays DB.Len's atomic cut to exclude expired
// entries. See the KeysPhysical/KeysLogical field docs.
func (s *Server) Stats() Stats {
	role := "primary"
	if s.db.Replica() {
		role = "replica"
	}
	return Stats{
		Role:          role,
		ConnsAccepted: s.st.connsAccepted.Load(),
		ConnsRejected: s.st.connsRejected.Load(),
		ConnsActive:   s.st.connsActive.Load(),
		Requests:      s.st.requests.Load(),
		Reads:         s.st.byClass[classRead].Load(),
		Writes:        s.st.byClass[classWrite].Load(),
		Errors:        s.st.errors.Load(),
		WriteBatches:  s.st.wBatches.Load(),
		WriteBatched:  s.st.wBatchedOps.Load(),
		WriteMaxBatch: s.st.wMaxBatch.Load(),
		WriteExtends:  s.st.wExtends.Load(),
		BytesIn:       s.st.bytesIn.Load(),
		BytesOut:      s.st.bytesOut.Load(),
		KeysPhysical:  physicalLen(s.db),
		KeysLogical:   s.db.Store().Len(),
		Checkpoints:   s.db.Checkpoints(),
		PendingOps:    s.db.PendingOps(),

		ReadOnlyRejected: s.st.readOnlyRejected.Load(),
		SyncChunks:       s.st.byClass[classSyncChunk].Load(),
		SyncBytesOut:     s.st.syncBytesOut.Load(),
		Promotions:       s.db.Promotions(),

		Epoch:         s.db.Epoch(),
		SweptKeys:     s.db.SweptKeys(),
		Sweeps:        s.st.sweeps.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),

		Namespaces:      s.db.NamespaceCount(),
		NSOps:           s.st.nsOps.Load(),
		NSQuotaRejected: s.st.nsQuotaRejected.Load(),
		NSDrops:         s.st.nsDrops.Load(),
	}
}
