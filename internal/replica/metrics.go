package replica

import "repro/internal/obs"

// replicaMetrics exposes the anti-entropy loop: the existing atomic
// round/install/fetch counters are bridged read-at-scrape (no double
// counting), and the round-duration histogram, converged-round count,
// and image verify failures record live. Everything is counts and
// durations of the convergence machinery — shard *indices* and byte
// *totals*, never contents. Zero value with a nil registry is live
// but unregistered.
type replicaMetrics struct {
	converged   *obs.Counter   // rounds that matched the primary outright
	verifyFails *obs.Counter   // fetched images rejected by size/hash verification
	roundSecs   *obs.Histogram // SyncOnce wall time, converged rounds included
}

func (m *replicaMetrics) init(reg *obs.Registry, r *Replica) {
	m.converged = reg.Counter("hidb_replica_converged_total", "anti-entropy rounds that found the checkpoints already matching")
	m.verifyFails = reg.Counter("hidb_replica_verify_failures_total", "fetched blobs (manifest or image) rejected by size or hash verification")
	m.roundSecs = reg.Histogram("hidb_replica_round_seconds", "anti-entropy round wall time, converged rounds included", obs.UnitSeconds)
	if reg == nil {
		return
	}
	reg.CounterFunc("hidb_replica_rounds_total", "anti-entropy rounds attempted", func() uint64 { return r.rounds.Load() })
	reg.CounterFunc("hidb_replica_installs_total", "checkpoints installed locally", func() uint64 { return r.installs.Load() })
	reg.CounterFunc("hidb_replica_shards_fetched_total", "divergent shard images fetched over the wire", func() uint64 { return r.shardsFetched.Load() })
	reg.CounterFunc("hidb_replica_bytes_fetched_total", "shard image bytes fetched over the wire", func() uint64 { return r.bytesFetched.Load() })
	reg.CounterFunc("hidb_replica_errors_total", "anti-entropy rounds that failed", func() uint64 { return r.errs.Load() })
}
