// Package server implements hidbd, the network front-end over the
// durable history-independent database (repro/internal/durable). It
// speaks the length-prefixed binary protocol of repro/internal/proto
// over TCP (or any net.Conn via ServeConn — the tests drive it over
// net.Pipe).
//
// # Connection model
//
// Each connection gets two goroutines: a reader that decodes frames
// (one proto.FrameReader per connection) and dispatches them, and a
// writer. Replies are encoded straight into the connection's outbound
// byte buffer as they are produced; the writer swaps that buffer for a
// spare and writes the whole burst with one syscall, so pipelined
// replies cost one write per burst, not one per reply. Replies carry
// the request id of the frame they answer and may be written out of
// request order. A frame whose version byte is not proto.Version is
// answered with ErrCodeVersion and the connection closed; there is one
// frame layout and no compatibility mode.
//
// # Dispatch
//
// Everything the server knows about an opcode is one row of opTable
// (ops.go). A parsed frame becomes one request record, and dispatch is
// the same steps for every opcode: look up the row (none:
// ErrCodeUnknownOp), refuse a mutation on a replica, count, decode,
// then submit the record to the write coalescer or wait out the
// barrier and serve it inline. Every path ends in finish (metrics.go),
// the one place a request becomes a reply, histogram observations, a
// span tree and a slow-op line.
//
// # Write coalescing
//
// Inline ops execute on the reader goroutine — a read takes one shard
// read-lock and returns. The rows marked coalesced (the point writes)
// go to a server-wide batcher: a single goroutine that drains every
// connection's pending writes, groups them by keyspace (the default
// keyspace is the one named ""), and applies each group with one
// DB.NSApplyBatch, taking each shard's write lock once per drain
// instead of once per operation. A group preserves each connection's
// submission order, and per-op outcome flags route each reply back to
// its connection; DROPNS rides the same queue as a barrier. Under
// concurrent load the batcher turns k lock acquisitions into at most
// min(k, shards) — the same trick PutBatch plays for one caller,
// applied across callers.
//
// # Ordering
//
// Effects on one connection follow program order: the rows marked
// barrier (reads, CHECKPOINT) wait for that connection's in-flight
// writes to be applied first, so a pipelined PUT→GET of the same key on
// one connection always reads its own write. No ordering holds across
// connections beyond the linearizability of the store itself.
//
// # Expiry sweeping
//
// Between drains the coalescer goroutine runs an epoch-triggered sweep
// (Config.SweepInterval bounds only its reaction latency): when the
// database clock's epoch advances, DB.SweepExpired — the same sweep a
// checkpoint runs before rendering — removes the entries already dead
// at the new epoch, in every keyspace, each shard listed and swept
// under one hold of its lock, so a key a client resurrects around the
// sweep survives. What gets removed is a pure function of (contents,
// epoch), never of the sweeper's schedule; a server that never sweeps
// converges to the same bytes at its next checkpoint. Replicas sweep
// nothing.
//
// # Replication
//
// The server is also the serving side of the read-replica protocol:
// HEALTH names the last committed checkpoint by its manifest's SHA-256,
// and SYNC ships any blob of that checkpoint — the manifest, or an
// image file it lists — by content hash, chunked; a hash the checkpoint
// does not name is answered ErrCodeStale. Over a DB in the replica role
// (durable.DB.Replica — the server keeps no role of its own) the server
// is itself a replica: mutating requests are refused with
// ErrCodeReadOnly while reads, HEALTH and SYNC keep working, so
// replicas both serve read traffic and feed downstream replicas.
// PROMOTE is DB.Promote: one flip under the checkpoint lock, after
// which writes are accepted and no peer's checkpoint installs. See
// repro/internal/replica for the fetching/installing side.
//
// # Limits and shutdown
//
// MaxConns bounds concurrent connections (excess connections receive an
// ErrCodeBusy error frame and are closed). An idle read deadline and a
// per-flush write deadline bound resource capture by dead peers.
// Shutdown stops accepting, unblocks idle readers, drains in-flight
// requests, then commits a final checkpoint so a clean shutdown loses
// nothing. Close is the impolite variant: it severs connections and
// skips the checkpoint, leaving the directory at the last commit —
// exactly the crash the durable layer is built to absorb.
package server
