// Package shard provides Store, a concurrent, hash-sharded key-value
// front-end over the history-independent cache-oblivious B-tree
// (repro/internal/cobt). The paper's structures are single-threaded by
// design; Store is the standard first scaling step: split the key space
// into 2^k independent shards by a seeded hash, give each shard its own
// Dictionary and sync.RWMutex, and let operations on different shards
// proceed in parallel.
//
// The decomposition preserves history independence shard by shard: the
// shard assignment is a deterministic function of (key, seed) — never of
// the operation order — so each shard's key set, and therefore each
// shard's on-disk image, is a pure function of the store's current
// contents and its randomness. The set of per-shard images leaks nothing
// about the sequence of operations that produced it, just like a single
// Dictionary image.
//
// Concurrency contract:
//
//   - Point ops (Put/Get/Has/Delete) lock exactly one shard.
//   - Batch ops (PutBatch/GetBatch/DeleteBatch, and the mixed
//     put-delete ApplyBatch used by the network server's write
//     coalescer) group keys by shard and take each shard's lock exactly
//     once, in shard order, applying same-shard operations in batch
//     order.
//   - Scan ops never hold more than one shard lock at a time: Range
//     copies each shard's window under that shard's own brief read
//     lock; Ascend streams each shard in fixed-size chunks, re-locking
//     per refill. A long scan never blocks writers on unrelated shards.
//     Range is per-shard consistent, Ascend per-chunk consistent;
//     neither is a cross-shard atomic cut.
//   - Whole-store ops (Len, WriteTo, Stats, CheckInvariants, Min, Max)
//     hold every shard's lock simultaneously — acquired in shard order,
//     so they cannot deadlock against each other or against point ops —
//     and therefore observe an atomic cut across shards.
//   - Shards with a non-nil iomodel.Tracker serialize reads too (the
//     tracker's LRU cache mutates on every touch), so DAM accounting is
//     exact; run with nil trackers for maximum read parallelism.
//
// Entries may carry a TTL (PutTTL/GetTTL): each shard keeps an expiry
// index next to its data dictionary, under the same lock and inside
// the same canonical image. Liveness follows repro/internal/expiry —
// the logical state at epoch E is exactly the entries with exp == 0 or
// exp > E — with reads filtering lazily against the store's injected
// clock and SweepExpired(E) physically removing exactly the entries
// dead at E, so the surviving bytes are a pure function of (contents,
// epoch), never of the sweep schedule. A sweep lists and removes each
// shard's dead entries under one hold of that shard's lock, so it
// composes with concurrent upserts without any conditional op.
//
// Every shard carries a version counter, bumped under its write lock by
// every operation that may have changed the shard's contents. A
// checkpointer (repro/internal/durable) pairs ShardVersion with
// SnapshotShard to persist only the shards that changed since the last
// checkpoint — incrementality stays history independent because each
// shard's canonical image is a pure function of (contents, seed), never
// of which operations dirtied it.
package shard
