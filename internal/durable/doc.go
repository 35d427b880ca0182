// Package durable is a crash-safe on-disk database over the sharded
// history-independent store (repro/internal/shard).
//
// A conventional durable engine pairs its data files with a write-ahead
// log, but under history independence a WAL is forbidden: a log of
// operations IS the operation history the paper's structures exist to
// erase (Bender et al., PODS 2016). This engine therefore persists
// nothing but canonical state. A DB is a list of cells — the default
// keyspace is the cell named "", each tenant one more — and its
// directory holds one canonical image file per shard of each cell — a
// pure function of (shard contents, seed), already byte-identical
// across operation histories — plus a checksummed manifest (v3: one
// cell table, see manifest.go) naming them by seed and content hash.
// The manifest is canonical too, so a checkpoint IS its manifest: its
// SHA-256 (CheckpointStamp, hashed once per commit) names the
// checkpoint, Blob exports the manifest or any image it lists by hash,
// and Install takes a manifest's bytes plus a way to fetch blobs — the
// whole replication surface. Checkpoint and VerifyCanonical are each
// one loop over the cells, and there is one loader: recovery is "decode
// MANIFEST, load the cells it names from local files", Install is
// "decode these bytes, load the cells they name from local files or,
// failing that, the fetch" — the same decoder, the same loop, one image
// in memory at a time. Commits follow the classic atomic-publish
// sequence:
//
//	write shard images to *.tmp → fsync each → rename into place →
//	fsync dir → write MANIFEST.tmp → fsync → rename over MANIFEST →
//	fsync dir → secure-wipe and unlink superseded files
//
// The manifest rename is the single commit point, so a crash at any
// step recovers to the last complete checkpoint with no partial state;
// and because every persisted byte is canonical, the recovered disk
// leaks nothing about the operations (or crashes) that preceded it.
//
// A checkpoint touches each image's bytes once. Dirty shards are taken
// one at a time: the shard's sorted contents are copied out under its
// read lock (held for the copy only), the canonical image is rendered
// from the copy into one staging buffer sized in advance — an image's
// length is a function of its header — then hashed, compared with the
// committed entry, and published before the next shard is touched, so
// at most one image is resident. The files are content-addressed and
// unreferenced by the old manifest, so publishing shard by shard is as
// safe as publishing at the end: a checkpoint that fails part-way
// leaves orphans, never a mixed state, and the next checkpoint or
// install wipes them — even one that finds nothing to commit, after
// first writing the committed MANIFEST back when the failed attempt's
// may have landed (clearDebris).
// Reads are the mirror: files are read at the size the manifest gives
// (checked before a byte is read) into one buffer reused across images —
// an install's fetched images land in that same buffer — hashed against
// the manifest, and decoded from exact-length slices, length and
// checksum verified before a slot is allocated. An install decodes only
// what it changes: a live cell whose committed images the new manifest
// names unchanged, at current versions, is carried over as it is.
// Exports hold no copy either: a BlobReader verifies its file's hash
// once, through a fixed scratch, and then serves each range with one
// positional read under the checkpoint lock, after checking that no
// commit or sweep has moved the directory since — so a swept file's
// zeros are never served.
//
// Checkpoints are incremental: each shard carries a version counter
// bumped under its write lock, and the checkpointer rewrites only
// shards whose version moved — then only those whose canonical bytes
// actually changed. Incrementality cannot leak history: skipping an
// unchanged shard reproduces, by definition, the byte-identical file a
// full rewrite would have produced.
//
// TTL expiry composes with all of this without weakening it: every
// checkpoint first sweeps the entries already expired at the current
// epoch (see repro/internal/expiry), so committed directories hold
// exactly the live-set-at-E and an expired entry's bytes cannot
// outlive the checkpoint after its deadline — the superseded images
// that held them are zero-wiped as always. Two databases with
// different TTL operation histories but the same live set at epoch E
// commit byte-identical directories. SweepExpired is that same sweep at
// an explicit epoch; the network server calls it on epoch transitions.
//
// The DB also owns the node's role — one in-memory bit, never persisted
// (Replica; opened from Options.NoSweep, changed only by Promote and
// Demote, both under the checkpoint lock). A replica's directory follows
// a peer's checkpoints: Install is allowed, checkpoints do not sweep
// (dead entries leave when the primary's swept checkpoint ships), the
// background checkpointer lets its ticks pass, and the network server
// refuses writes. A primary's follows its own writes: the reverse of
// each, Install refused with ErrNotReplica. Because Install holds the
// checkpoint lock from its role check to its publish, a promotion waits
// out an install in flight and none can start after it — the whole
// failover fence is that one bit under that one lock.
//
// The live keyspaces are one immutable snapshot (namespace.Set) behind
// one atomic pointer, replaced copy-on-write by tenant creation, drop
// and Install, so every reader sees the cells of one moment; each cell
// carries the images last committed for it, which is what a checkpoint
// compares shard versions against.
//
// DB is safe for concurrent use and is the storage engine behind the
// network server (repro/internal/server): point and batch operations
// (including the server's mixed-write ApplyBatch) count toward a
// dirty-op threshold that, with a poll interval, drives the background
// checkpointer — one checkpoint per crossing of the threshold, at most
// one in flight, re-checked after each commit; Checkpoint is an
// explicit durability barrier; Close commits a final checkpoint while
// Abandon deliberately does not — the kill -9 path whose recovery the
// crash suite proves.
//
// All filesystem access goes through the FS interface so the
// crash-injection suite (MemFS) can fail or halt the commit sequence
// at every single step and prove recovery.
package durable
