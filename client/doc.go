// Package client is the Go client for hidbd, the network server over
// the durable history-independent database (see repro/internal/server
// and cmd/hidbd). It speaks the length-prefixed binary protocol of
// repro/internal/proto, documented in docs/PROTOCOL.md.
//
// Conn is one pipelined connection: any number of goroutines may issue
// requests on it concurrently, each request gets a fresh id, and a
// dedicated reader routes every reply — which may arrive out of request
// order — back to its caller. A caller encodes its request in place
// into the connection's outbound buffer and a dedicated writer writes
// whatever has gathered there as one burst (the design of the server's
// connection), so pipelining costs one syscall per burst, not per
// request. Client is a fixed-size pool of Conns with the same method
// set, spreading callers round-robin when one connection's reply stream
// would otherwise serialize them.
//
// A point operation's round trip allocates nothing at steady state. The
// per-call state — wake channel, reply buffer, reply timer — is a record
// pooled per Conn, and request payloads are built on the caller's stack.
// One ownership rule makes the pooling safe: a reply payload belongs to
// its call record until release, and anything a method returns is
// decoded or copied out of it first — which is why SyncChunk appends to
// a buffer the caller supplies rather than returning a slice of the
// reply. No record keeps a buffer past 64 KiB, and a call that timed out
// gives its record up rather than back.
//
// The pool is self-healing. A Conn never recovers once its transport
// fails — in-flight and future calls on it return ErrConnClosed — but
// the Client detects broken members on the next selection, skips them
// in favor of live connections, and redials the dead slot in the
// background with exponential backoff (20ms doubling to a 1s cap)
// until the server is reachable again. The pool stays fixed-size
// (slots are replaced, never dropped or added) and never replays
// failed requests: callers see ErrConnClosed for work that was in
// flight when the connection died and decide idempotency themselves.
//
// Server-side ordering is program order per connection: a request
// issued after a reply was received is ordered after it, and a
// pipelined read is ordered after the same connection's in-flight
// writes. Checkpoint is a durability barrier: when it returns, every
// operation this connection has had acknowledged is on disk.
//
// Entries may carry a TTL: PutTTL writes an ABSOLUTE expiry epoch
// (unix seconds — callers resolve "30 seconds from now" themselves, so
// the wire carries state, never request timing) and GetTTL echoes it
// back. An entry whose expiry has passed reads as absent everywhere
// from the moment the epoch passes it; the server removes the bytes
// with its deterministic sweep.
//
// A connection may point at a read replica. Reads behave identically;
// mutating calls fail with an error matching both the ErrReadOnly
// sentinel (errors.Is — route the write to the primary) and a typed
// *proto.RemoteError with code ErrCodeReadOnly (errors.As). Health
// and SyncChunk are all of replication: Health names the committed
// checkpoint by its manifest's SHA-256, SyncChunk fetches that manifest
// and the image files it names, each by hash (see
// repro/internal/replica).
package client
