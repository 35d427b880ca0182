package server

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/durable"
	"repro/internal/proto"
)

// opClass selects the stats counter one request of an opcode bumps.
type opClass uint8

const (
	classOther     opClass = iota // counted in requests only
	classRead                     // Stats.Reads
	classWrite                    // Stats.Writes
	classSyncChunk                // Stats.SyncChunks
	numClasses
)

// opSpec is everything the server knows about one opcode, stated once:
// dispatch, the write coalescer, the completion path and the metric set
// all read this row, so an opcode's facts cannot drift apart.
type opSpec struct {
	label     string  // op= metric label and slow-op Op: the only opcode names telemetry emits
	class     opClass // BATCH is classOther: serveBatch counts its entries
	tenant    bool    // also counted in the aggregate nsOps
	mutates   bool    // refused on a replica, before decode (BATCH: by its kind byte, see mutates)
	barrier   bool    // served after this connection's in-flight coalesced writes (program order)
	coalesced bool    // decoded on the reader, served by the write coalescer (DROPNS: as a barrier)
	premint   bool    // commits a checkpoint: always kept, under span ids minted first for durable to parent under
	keyed     bool    // addresses one key: telemetry may carry its shard index (default keyspace only)
	del       bool    // point write: removes the key
	ttlAck    bool    // point write: acknowledges changed+exp rather than changed alone
	// decode parses a payload of the point shape into the request record
	// (nil: the payload is unconstrained, or of another shape and parsed
	// by serve). ns is the tenant name's bytes, aliasing p: dispatch
	// interns them, so naming a live tenant allocates no string.
	decode func(p []byte) (ns []byte, key, val, exp int64, err error)
	// serve answers an inline op on the reader goroutine: it appends the
	// reply payload to dst and reports when its apply phase ended, or
	// returns an error payload and a nonzero code. nil for coalesced ops.
	serve func(c *conn, rq request, p, dst []byte) (payload []byte, ta time.Time, errCode byte)
}

// opTable holds one row per opcode the server answers; an unknown
// opcode is simply a missing row. HEALTH and PROMOTE deliberately have
// no barrier: a failover decision must not queue behind a backed-up
// write path.
var opTable = [256]*opSpec{
	proto.OpGet:    {label: "get", class: classRead, barrier: true, keyed: true, decode: decodeKey, serve: serveGet},
	proto.OpGetTTL: {label: "get_ttl", class: classRead, barrier: true, keyed: true, decode: decodeKey, serve: serveGet},
	proto.OpNSGet:  {label: "ns_get", class: classRead, tenant: true, barrier: true, keyed: true, decode: decodeNSKey, serve: serveGet},

	proto.OpPut:    {label: "put", class: classWrite, mutates: true, coalesced: true, keyed: true, decode: decodeKeyVal},
	proto.OpPutTTL: {label: "put_ttl", class: classWrite, mutates: true, coalesced: true, keyed: true, ttlAck: true, decode: decodeKeyValExp},
	proto.OpDel:    {label: "del", class: classWrite, mutates: true, coalesced: true, keyed: true, del: true, decode: decodeKey},
	proto.OpNSPut:  {label: "ns_put", class: classWrite, tenant: true, mutates: true, coalesced: true, keyed: true, ttlAck: true, decode: proto.DecodeNSKeyValExp},
	proto.OpNSDel:  {label: "ns_del", class: classWrite, tenant: true, mutates: true, coalesced: true, keyed: true, del: true, decode: decodeNSKey},
	proto.OpDropNS: {label: "drop_ns", class: classWrite, tenant: true, mutates: true, coalesced: true, premint: true, decode: decodeNS},

	proto.OpBatch:      {label: "batch", barrier: true, serve: serveBatch},
	proto.OpRange:      {label: "range", class: classRead, barrier: true, serve: serveRange},
	proto.OpLen:        {label: "len", class: classRead, barrier: true, serve: serveLen},
	proto.OpCheckpoint: {label: "checkpoint", mutates: true, barrier: true, premint: true, serve: serveCheckpoint},
	proto.OpPing:       {label: "ping", serve: servePing},
	proto.OpHealth:     {label: "health", decode: decodeEmpty, serve: serveHealth},
	proto.OpPromote:    {label: "promote", decode: decodeEmpty, serve: servePromote},
	proto.OpListNS:     {label: "list_ns", class: classRead, tenant: true, barrier: true, decode: decodeEmpty, serve: serveListNS},
	proto.OpSync:       {label: "sync", class: classSyncChunk, serve: serveSync},
}

// mutates reports whether a request would change the database: the ops
// a read replica must refuse. A malformed BATCH is refused too (the
// decision precedes decoding), which is fine — the error the client
// gets is the one that tells it where writes go.
func mutates(op byte, p []byte) bool {
	if op == proto.OpBatch {
		return len(p) < 1 || p[0] != proto.BatchGet
	}
	return opTable[op].mutates
}

// The decoders adapt proto's typed codecs to the one shape the request
// record holds.

func decodeKey(p []byte) (ns []byte, key, val, exp int64, err error) {
	key, err = proto.DecodeKey(p)
	return
}

func decodeKeyVal(p []byte) (ns []byte, key, val, exp int64, err error) {
	key, val, err = proto.DecodeKeyVal(p)
	return
}

func decodeKeyValExp(p []byte) (ns []byte, key, val, exp int64, err error) {
	key, val, exp, err = proto.DecodeKeyValExp(p)
	return
}

func decodeNSKey(p []byte) (ns []byte, key, val, exp int64, err error) {
	ns, key, err = proto.DecodeNSKey(p)
	return
}

func decodeNS(p []byte) (ns []byte, key, val, exp int64, err error) {
	ns, err = proto.DecodeNSName(p)
	return
}

func decodeEmpty(p []byte) (ns []byte, key, val, exp int64, err error) {
	if len(p) != 0 {
		err = fmt.Errorf("request carries a %d-byte payload, want none", len(p))
	}
	return
}

// refuse is serve's error return. Errors are cold: the payload is built
// fresh.
func refuse(code byte, msg string) ([]byte, time.Time, byte) {
	return proto.AppendError(nil, code, msg), time.Now(), code
}

func serveGet(c *conn, rq request, _, dst []byte) ([]byte, time.Time, byte) {
	db := c.srv.db
	val, exp, ok := db.NSGetTTL(rq.ns, rq.key)
	ta := time.Now()
	if rq.op == proto.OpGet {
		return proto.AppendFound(dst, ok, val, db.Checkpoints()), ta, 0
	}
	return proto.AppendFoundTTL(dst, ok, val, exp, db.Checkpoints()), ta, 0
}

func serveBatch(c *conn, _ request, p, dst []byte) ([]byte, time.Time, byte) {
	s := c.srv
	kind, items, keys, err := proto.DecodeBatch(p)
	if err != nil {
		return refuse(proto.ErrCodeBadFrame, err.Error())
	}
	switch kind {
	case proto.BatchPut:
		s.st.byClass[classWrite].Add(uint64(len(items)))
		n := s.db.PutBatch(items)
		return proto.AppendU32(dst, uint32(n)), time.Now(), 0
	case proto.BatchDel:
		s.st.byClass[classWrite].Add(uint64(len(keys)))
		n := s.db.DeleteBatch(keys)
		return proto.AppendU32(dst, uint32(n)), time.Now(), 0
	}
	if len(keys) > proto.MaxBatchGet {
		// The reply (9 bytes per key) would exceed the frame payload cap
		// even though the request fit under it.
		return refuse(proto.ErrCodeTooLarge,
			fmt.Sprintf("batch-get of %d keys exceeds the %d-key reply cap", len(keys), proto.MaxBatchGet))
	}
	s.st.byClass[classRead].Add(uint64(len(keys)))
	vals, ok := s.db.GetBatch(keys)
	ta := time.Now()
	return proto.AppendBatchGetReply(dst, vals, ok, s.db.Checkpoints()), ta, 0
}

func serveRange(c *conn, _ request, p, dst []byte) ([]byte, time.Time, byte) {
	s := c.srv
	lo, hi, max, err := proto.DecodeRangeReq(p)
	if err != nil {
		return refuse(proto.ErrCodeBadFrame, err.Error())
	}
	limit := s.cfg.MaxRangeItems
	if max > 0 && int(max) < limit {
		limit = int(max)
	}
	// RangeN bounds work and memory by the limit, not the window size,
	// so a whole-keyspace RANGE costs O(shards·limit).
	items, more := s.db.RangeN(lo, hi, limit, c.rangeBuf[:0])
	ta := time.Now()
	c.rangeBuf = items
	return proto.AppendRangeReply(dst, items, more, s.db.Checkpoints()), ta, 0
}

func serveLen(c *conn, _ request, _, dst []byte) ([]byte, time.Time, byte) {
	db := c.srv.db
	n := uint64(db.Len())
	ta := time.Now()
	return proto.AppendLenReply(dst, n, db.Checkpoints()), ta, 0
}

// serveCheckpoint is the durability barrier: everything this connection
// has been acknowledged for is on disk when the reply arrives. Its apply
// phase is the checkpoint commit itself.
func serveCheckpoint(c *conn, rq request, _, dst []byte) ([]byte, time.Time, byte) {
	db := c.srv.db
	if err := db.CheckpointTraced(rq.tid, rq.sid); err != nil {
		return refuse(proto.ErrCodeInternal, err.Error())
	}
	return proto.AppendU64(dst, db.Checkpoints()), time.Now(), 0
}

func servePing(_ *conn, _ request, p, dst []byte) ([]byte, time.Time, byte) {
	return append(dst, p...), time.Now(), 0
}

// serveHealth is a liveness probe with a staleness report.
func serveHealth(c *conn, _ request, _, dst []byte) ([]byte, time.Time, byte) {
	s := c.srv
	epoch, hash := s.db.CheckpointStamp()
	return proto.AppendHealth(dst, proto.Health{
		ReadOnly:   s.db.Replica(),
		Promotions: s.db.Promotions(),
		Epoch:      epoch,
		Hash:       hash,
	}), time.Now(), 0
}

func servePromote(c *conn, _ request, _, dst []byte) ([]byte, time.Time, byte) {
	n, err := c.srv.db.Promote()
	if err != nil {
		return refuse(proto.ErrCodeNotReplica, err.Error())
	}
	return proto.AppendU64(dst, n), time.Now(), 0
}

func serveListNS(c *conn, _ request, _, dst []byte) ([]byte, time.Time, byte) {
	s := c.srv
	nss := s.db.Namespaces()
	ta := time.Now()
	if len(nss) > proto.MaxListNS {
		return refuse(proto.ErrCodeTooLarge,
			fmt.Sprintf("%d namespaces exceed the %d-entry reply cap", len(nss), proto.MaxListNS))
	}
	out := make([]proto.NSStat, len(nss))
	for i, e := range nss {
		out[i] = proto.NSStat{Name: e.Name, Keys: uint64(e.Keys)}
	}
	dst = proto.AppendNSList(dst, uint64(s.cfg.NSQuota), out)
	if len(dst) > proto.MaxPayload {
		return refuse(proto.ErrCodeTooLarge, "namespace listing exceeds the frame payload cap")
	}
	return dst, ta, 0
}

// maxSyncChunk caps the blob bytes in one SYNC reply; a request's own
// maxlen can only lower it.
const maxSyncChunk = 256 << 10

// serveSync answers with bytes [off, off+maxlen) of the committed blob
// the request names by hash: the manifest or an image it lists, read
// through the connection's open BlobReader straight into the reply. A
// hash the committed checkpoint does not name is stale — the fetcher is
// working from a superseded manifest and must start a new round.
func serveSync(c *conn, _ request, p, dst []byte) ([]byte, time.Time, byte) {
	s := c.srv
	hash, off, maxLen, err := proto.DecodeSyncReq(p)
	if err != nil {
		return refuse(proto.ErrCodeBadFrame, err.Error())
	}
	if c.blob == nil || c.blob.Hash() != hash {
		c.dropBlob()
		if c.blob, err = s.db.OpenBlob(hash); err != nil {
			return refuseSync(err)
		}
	}
	size := uint64(c.blob.Size())
	if off > size {
		return refuse(proto.ErrCodeBadFrame, fmt.Sprintf("offset %d past the %d-byte blob", off, size))
	}
	limit := uint64(maxSyncChunk)
	if maxLen > 0 && uint64(maxLen) < limit {
		limit = uint64(maxLen)
	}
	n := int(min(limit, size-off))
	more := off+uint64(n) < size
	dst = proto.AppendSyncChunk(dst, more, nil)
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	if _, err := c.blob.ReadAt(dst[at:], int64(off)); err != nil {
		c.dropBlob()
		return refuseSync(err)
	}
	if !more {
		c.dropBlob() // the fetcher has the blob's last chunk: release the file
	}
	s.st.syncBytesOut.Add(uint64(n))
	return dst, time.Now(), 0
}

// refuseSync answers a SYNC whose blob could not be read: stale when a
// newer checkpoint superseded it, internal otherwise (a file that
// rotted on disk is refused, never served).
func refuseSync(err error) ([]byte, time.Time, byte) {
	if errors.Is(err, durable.ErrStale) {
		return refuse(proto.ErrCodeStale, err.Error())
	}
	return refuse(proto.ErrCodeInternal, err.Error())
}

// dropBlob closes the connection's SYNC stream, if any.
func (c *conn) dropBlob() {
	if c.blob != nil {
		c.blob.Close()
		c.blob = nil
	}
}
