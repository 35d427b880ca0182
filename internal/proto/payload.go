package proto

// Payload codecs for each opcode. Encoders append to a caller-supplied
// slice so hot paths can reuse buffers; decoders validate every count
// against the actual payload length BEFORE allocating, so hostile
// payloads error instead of over-allocating. Signed keys and values
// travel as big-endian two's-complement u64.

import (
	"encoding/binary"
	"fmt"
)

// AppendKey appends a bare key payload (OpGet/OpDel requests).
func AppendKey(dst []byte, key int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(key))
}

// DecodeKey decodes a bare key payload.
func DecodeKey(p []byte) (int64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("proto: key payload is %d bytes, want 8", len(p))
	}
	return int64(binary.BigEndian.Uint64(p)), nil
}

// AppendKeyVal appends a key-value payload (OpPut requests).
func AppendKeyVal(dst []byte, key, val int64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(key))
	return binary.BigEndian.AppendUint64(dst, uint64(val))
}

// DecodeKeyVal decodes a key-value payload.
func DecodeKeyVal(p []byte) (key, val int64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("proto: key-val payload is %d bytes, want 16", len(p))
	}
	return int64(binary.BigEndian.Uint64(p)), int64(binary.BigEndian.Uint64(p[8:])), nil
}

// AppendBool appends a one-byte boolean payload (OpPut/OpDel replies).
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeBool decodes a one-byte boolean payload.
func DecodeBool(p []byte) (bool, error) {
	if len(p) != 1 || p[0] > 1 {
		return false, fmt.Errorf("proto: bad bool payload % x", p)
	}
	return p[0] == 1, nil
}

// AppendU64 appends an unsigned counter payload (OpLen/OpCheckpoint
// replies).
func AppendU64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// DecodeU64 decodes an unsigned counter payload.
func DecodeU64(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("proto: u64 payload is %d bytes, want 8", len(p))
	}
	return binary.BigEndian.Uint64(p), nil
}

// AppendKeyValExp appends an OpPutTTL request: key, value, and the
// absolute expiry epoch in unix seconds (0: never expires).
func AppendKeyValExp(dst []byte, key, val, exp int64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(key))
	dst = binary.BigEndian.AppendUint64(dst, uint64(val))
	return binary.BigEndian.AppendUint64(dst, uint64(exp))
}

// DecodeKeyValExp decodes an OpPutTTL request. A negative expiry is
// rejected — epochs are unix seconds, and an entry that should be gone
// already is expressed by an expiry in the past, not a negative one.
func DecodeKeyValExp(p []byte) (key, val, exp int64, err error) {
	if len(p) != 24 {
		return 0, 0, 0, fmt.Errorf("proto: key-val-exp payload is %d bytes, want 24", len(p))
	}
	key = int64(binary.BigEndian.Uint64(p))
	val = int64(binary.BigEndian.Uint64(p[8:]))
	exp = int64(binary.BigEndian.Uint64(p[16:]))
	if exp < 0 {
		return 0, 0, 0, fmt.Errorf("proto: negative expiry epoch %d", exp)
	}
	return key, val, exp, nil
}

// AppendTTLAck appends an OpPutTTL reply: the changed flag plus the
// absolute expiry now in force, echoed back.
func AppendTTLAck(dst []byte, changed bool, exp int64) []byte {
	dst = AppendBool(dst, changed)
	return binary.BigEndian.AppendUint64(dst, uint64(exp))
}

// DecodeTTLAck decodes an OpPutTTL reply.
func DecodeTTLAck(p []byte) (changed bool, exp int64, err error) {
	if len(p) != 9 || p[0] > 1 {
		return false, 0, fmt.Errorf("proto: bad put-ttl reply payload (%d bytes)", len(p))
	}
	exp = int64(binary.BigEndian.Uint64(p[1:]))
	if exp < 0 {
		return false, 0, fmt.Errorf("proto: negative expiry epoch %d in reply", exp)
	}
	return p[0] == 1, exp, nil
}

// AppendFoundTTL appends an OpGetTTL reply: found flag, the value, the
// entry's recorded absolute expiry (both zero when absent; expiry zero
// also means "never expires" on a found entry), and the serving node's
// checkpoint epoch.
func AppendFoundTTL(dst []byte, found bool, val, exp int64, epoch uint64) []byte {
	dst = AppendBool(dst, found)
	dst = binary.BigEndian.AppendUint64(dst, uint64(val))
	dst = binary.BigEndian.AppendUint64(dst, uint64(exp))
	return binary.BigEndian.AppendUint64(dst, epoch)
}

// DecodeFoundTTL decodes an OpGetTTL reply.
func DecodeFoundTTL(p []byte) (val, exp int64, epoch uint64, found bool, err error) {
	if len(p) != 25 || p[0] > 1 {
		return 0, 0, 0, false, fmt.Errorf("proto: bad get-ttl reply payload (%d bytes)", len(p))
	}
	val = int64(binary.BigEndian.Uint64(p[1:]))
	exp = int64(binary.BigEndian.Uint64(p[9:]))
	if exp < 0 {
		return 0, 0, 0, false, fmt.Errorf("proto: negative expiry epoch %d in reply", exp)
	}
	return val, exp, binary.BigEndian.Uint64(p[17:]), p[0] == 1, nil
}

// AppendFound appends an OpGet reply: found flag, the value (zero when
// absent), and the serving node's checkpoint epoch — the count of
// checkpoints this node has committed or installed since process start.
// The epoch is the bounded-staleness stamp: on a replica it identifies
// exactly which installed checkpoint served the read. It is node-local,
// in-memory state, never persisted, so it leaks no history to disk.
func AppendFound(dst []byte, found bool, val int64, epoch uint64) []byte {
	dst = AppendBool(dst, found)
	dst = binary.BigEndian.AppendUint64(dst, uint64(val))
	return binary.BigEndian.AppendUint64(dst, epoch)
}

// DecodeFound decodes an OpGet reply.
func DecodeFound(p []byte) (val int64, epoch uint64, found bool, err error) {
	if len(p) != 17 || p[0] > 1 {
		return 0, 0, false, fmt.Errorf("proto: bad get reply payload (%d bytes)", len(p))
	}
	return int64(binary.BigEndian.Uint64(p[1:])), binary.BigEndian.Uint64(p[9:]), p[0] == 1, nil
}

// AppendLenReply appends an OpLen reply: the element count plus the
// serving node's checkpoint epoch.
func AppendLenReply(dst []byte, count, epoch uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, count)
	return binary.BigEndian.AppendUint64(dst, epoch)
}

// DecodeLenReply decodes an OpLen reply.
func DecodeLenReply(p []byte) (count, epoch uint64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("proto: len reply is %d bytes, want 16", len(p))
	}
	return binary.BigEndian.Uint64(p), binary.BigEndian.Uint64(p[8:]), nil
}

// Entry ceilings derived from MaxPayload. Request payload sizes bound
// most batch shapes implicitly, but two replies are BIGGER than the
// requests that elicit them, so the smaller reply-side bound is the
// real protocol limit — servers reject requests over it with
// ErrCodeTooLarge rather than emit a reply frame no client could read.
const (
	// MaxBatchGet caps keys in one BatchGet: the reply carries
	// 12 + 9·n bytes (epoch, count, then found+val per key).
	MaxBatchGet = (MaxPayload - 12) / 9
	// MaxRangeItems caps items in one OpRange reply: 13 + 16·n bytes
	// (more flag, epoch, count, then key+val pairs). Servers clamp
	// their configured range cap to it.
	MaxRangeItems = (MaxPayload - 13) / 16
)

// AppendBatchPut appends an OpBatch request payload of kind BatchPut.
func AppendBatchPut(dst []byte, items []Item) []byte {
	dst = append(dst, BatchPut)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(items)))
	for _, it := range items {
		dst = binary.BigEndian.AppendUint64(dst, uint64(it.Key))
		dst = binary.BigEndian.AppendUint64(dst, uint64(it.Val))
	}
	return dst
}

// AppendBatchKeys appends an OpBatch request payload of kind BatchGet
// or BatchDel: a key list.
func AppendBatchKeys(dst []byte, kind byte, keys []int64) []byte {
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.BigEndian.AppendUint64(dst, uint64(k))
	}
	return dst
}

// DecodeBatch decodes an OpBatch request payload. Exactly one of items
// (kind BatchPut) and keys (BatchGet/BatchDel) is non-nil for a
// non-empty batch.
func DecodeBatch(p []byte) (kind byte, items []Item, keys []int64, err error) {
	if len(p) < 5 {
		return 0, nil, nil, fmt.Errorf("proto: batch payload is %d bytes, want >= 5", len(p))
	}
	kind = p[0]
	n := binary.BigEndian.Uint32(p[1:])
	body := p[5:]
	switch kind {
	case BatchPut:
		if uint64(len(body)) != uint64(n)*16 {
			return 0, nil, nil, fmt.Errorf("proto: batch-put of %d entries has %d payload bytes", n, len(body))
		}
		items = make([]Item, n)
		for i := range items {
			items[i].Key = int64(binary.BigEndian.Uint64(body[i*16:]))
			items[i].Val = int64(binary.BigEndian.Uint64(body[i*16+8:]))
		}
	case BatchGet, BatchDel:
		if uint64(len(body)) != uint64(n)*8 {
			return 0, nil, nil, fmt.Errorf("proto: batch key list of %d entries has %d payload bytes", n, len(body))
		}
		keys = make([]int64, n)
		for i := range keys {
			keys[i] = int64(binary.BigEndian.Uint64(body[i*8:]))
		}
	default:
		return 0, nil, nil, fmt.Errorf("proto: unknown batch kind %d", kind)
	}
	return kind, items, keys, nil
}

// AppendU32 appends a 32-bit count payload (batch-put/batch-del
// replies: the number of keys whose presence changed).
func AppendU32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}

// DecodeU32 decodes a 32-bit count payload.
func DecodeU32(p []byte) (uint32, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("proto: u32 payload is %d bytes, want 4", len(p))
	}
	return binary.BigEndian.Uint32(p), nil
}

// AppendBatchGetReply appends a BatchGet reply: the serving node's
// checkpoint epoch, a count, then a found(1) val(8) pair per requested
// key, in request order.
func AppendBatchGetReply(dst []byte, vals []int64, found []bool, epoch uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, epoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(vals)))
	for i, v := range vals {
		dst = AppendBool(dst, found[i])
		dst = binary.BigEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// DecodeBatchGetReply decodes a BatchGet reply.
func DecodeBatchGetReply(p []byte) (vals []int64, found []bool, epoch uint64, err error) {
	if len(p) < 12 {
		return nil, nil, 0, fmt.Errorf("proto: batch-get reply is %d bytes, want >= 12", len(p))
	}
	epoch = binary.BigEndian.Uint64(p)
	n := binary.BigEndian.Uint32(p[8:])
	body := p[12:]
	if uint64(len(body)) != uint64(n)*9 {
		return nil, nil, 0, fmt.Errorf("proto: batch-get reply of %d entries has %d payload bytes", n, len(body))
	}
	vals = make([]int64, n)
	found = make([]bool, n)
	for i := range vals {
		e := body[i*9 : i*9+9]
		if e[0] > 1 {
			return nil, nil, 0, fmt.Errorf("proto: batch-get reply entry %d has bad found byte", i)
		}
		found[i] = e[0] == 1
		vals[i] = int64(binary.BigEndian.Uint64(e[1:]))
	}
	return vals, found, epoch, nil
}

// AppendRangeReq appends an OpRange request: inclusive bounds plus a
// cap on returned items (0: server default).
func AppendRangeReq(dst []byte, lo, hi int64, max uint32) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(lo))
	dst = binary.BigEndian.AppendUint64(dst, uint64(hi))
	return binary.BigEndian.AppendUint32(dst, max)
}

// DecodeRangeReq decodes an OpRange request.
func DecodeRangeReq(p []byte) (lo, hi int64, max uint32, err error) {
	if len(p) != 20 {
		return 0, 0, 0, fmt.Errorf("proto: range request is %d bytes, want 20", len(p))
	}
	lo = int64(binary.BigEndian.Uint64(p))
	hi = int64(binary.BigEndian.Uint64(p[8:]))
	max = binary.BigEndian.Uint32(p[16:])
	return lo, hi, max, nil
}

// AppendRangeReply appends an OpRange reply: a more flag (the cap
// truncated the scan), the serving node's checkpoint epoch, a count,
// then key(8) val(8) pairs in ascending key order.
func AppendRangeReply(dst []byte, items []Item, more bool, epoch uint64) []byte {
	dst = AppendBool(dst, more)
	dst = binary.BigEndian.AppendUint64(dst, epoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(items)))
	for _, it := range items {
		dst = binary.BigEndian.AppendUint64(dst, uint64(it.Key))
		dst = binary.BigEndian.AppendUint64(dst, uint64(it.Val))
	}
	return dst
}

// DecodeRangeReply decodes an OpRange reply.
func DecodeRangeReply(p []byte) (items []Item, epoch uint64, more bool, err error) {
	if len(p) < 13 || p[0] > 1 {
		return nil, 0, false, fmt.Errorf("proto: range reply is %d bytes, want >= 13", len(p))
	}
	more = p[0] == 1
	epoch = binary.BigEndian.Uint64(p[1:])
	n := binary.BigEndian.Uint32(p[9:])
	body := p[13:]
	if uint64(len(body)) != uint64(n)*16 {
		return nil, 0, false, fmt.Errorf("proto: range reply of %d items has %d payload bytes", n, len(body))
	}
	items = make([]Item, n)
	for i := range items {
		items[i].Key = int64(binary.BigEndian.Uint64(body[i*16:]))
		items[i].Val = int64(binary.BigEndian.Uint64(body[i*16+8:]))
	}
	return items, epoch, more, nil
}

// MaxSyncChunk caps the bytes in one SYNC reply: 1 + n bytes (more
// flag, then blob bytes). Servers clamp the request's maxlen to it.
const MaxSyncChunk = MaxPayload - 1

// AppendSyncReq appends an OpSync request: the SHA-256 of a blob of the
// committed checkpoint (the manifest — the hash a HEALTH reply carries —
// or an image file it names), a byte offset into the blob, and the
// maximum bytes wanted back (0: the server's default; always clamped to
// MaxSyncChunk). The hash is the whole address: no keyspace, no index.
func AppendSyncReq(dst []byte, hash [32]byte, offset uint64, maxLen uint32) []byte {
	dst = append(dst, hash[:]...)
	dst = binary.BigEndian.AppendUint64(dst, offset)
	return binary.BigEndian.AppendUint32(dst, maxLen)
}

// DecodeSyncReq decodes an OpSync request.
func DecodeSyncReq(p []byte) (hash [32]byte, offset uint64, maxLen uint32, err error) {
	if len(p) != 44 {
		return hash, 0, 0, fmt.Errorf("proto: sync request is %d bytes, want 44", len(p))
	}
	copy(hash[:], p)
	return hash, binary.BigEndian.Uint64(p[32:]), binary.BigEndian.Uint32(p[40:]), nil
}

// AppendSyncChunk appends an OpSync reply: a more flag (the blob has
// bytes past this chunk) and the chunk itself.
func AppendSyncChunk(dst []byte, more bool, data []byte) []byte {
	dst = AppendBool(dst, more)
	return append(dst, data...)
}

// DecodeSyncChunk decodes an OpSync reply. The returned data aliases p.
func DecodeSyncChunk(p []byte) (data []byte, more bool, err error) {
	if len(p) < 1 || p[0] > 1 {
		return nil, false, fmt.Errorf("proto: sync chunk is %d bytes, want >= 1 with a bool flag", len(p))
	}
	return p[1:], p[0] == 1, nil
}

// Health is an OpHealth reply: the node's role and checkpoint
// position. Promotions counts the times this process has been promoted
// to primary (zero for a node started writable); Epoch is the node's
// checkpoint epoch (checkpoints committed or installed since process
// start); Hash is the SHA-256 of the committed manifest encoding —
// two nodes serving identical checkpoints report identical hashes, so
// a failover coordinator can pick the freshest replica by content, not
// by any persisted election record. All fields are in-memory state.
type Health struct {
	ReadOnly   bool
	Promotions uint64
	Epoch      uint64
	Hash       [32]byte
}

// AppendHealth appends an OpHealth reply.
func AppendHealth(dst []byte, h Health) []byte {
	dst = AppendBool(dst, h.ReadOnly)
	dst = binary.BigEndian.AppendUint64(dst, h.Promotions)
	dst = binary.BigEndian.AppendUint64(dst, h.Epoch)
	return append(dst, h.Hash[:]...)
}

// DecodeHealth decodes an OpHealth reply.
func DecodeHealth(p []byte) (Health, error) {
	var h Health
	if len(p) != 49 || p[0] > 1 {
		return h, fmt.Errorf("proto: health reply is %d bytes, want 49", len(p))
	}
	h.ReadOnly = p[0] == 1
	h.Promotions = binary.BigEndian.Uint64(p[1:])
	h.Epoch = binary.BigEndian.Uint64(p[9:])
	copy(h.Hash[:], p[17:])
	return h, nil
}

// MaxNSName bounds a tenant name's length in bytes on the wire. It
// matches the storage layer's bound, keeps every namespaced request
// inside one frame, and bounds a LISTNS reply's per-tenant overhead.
const MaxNSName = 128

// MaxListNS caps tenants in one LISTNS reply: the reply carries
// 12 + (2+name+8) bytes per tenant, at least 11 each, so this is the
// worst-case (single-byte names) ceiling servers enforce.
const MaxListNS = (MaxPayload - 12) / 11

// appendNSName appends the tenant-name prefix: nslen(2) name.
func appendNSName(dst []byte, ns string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ns)))
	return append(dst, ns...)
}

// decodeNSName decodes the tenant-name prefix and returns the name's
// bytes and the remaining payload, both aliasing p: a receiver that only
// needs to find the tenant can look it up by these bytes without
// building a string per request. Name length is validated against
// MaxNSName and the payload length.
func decodeNSName(p []byte) (ns, rest []byte, err error) {
	if len(p) < 2 {
		return nil, nil, fmt.Errorf("proto: namespaced payload is %d bytes, want >= 2", len(p))
	}
	n := int(binary.BigEndian.Uint16(p))
	if n == 0 || n > MaxNSName {
		return nil, nil, fmt.Errorf("proto: namespace name length %d, want 1..%d", n, MaxNSName)
	}
	if len(p) < 2+n {
		return nil, nil, fmt.Errorf("proto: namespaced payload truncated inside the name")
	}
	return p[2 : 2+n], p[2+n:], nil
}

// AppendNSKeyValExp appends an OpNSPut request: the tenant name, then
// key, value, and absolute expiry epoch (0: never expires).
func AppendNSKeyValExp(dst []byte, ns string, key, val, exp int64) []byte {
	dst = appendNSName(dst, ns)
	return AppendKeyValExp(dst, key, val, exp)
}

// DecodeNSKeyValExp decodes an OpNSPut request. The returned name
// aliases p.
func DecodeNSKeyValExp(p []byte) (ns []byte, key, val, exp int64, err error) {
	ns, rest, err := decodeNSName(p)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	key, val, exp, err = DecodeKeyValExp(rest)
	return ns, key, val, exp, err
}

// AppendNSKey appends an OpNSGet/OpNSDel request: the tenant name plus
// a key.
func AppendNSKey(dst []byte, ns string, key int64) []byte {
	dst = appendNSName(dst, ns)
	return binary.BigEndian.AppendUint64(dst, uint64(key))
}

// DecodeNSKey decodes an OpNSGet/OpNSDel request. The returned name
// aliases p.
func DecodeNSKey(p []byte) (ns []byte, key int64, err error) {
	ns, rest, err := decodeNSName(p)
	if err != nil {
		return nil, 0, err
	}
	key, err = DecodeKey(rest)
	return ns, key, err
}

// AppendNSName appends a bare tenant-name payload (OpDropNS requests).
func AppendNSName(dst []byte, ns string) []byte { return appendNSName(dst, ns) }

// DecodeNSName decodes a bare tenant-name payload. The returned name
// aliases p.
func DecodeNSName(p []byte) ([]byte, error) {
	ns, rest, err := decodeNSName(p)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("proto: %d trailing bytes after namespace name", len(rest))
	}
	return ns, nil
}

// NSStat is one tenant in a LISTNS reply: its name and live key count.
type NSStat struct {
	Name string
	Keys uint64
}

// AppendNSList appends an OpListNS reply: the server's per-tenant key
// quota (0: unlimited), a count, then each tenant's name and live key
// count. Entries must already be in canonical (byte-sorted) order —
// the server's listing is, by construction.
func AppendNSList(dst []byte, quota uint64, entries []NSStat) []byte {
	dst = binary.BigEndian.AppendUint64(dst, quota)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(entries)))
	for _, e := range entries {
		dst = appendNSName(dst, e.Name)
		dst = binary.BigEndian.AppendUint64(dst, e.Keys)
	}
	return dst
}

// DecodeNSList decodes an OpListNS reply. The count is validated
// against MaxListNS and every name against the remaining payload
// before allocating.
func DecodeNSList(p []byte) (quota uint64, entries []NSStat, err error) {
	if len(p) < 12 {
		return 0, nil, fmt.Errorf("proto: ns-list reply is %d bytes, want >= 12", len(p))
	}
	quota = binary.BigEndian.Uint64(p)
	n := binary.BigEndian.Uint32(p[8:])
	if n > MaxListNS {
		return 0, nil, fmt.Errorf("proto: ns-list reply claims %d namespaces, cap %d", n, MaxListNS)
	}
	rest := p[12:]
	entries = make([]NSStat, 0, n)
	for i := uint32(0); i < n; i++ {
		ns, after, err := decodeNSName(rest)
		if err != nil {
			return 0, nil, fmt.Errorf("proto: ns-list entry %d: %w", i, err)
		}
		if len(after) < 8 {
			return 0, nil, fmt.Errorf("proto: ns-list entry %d truncated before key count", i)
		}
		entries = append(entries, NSStat{Name: string(ns), Keys: binary.BigEndian.Uint64(after)})
		rest = after[8:]
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("proto: %d trailing bytes in ns-list reply", len(rest))
	}
	return quota, entries, nil
}

// AppendError appends an OpError payload: the code plus a human-readable
// message.
func AppendError(dst []byte, code byte, msg string) []byte {
	dst = append(dst, code)
	return append(dst, msg...)
}

// DecodeError decodes an OpError payload.
func DecodeError(p []byte) (code byte, msg string, err error) {
	if len(p) < 1 {
		return 0, "", fmt.Errorf("proto: empty error payload")
	}
	return p[0], string(p[1:]), nil
}

// RemoteError is an OpError reply surfaced as a Go error by the client.
type RemoteError struct {
	Code byte
	Msg  string
}

// Error renders the remote error with its symbolic code name.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("hidbd: %s: %s", ErrCodeName(e.Code), e.Msg)
}
