package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/hipma"
)

// Item re-exports the store element type: a key with an int64 payload.
// Values are fixed 8-byte integers end to end — that is the data model
// of the paper's structures, not a protocol limitation.
type Item = hipma.Item

// Version is the protocol version spoken by this package, and the only
// one: every frame carries it, and a peer that receives a frame with
// any other version byte rejects it with ErrCodeVersion and closes the
// connection. Version 2 added the HEALTH/PROMOTE opcodes and stamped
// every read reply with the serving node's checkpoint epoch (bounded
// staleness). Version 3 added the namespace opcodes (NSPUT/NSGET/NSDEL/
// DROPNS/LISTNS) and ErrCodeQuota. Version 4 added the optional
// trace-context extension after the request id (a header layout change,
// hence the bump): extlen(1), then — when extlen is TraceExtLen — trace
// id(8), parent span id(8), flags(1).
const Version = 4

// HeaderSize is the frame overhead up to and including the request id:
// the 4-byte length prefix plus version, opcode, and request id. Every
// frame carries at least one more byte (the extension length).
const HeaderSize = 4 + 1 + 1 + 8

// TraceExtLen is the size of a present trace-context extension: trace
// id(8), parent span id(8), flags(1). A frame's extlen byte is either 0
// or exactly TraceExtLen.
const TraceExtLen = 8 + 8 + 1

// traceFlagSampled marks a head-sampled request; all other flag bits
// are reserved and must be zero.
const traceFlagSampled byte = 1 << 0

// MaxPayload is the default cap on a frame's payload size. Both sides
// enforce a cap before allocating, so a hostile length prefix cannot
// drive a large allocation. Servers may configure a different cap; this
// is the default and the hard ceiling for the stock client.
const MaxPayload = 1 << 20

// Request opcodes. Replies to an opcode op carry op|FlagReply; error
// replies carry OpError regardless of the request opcode.
const (
	OpGet        byte = 0x01 // payload: key(8) → reply: found(1) val(8) epoch(8)
	OpPut        byte = 0x02 // payload: key(8) val(8) → reply: changed(1)
	OpDel        byte = 0x03 // payload: key(8) → reply: changed(1)
	OpBatch      byte = 0x04 // payload: kind(1) count(4) entries → reply: kind-specific
	OpRange      byte = 0x05 // payload: lo(8) hi(8) max(4) → reply: more(1) epoch(8) count(4) pairs
	OpLen        byte = 0x06 // payload: empty → reply: count(8) epoch(8)
	OpCheckpoint byte = 0x07 // payload: empty → reply: checkpoints(8)
	OpPing       byte = 0x08 // payload: arbitrary → reply: the same bytes

	// The replication opcode. A committed checkpoint is its manifest:
	// HEALTH advertises the manifest's SHA-256, and SYNC serves bytes of
	// any committed blob by hash — the manifest itself, or an image file
	// it names. Never an operation log. 0x09 (the old per-keyspace
	// descriptor) is unassigned. See docs/PROTOCOL.md "Replication".
	OpSync byte = 0x0A // payload: hash(32) offset(8) maxlen(4) → reply: more(1) bytes

	// TTL opcodes. The expiry is an ABSOLUTE epoch in unix seconds
	// (0: never expires), recorded as part of the entry's logical state
	// and echoed back; the server never stores "when the request
	// arrived" — relative TTLs are resolved by the client, so the wire
	// carries only state, never timing. See docs/PROTOCOL.md "Expiry".
	OpPutTTL byte = 0x0B // payload: key(8) val(8) exp(8) → reply: changed(1) exp(8)
	OpGetTTL byte = 0x0C // payload: key(8) → reply: found(1) val(8) exp(8) epoch(8)

	// HA opcodes. HEALTH reports the node's role and checkpoint position
	// (a liveness probe that never queues behind writes); PROMOTE lifts a
	// read replica into a writable primary and returns the node's
	// promotion epoch. Promotion state is wire- and memory-only — it is
	// never persisted, so on-disk state stays a pure function of
	// contents. See docs/PROTOCOL.md "Failover".
	OpHealth  byte = 0x0D // payload: empty → reply: role(1) promotions(8) epoch(8) manifest-hash(32)
	OpPromote byte = 0x0E // payload: empty → reply: promotions(8)

	// Namespace opcodes. Every namespaced payload starts with the tenant
	// name (nslen(2) name); names are 1..MaxNSName bytes, no NUL. DROPNS
	// erases the tenant: the server drops the cell, checkpoints, and
	// sweeps before replying, so a true reply means the tenant's bytes
	// are already gone from the committed directory. LISTNS returns the
	// live tenants in byte-sorted (canonical) order — never creation
	// order. See docs/PROTOCOL.md "Namespaces".
	OpNSPut  byte = 0x0F // payload: nslen(2) ns key(8) val(8) exp(8) → reply: changed(1) exp(8)
	OpNSGet  byte = 0x10 // payload: nslen(2) ns key(8) → reply: found(1) val(8) exp(8) epoch(8)
	OpNSDel  byte = 0x11 // payload: nslen(2) ns key(8) → reply: changed(1)
	OpDropNS byte = 0x12 // payload: nslen(2) ns → reply: existed(1)
	OpListNS byte = 0x13 // payload: empty → reply: quota(8) count(4) [nslen(2) ns keys(8)]…
)

// FlagReply marks a frame as the successful reply to the request opcode
// in its low bits.
const FlagReply byte = 0x80

// OpError is the opcode of an error reply. Its payload is
// code(1) msg(rest); the id names the failed request.
const OpError byte = 0xFF

// Batch kinds, the first payload byte of an OpBatch request.
const (
	BatchPut byte = 0 // entries: key(8) val(8) each → reply: changed(4)
	BatchGet byte = 1 // entries: key(8) each → reply: count(4), found(1) val(8) each
	BatchDel byte = 2 // entries: key(8) each → reply: changed(4)
)

// Error codes carried by OpError replies.
const (
	ErrCodeBadFrame  byte = 1 // malformed frame or payload
	ErrCodeVersion   byte = 2 // unsupported protocol version
	ErrCodeUnknownOp byte = 3 // opcode not in the table
	ErrCodeTooLarge  byte = 4 // frame or batch exceeds the server's limits
	ErrCodeBusy      byte = 5 // connection limit reached; retry later
	ErrCodeShutdown  byte = 6 // server is draining; connection will close
	ErrCodeInternal  byte = 7 // server-side failure (e.g. checkpoint error)
	ErrCodeReadOnly  byte = 8 // server is a read replica; writes go to the primary
	ErrCodeStale     byte = 9 // requested blob is not in the committed checkpoint; start a new round

	ErrCodeNotReplica byte = 10 // PROMOTE sent to a node that is already writable

	ErrCodeQuota byte = 11 // namespace is at its per-tenant key quota
)

// opNames is the authoritative opcode table; docs/PROTOCOL.md mirrors
// it and TestProtocolDocLockstep keeps the two in sync.
var opNames = map[byte]string{
	OpGet:        "OpGet",
	OpPut:        "OpPut",
	OpDel:        "OpDel",
	OpBatch:      "OpBatch",
	OpRange:      "OpRange",
	OpLen:        "OpLen",
	OpCheckpoint: "OpCheckpoint",
	OpPing:       "OpPing",
	OpSync:       "OpSync",
	OpPutTTL:     "OpPutTTL",
	OpGetTTL:     "OpGetTTL",
	OpHealth:     "OpHealth",
	OpPromote:    "OpPromote",
	OpNSPut:      "OpNSPut",
	OpNSGet:      "OpNSGet",
	OpNSDel:      "OpNSDel",
	OpDropNS:     "OpDropNS",
	OpListNS:     "OpListNS",
	OpError:      "OpError",
}

// errNames is the authoritative error-code table, mirrored by
// docs/PROTOCOL.md under the same lockstep test.
var errNames = map[byte]string{
	ErrCodeBadFrame:   "ErrCodeBadFrame",
	ErrCodeVersion:    "ErrCodeVersion",
	ErrCodeUnknownOp:  "ErrCodeUnknownOp",
	ErrCodeTooLarge:   "ErrCodeTooLarge",
	ErrCodeBusy:       "ErrCodeBusy",
	ErrCodeShutdown:   "ErrCodeShutdown",
	ErrCodeInternal:   "ErrCodeInternal",
	ErrCodeReadOnly:   "ErrCodeReadOnly",
	ErrCodeStale:      "ErrCodeStale",
	ErrCodeNotReplica: "ErrCodeNotReplica",
	ErrCodeQuota:      "ErrCodeQuota",
}

// OpName returns the symbolic name of an opcode ("OpGet"), or a hex
// rendering for opcodes outside the table.
func OpName(op byte) string {
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("Op(0x%02x)", op)
}

// ErrCodeName returns the symbolic name of an error code
// ("ErrCodeBusy"), or a hex rendering for codes outside the table.
func ErrCodeName(code byte) string {
	if n, ok := errNames[code]; ok {
		return n
	}
	return fmt.Sprintf("ErrCode(0x%02x)", code)
}

// TraceCtx is the optional trace-context extension: the
// request's trace id, the sender's span id (the parent of whatever
// span the receiver opens), and the head-sample decision. A zero ID
// means "no context" — frames encode the extension only when ID is
// nonzero, and decoders reject a present extension with a zero id so
// encode∘decode is the identity on bytes. The context carries ids and
// one flag bit only: no payload-capable field, by construction.
type TraceCtx struct {
	ID      uint64 // trace id; 0: no trace context
	Span    uint64 // sender's span id, parent for the receiver's spans
	Sampled bool   // head-sample decision, honored end to end
}

// Frame is one decoded protocol frame.
type Frame struct {
	Ver     byte
	Op      byte
	ID      uint64
	Trace   TraceCtx // zero ID means absent
	Payload []byte
}

// ErrFrameTooLarge is returned when a frame's declared length exceeds
// the decoder's payload cap.
var ErrFrameTooLarge = errors.New("proto: frame exceeds payload cap")

// ErrShortFrame is returned by DecodeFrame when b does not yet hold a
// complete frame (more bytes are needed).
var ErrShortFrame = errors.New("proto: incomplete frame")

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. It does not enforce the payload cap; writers construct their
// own payloads and the cap protects readers.
func AppendFrame(dst []byte, f Frame) []byte {
	ext := 0
	if f.Trace.ID != 0 {
		ext = TraceExtLen
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(HeaderSize-4+1+ext+len(f.Payload)))
	dst = append(dst, f.Ver, f.Op)
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	dst = append(dst, byte(ext))
	if ext != 0 {
		dst = binary.BigEndian.AppendUint64(dst, f.Trace.ID)
		dst = binary.BigEndian.AppendUint64(dst, f.Trace.Span)
		var flags byte
		if f.Trace.Sampled {
			flags = traceFlagSampled
		}
		dst = append(dst, flags)
	}
	return append(dst, f.Payload...)
}

// frameLen validates a frame's 4-byte length prefix against the payload
// cap and returns the number of bytes that follow it: at least the
// fixed header plus the extlen byte, at most that plus a full extension
// and maxPayload. The gate admits the extension overhead; DecodeFrame
// enforces the payload cap exactly once it knows how long the
// extension is.
func frameLen(prefix []byte, maxPayload int) (int, error) {
	n := binary.BigEndian.Uint32(prefix)
	if n < HeaderSize-4+1 {
		return 0, fmt.Errorf("proto: frame length %d below header size", n)
	}
	if n > uint32(HeaderSize-4+1+TraceExtLen+maxPayload) {
		return 0, fmt.Errorf("%w: %d bytes, cap %d", ErrFrameTooLarge, n, HeaderSize-4+maxPayload)
	}
	return int(n), nil
}

// DecodeFrame decodes one frame from the front of b, returning the
// frame and the number of bytes consumed. It is the only function that
// knows the frame layout — FrameReader.Next reads a frame's bytes and
// calls it — and the inverse of AppendFrame on every frame it accepts,
// whatever the version byte says: there is one layout, and refusing a
// frame whose Ver is not Version is the receiver's job. The returned
// payload aliases b. A frame whose declared payload exceeds maxPayload
// (<=0 means MaxPayload) fails with ErrFrameTooLarge; a prefix of a
// valid frame fails with ErrShortFrame.
//
// Rejections are exact so that encode∘decode stays the identity: the
// extension length must be 0 or TraceExtLen, a present extension must
// carry a nonzero trace id, and reserved flag bits must be zero.
func DecodeFrame(b []byte, maxPayload int) (Frame, int, error) {
	if maxPayload <= 0 {
		maxPayload = MaxPayload
	}
	if len(b) < 4 {
		return Frame{}, 0, ErrShortFrame
	}
	n, err := frameLen(b, maxPayload)
	if err != nil {
		return Frame{}, 0, err
	}
	if len(b) < 4+n {
		return Frame{}, 0, ErrShortFrame
	}
	f := Frame{
		Ver: b[4],
		Op:  b[5],
		ID:  binary.BigEndian.Uint64(b[6:]),
	}
	body := b[HeaderSize : 4+n] // frameLen guarantees the extlen byte
	switch extlen := int(body[0]); {
	case extlen == 0:
		body = body[1:]
	case extlen != TraceExtLen:
		return Frame{}, 0, fmt.Errorf("proto: trace extension length %d, want 0 or %d", extlen, TraceExtLen)
	case len(body) < 1+TraceExtLen:
		return Frame{}, 0, fmt.Errorf("proto: frame length too short for trace extension")
	default:
		f.Trace.ID = binary.BigEndian.Uint64(body[1:])
		f.Trace.Span = binary.BigEndian.Uint64(body[9:])
		flags := body[17]
		if f.Trace.ID == 0 {
			return Frame{}, 0, fmt.Errorf("proto: trace extension with zero trace id")
		}
		if flags&^traceFlagSampled != 0 {
			return Frame{}, 0, fmt.Errorf("proto: reserved trace flag bits 0x%02x set", flags&^traceFlagSampled)
		}
		f.Trace.Sampled = flags&traceFlagSampled != 0
		body = body[1+TraceExtLen:]
	}
	if len(body) > maxPayload {
		return Frame{}, 0, fmt.Errorf("%w: %d payload bytes, cap %d", ErrFrameTooLarge, len(body), maxPayload)
	}
	f.Payload = body
	return f, 4 + n, nil
}

// FrameReader decodes a stream of frames through one reusable buffer,
// so a long-lived connection's read loop allocates nothing at steady
// state. The buffer grows to the largest frame seen and is retained,
// bounded by the reader's payload cap.
//
// ALIASING CONTRACT: the payload returned by Next aliases the internal
// buffer and is valid only until the next Next call. A caller that
// retains payload bytes past that point (to echo them later, hand them
// to another goroutine, ...) must copy them first. FuzzDecodeFrame and
// TestFrameReaderReuse enforce the decode equivalence and the reuse
// semantics.
type FrameReader struct {
	r          io.Reader
	buf        []byte // the current frame, length prefix included
	maxPayload int
}

// NewFrameReader returns a FrameReader over r with the given payload
// cap (<=0 means MaxPayload).
func NewFrameReader(r io.Reader, maxPayload int) *FrameReader {
	if maxPayload <= 0 {
		maxPayload = MaxPayload
	}
	// 64 bytes hold any point op, so a connection's first few frames
	// do not each regrow the buffer.
	return &FrameReader{r: r, maxPayload: maxPayload, buf: make([]byte, 4, 64)}
}

// Next reads one frame's bytes and decodes them with DecodeFrame. It
// never over-reads and never allocates beyond the payload cap: the
// length prefix is validated before the buffer grows to hold the bytes
// it announces. The returned frame's payload is valid only until the
// next call — see the aliasing contract above.
func (fr *FrameReader) Next() (Frame, error) {
	if _, err := io.ReadFull(fr.r, fr.buf[:4]); err != nil {
		return Frame{}, err
	}
	n, err := frameLen(fr.buf, fr.maxPayload)
	if err != nil {
		return Frame{}, err
	}
	if cap(fr.buf) < 4+n {
		fr.buf = append(make([]byte, 0, 4+n), fr.buf[:4]...)
	}
	fr.buf = fr.buf[:4+n]
	if _, err := io.ReadFull(fr.r, fr.buf[4:]); err != nil {
		return Frame{}, fmt.Errorf("proto: reading frame body: %w", err)
	}
	f, _, err := DecodeFrame(fr.buf, fr.maxPayload)
	return f, err
}
