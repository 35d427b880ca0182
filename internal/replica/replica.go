package replica

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/trace"
)

// Config tunes a Replica. Dial is required; everything else has
// defaults.
type Config struct {
	// Dial establishes a connection to the primary (or to another
	// replica — replicas serve HEALTH/SYNC too, so trees work). The
	// replica redials after any connection error.
	Dial func() (net.Conn, error)
	// Interval is the poll period between anti-entropy rounds in Run
	// (0: 250ms). A converged round is one HEALTH round trip.
	Interval time.Duration
	// ChunkSize caps the blob bytes requested per SYNC fetch (0: the
	// serving side's own cap, 256 KiB, which also clamps larger values).
	ChunkSize int
	// Timeout bounds each request's reply wait (0: 30 seconds;
	// negative: none). Without it a primary that accepts the connection
	// but never answers would wedge the sync round — and therefore
	// Stop — forever.
	Timeout time.Duration
	// Metrics registers the replica's anti-entropy metrics (round
	// counts and duration, divergent shards, bytes fetched, verify
	// failures) on the given registry. Nil is valid.
	Metrics *obs.Registry

	// HealthInterval enables the primary health prober: a PING on a
	// dedicated connection every interval (0: prober disabled). The
	// prober shares Dial and Timeout with anti-entropy.
	HealthInterval time.Duration
	// HealthThreshold is the consecutive probe failures after which the
	// primary is declared down (0: 3).
	HealthThreshold int
	// OnPrimaryDown runs once, in its own goroutine, when the prober
	// declares the primary down. Typically wired to Promote, whose last
	// sync round must not hold up the prober's loop.
	OnPrimaryDown func()

	// Trace is the span store sync rounds are recorded into (nil:
	// tracing off). A replica's rounds run on their own clock, so each
	// kept round mints its OWN trace id — correlation with the primary
	// is by value instead: the sync-round span's Link carries the first
	// eight bytes of the primary's committed manifest hash, the same
	// stamp the primary's checkpoint span records. Rounds are kept when
	// head-sampled by the store's rate, or always on error.
	Trace *trace.Store
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	} else if c.Timeout < 0 {
		c.Timeout = 0
	}
	if c.HealthThreshold <= 0 {
		c.HealthThreshold = 3
	}
	return c
}

// Summary describes one anti-entropy round.
type Summary struct {
	// Converged: the local checkpoint already matched the primary's —
	// nothing crossed the wire beyond the hash comparison.
	Converged bool
	// Installed: a new checkpoint was committed locally this round.
	Installed bool
	// ShardsFetched counts shard images that crossed the wire (divergent
	// shards only; matching shards are used from the local disk), tenant
	// cells included.
	ShardsFetched int
	// BytesFetched counts image bytes that crossed the wire (the
	// manifest's own few bytes are not counted).
	BytesFetched int64
}

// Stats is a point-in-time snapshot of a Replica's counters.
type Stats struct {
	Rounds        uint64 `json:"rounds"`
	Installs      uint64 `json:"installs"`
	ShardsFetched uint64 `json:"shards_fetched"`
	BytesFetched  uint64 `json:"bytes_fetched"`
	Errors        uint64 `json:"errors"`
	ProbeFailures uint64 `json:"probe_failures"`
	PrimaryDown   bool   `json:"primary_down"`
	Promoted      bool   `json:"promoted"`
}

// Replica keeps a durable.DB converged onto a primary's committed
// checkpoints. Create one with New, drive it manually with SyncOnce
// (deterministic tests) or in the background with Start/Stop. The
// Replica does not serve the network itself — run an
// internal/server.Server over the same DB for that — and it does not
// own the DB: closing it is the caller's job. Nor does it own the node's
// role: that is the DB's (durable.DB.Replica), and a Replica only lives
// as long as the replica role it was created under (see ErrPromoted).
type Replica struct {
	db  *durable.DB
	cfg Config

	mu   sync.Mutex // guards conn and serializes SyncOnce rounds
	conn *client.Conn
	// born is db.Promotions() at New. Once the count moves, this Replica
	// is retired for good: a promotion ends the replica duty it was
	// created for, and a later Demote starts a new one — for a new
	// Replica, pointed wherever the new primary is.
	born uint64

	rounds, installs, shardsFetched, bytesFetched, errs atomic.Uint64

	m replicaMetrics

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
	started  atomic.Bool

	// Health prober state. pconn is the prober's dedicated connection —
	// deliberately not shared with anti-entropy, so a sync round stuck
	// mid-fetch cannot make the primary look alive (or dead).
	pmu         sync.Mutex
	pconn       *client.Conn
	probeFails  atomic.Uint64
	primaryDown atomic.Bool
}

// ErrPromoted is returned by SyncOnce once the node has been promoted
// since this Replica was created: it has left the replica duty this
// Replica served and must not install checkpoints from the old primary.
var ErrPromoted = errors.New("replica: node was promoted; anti-entropy abdicated")

// New returns a Replica over db. The db should be in the replica role
// (opened with Options.NoSweep, or demoted): a replica's durable state
// advances by installing the primary's checkpoints, not by checkpointing
// its own, and on a primary every round fails with ErrPromoted.
func New(db *durable.DB, cfg Config) (*Replica, error) {
	if cfg.Dial == nil {
		return nil, errors.New("replica: Config.Dial is required")
	}
	r := &Replica{db: db, cfg: cfg.withDefaults(), born: db.Promotions(), stop: make(chan struct{})}
	r.m.init(cfg.Metrics, r)
	return r, nil
}

// Stats returns a snapshot of the replica's counters.
func (r *Replica) Stats() Stats {
	return Stats{
		Rounds:        r.rounds.Load(),
		Installs:      r.installs.Load(),
		ShardsFetched: r.shardsFetched.Load(),
		BytesFetched:  r.bytesFetched.Load(),
		Errors:        r.errs.Load(),
		ProbeFailures: r.probeFails.Load(),
		PrimaryDown:   r.primaryDown.Load(),
		Promoted:      r.retired(),
	}
}

// retired reports whether the node has left the replica role this
// Replica was created under. The check is advisory — it spares a doomed
// round its fetches and stops the loops; the fence itself is
// durable.DB.Install, which reads the role under the lock Promote flips
// it under.
func (r *Replica) retired() bool {
	return !r.db.Replica() || r.db.Promotions() != r.born
}

// connect returns the live connection, dialing if needed. Caller holds
// r.mu.
func (r *Replica) connect() (*client.Conn, error) {
	if r.conn != nil {
		return r.conn, nil
	}
	nc, err := r.cfg.Dial()
	if err != nil {
		return nil, fmt.Errorf("replica: dialing primary: %w", err)
	}
	r.conn = client.NewConnTimeout(nc, r.cfg.Timeout)
	return r.conn, nil
}

// dropConn discards the connection after an error so the next round
// redials. Caller holds r.mu.
func (r *Replica) dropConn() {
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
}

// SyncOnce runs one anti-entropy round: compare checkpoint stamps with
// the primary, and if they differ fetch its manifest and install it,
// fetching the images the local disk lacks. It is safe to call
// concurrently with reads on the DB and with other SyncOnce calls
// (rounds serialize). On any error the connection is dropped and the
// next call redials; a RemoteError with proto.ErrCodeStale simply means
// the primary checkpointed mid-round — retry and the round converges.
func (r *Replica) SyncOnce() (Summary, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.retired() {
		r.dropConn()
		return Summary{}, ErrPromoted
	}
	r.rounds.Add(1)
	t0 := time.Now()
	var rt *roundTrace
	if tr := r.cfg.Trace; tr != nil {
		rt = &roundTrace{tr: tr, tid: tr.NewID(), sid: tr.NewID(), sampled: tr.Sample()}
	}
	sum, err := r.syncLocked(rt)
	r.m.roundSecs.ObserveSince(t0)
	if rt != nil && (rt.sampled || err != nil) {
		ec := byte(0)
		if err != nil {
			ec = proto.ErrCodeInternal
			var re *proto.RemoteError
			if errors.As(err, &re) {
				ec = re.Code
			}
		}
		rt.tr.Record(trace.Span{
			Trace: rt.tid, ID: rt.sid,
			Start: t0.UnixNano(), Dur: int64(time.Since(t0)),
			Kind: trace.KindSyncRound, Err: ec, Shard: -1,
			In: int32(sum.ShardsFetched), Out: int32(sum.BytesFetched),
			Link: rt.link,
		})
	}
	if err != nil {
		r.errs.Add(1)
		r.dropConn()
		return sum, err
	}
	if sum.Converged {
		r.m.converged.Inc()
	}
	return sum, nil
}

// roundTrace carries one sync round's span identity through
// syncLocked, which anchors the link (the primary's manifest hash
// prefix, from the round's Health reply) and records the install child
// span; SyncOnce records the round root afterwards, when the outcome
// (and therefore the keep decision) is known.
type roundTrace struct {
	tr      *trace.Store
	tid     uint64
	sid     uint64
	sampled bool
	link    uint64
}

func (r *Replica) syncLocked(rt *roundTrace) (Summary, error) {
	var sum Summary
	conn, err := r.connect()
	if err != nil {
		return sum, err
	}
	// The primary's Health carries the SHA-256 of its committed manifest,
	// which names the exact checkpoint — tenant table included, the
	// manifest is canonical. Matching the local stamp means converged
	// without another byte crossing the wire.
	h, err := conn.Health()
	if err != nil {
		return sum, fmt.Errorf("replica: fetching health: %w", err)
	}
	if rt != nil {
		rt.link = binary.BigEndian.Uint64(h.Hash[:8])
	}
	if _, local := r.db.CheckpointStamp(); h.Hash == local {
		sum.Converged = true
		return sum, nil
	}
	// The round installs this one manifest or nothing (doc.go: why no
	// second HEALTH is needed). Install keeps the manifest's bytes, so
	// they get a buffer of their own; every image is fetched into the
	// install's one image buffer, handed in as dst.
	man, err := r.fetchBlob(conn, nil, h.Hash, -1)
	if err != nil {
		return sum, err
	}
	ti := time.Now()
	err = r.db.Install(man, func(dst []byte, hash [32]byte, size int64) ([]byte, error) {
		img, err := r.fetchBlob(conn, dst, hash, size)
		if err == nil {
			n := len(img) - len(dst)
			sum.ShardsFetched++
			sum.BytesFetched += int64(n)
			r.shardsFetched.Add(1)
			r.bytesFetched.Add(uint64(n))
		}
		return img, err
	})
	if errors.Is(err, durable.ErrNotReplica) {
		err = ErrPromoted // the promotion landed mid-round
	}
	if err != nil {
		return sum, err
	}
	sum.Installed = true
	r.installs.Add(1)
	if rt != nil && rt.sampled {
		rt.tr.Record(trace.Span{
			Trace: rt.tid, ID: rt.tr.NewID(), Parent: rt.sid,
			Start: ti.UnixNano(), Dur: int64(time.Since(ti)),
			Kind: trace.KindInstall, Shard: -1,
			In: int32(sum.ShardsFetched), Out: int32(sum.BytesFetched),
			Link: rt.link,
		})
	}
	return sum, nil
}

// fetchReserve is the most fetchBlob reserves ahead of the bytes it has
// actually received. A size is the peer's word even when it comes out
// of a hash-checked manifest: below the bound it is reserved exactly,
// so an honest image costs at most one allocation — none when dst has
// the room, as an install's buffer does; past it the buffer grows with
// what arrives. It is also the most a manifest may weigh.
const fetchReserve = 64 << 20

// fetchBlob pulls the committed blob with the given SHA-256 chunk by
// chunk, appending it to dst, and verifies it against that hash and
// size, so a lying or corrupted peer cannot hand us installable garbage
// — nor, by advertising an absurd size, make us reserve memory for it.
// size is what the manifest says of an image; the manifest itself is
// fetched with size < 0 — nobody advertises its length — and then grows
// with what arrives, up to fetchReserve. dst's capacity is reused: an
// install hands in the buffer its previous image was read into.
func (r *Replica) fetchBlob(conn *client.Conn, dst []byte, hash [32]byte, size int64) ([]byte, error) {
	limit, reserve := size, min(size, fetchReserve)
	if size < 0 {
		limit, reserve = fetchReserve, 0
	}
	start := len(dst)
	buf := slices.Grow(dst, int(reserve))
	for {
		have := len(buf) - start
		var more bool
		var err error
		buf, more, err = conn.SyncChunk(buf, hash, uint64(have), r.cfg.ChunkSize)
		if err != nil {
			return nil, fmt.Errorf("replica: fetching blob %x at offset %d: %w", hash[:8], have, err)
		}
		if int64(len(buf)-start) > limit {
			return nil, fmt.Errorf("replica: blob %x grew past %d bytes", hash[:8], limit)
		}
		if !more {
			break
		}
		if len(buf)-start == have {
			return nil, fmt.Errorf("replica: blob %x fetch stalled at offset %d", hash[:8], have)
		}
	}
	if blob := buf[start:]; (size >= 0 && int64(len(blob)) != size) || sha256.Sum256(blob) != hash {
		r.m.verifyFails.Inc()
		return nil, fmt.Errorf("replica: the %d bytes fetched as blob %x do not match its hash and size", len(blob), hash[:8])
	}
	return buf, nil
}

// Start launches the background anti-entropy loop — a round every
// Interval until Stop or the node's promotion — and, when
// Config.HealthInterval is set, the primary health prober, which runs as
// long. Errors are counted and retried next round.
func (r *Replica) Start() {
	if r.started.Swap(true) {
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(r.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
			if _, err := r.SyncOnce(); errors.Is(err, ErrPromoted) {
				return
			} // any other error is counted in Stats and retried next tick
		}
	}()
	if r.cfg.HealthInterval > 0 {
		r.wg.Add(1)
		go r.probeLoop()
	}
}

// probeLoop PINGs the primary on a dedicated connection every
// HealthInterval. HealthThreshold consecutive failures — dial errors
// and dead connections alike — declare the primary down, exactly once
// per process, and fire OnPrimaryDown in its own goroutine.
func (r *Replica) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HealthInterval)
	defer t.Stop()
	defer func() {
		r.pmu.Lock()
		if r.pconn != nil {
			r.pconn.Close()
			r.pconn = nil
		}
		r.pmu.Unlock()
	}()
	failures := 0
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		if r.retired() {
			return // a primary has no primary to watch
		}
		if r.probeOnce() {
			failures = 0
			continue
		}
		r.probeFails.Add(1)
		failures++
		if failures >= r.cfg.HealthThreshold && !r.primaryDown.Swap(true) {
			if r.cfg.OnPrimaryDown != nil {
				go r.cfg.OnPrimaryDown()
			}
		}
	}
}

// probeOnce sends one PING, redialing if the prober has no live
// connection, and reports whether the primary answered.
func (r *Replica) probeOnce() bool {
	r.pmu.Lock()
	conn := r.pconn
	r.pmu.Unlock()
	if conn == nil {
		nc, err := r.cfg.Dial()
		if err != nil {
			return false
		}
		conn = client.NewConnTimeout(nc, r.cfg.Timeout)
		r.pmu.Lock()
		r.pconn = conn
		r.pmu.Unlock()
	}
	if err := conn.Ping(nil); err != nil {
		conn.Close()
		r.pmu.Lock()
		if r.pconn == conn {
			r.pconn = nil
		}
		r.pmu.Unlock()
		return false
	}
	return true
}

// Promote lifts this node into primary duty: one final best-effort
// sync round drains whatever the primary managed to commit (with the
// primary typically dead the round just fails fast), then the DB flips
// to the primary role — which is all a promotion is (durable.DB.Promote):
// from that flip on Install refuses, so this Replica and every other
// created before it are retired without being told. Returns the node's
// promotion count; durable.ErrNotReplica if it is already a primary.
func (r *Replica) Promote() (uint64, error) {
	r.SyncOnce() //nolint:errcheck // best effort: the primary is usually dead
	return r.db.Promote()
}

// Stop halts the background loop (if running) and closes the
// connection to the primary. The DB is left untouched, at its last
// installed checkpoint, still serving reads.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	r.mu.Lock()
	r.dropConn()
	r.mu.Unlock()
}

// IsStale reports whether err is the primary telling us the checkpoint
// we were fetching was superseded by a newer one — the retryable
// mid-round race, not a failure.
func IsStale(err error) bool {
	var re *proto.RemoteError
	return errors.As(err, &re) && re.Code == proto.ErrCodeStale
}
