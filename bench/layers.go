package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	antipersist "repro"
	"repro/client"
	"repro/internal/cobt"
	"repro/internal/durable"
	"repro/internal/hipma"
	"repro/internal/iomodel"
	"repro/internal/proto"
	"repro/internal/replica"
	"repro/internal/shard"
)

// The traced run measures every layer from outside. The same op
// stream is replayed at each rung of a ladder — hipma, cobt, shard,
// durable, server over net.Pipe, client over TCP — each rung starting
// from the same contents, and a layer's self time is its rung's median
// minus the rung below. Around the ladder sit probes for what a point
// op cannot show: codecs, batches, checkpoints, recovery, replication,
// loaded and open-loop latency.

var perLayer = []metricDef{
	{name: "e2e.ops_per_s", unit: "ops/s", better: "higher"},
	{name: "e2e.serial_lat_p50_us", unit: "us", better: "lower"},
	{name: "e2e.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "e2e.reopen_s", unit: "s", better: "lower"},
	{name: "proto.encode_req_ns", unit: "ns", better: "lower"},
	{name: "proto.decode_req_ns", unit: "ns", better: "lower"},
	{name: "proto.encode_reply_ns", unit: "ns", better: "lower"},
	{name: "proto.decode_reply_ns", unit: "ns", better: "lower"},
	{name: "proto.bytes_per_get_rt", unit: "B", better: "lower"},
	{name: "proto.bytes_per_put_rt", unit: "B", better: "lower"},
	{name: "server.pipe_get_ns", unit: "ns", better: "lower"},
	{name: "server.pipe_put_ns", unit: "ns", better: "lower"},
	{name: "server.pipe_nsput_ns", unit: "ns", better: "lower"},
	{name: "server.self_get_ns", unit: "ns", better: "lower"},
	{name: "server.self_put_ns", unit: "ns", better: "lower"},
	{name: "server.coalesce_mean_batch", unit: "count", better: "higher"},
	{name: "client.self_get_ns", unit: "ns", better: "lower"},
	{name: "client.self_put_ns", unit: "ns", better: "lower"},
	{name: "client.serial_lat_p99_us", unit: "us", better: "lower"},
	{name: "client.loaded_lat_p50_us", unit: "us", better: "lower"},
	{name: "client.loaded_lat_p99_us", unit: "us", better: "lower"},
	{name: "client.open20k_lat_p99_us", unit: "us", better: "lower"},
	{name: "client.open20k_sched_lag_p99_us", unit: "us", better: "lower"},
	{name: "shard.get_ns", unit: "ns", better: "lower"},
	{name: "shard.put_ns", unit: "ns", better: "lower"},
	{name: "shard.apply_batch_ns_per_op", unit: "ns", better: "lower"},
	{name: "shard.range100_ns", unit: "ns", better: "lower"},
	{name: "shard.self_get_ns", unit: "ns", better: "lower"},
	{name: "shard.snapshot_ns_per_key", unit: "ns", better: "lower"},
	{name: "cobt.get_ns", unit: "ns", better: "lower"},
	{name: "cobt.put_ns", unit: "ns", better: "lower"},
	{name: "cobt.delete_ns", unit: "ns", better: "lower"},
	{name: "cobt.range100_ns", unit: "ns", better: "lower"},
	{name: "cobt.dam_ios_per_get", unit: "count", better: "lower"},
	{name: "cobt.dam_ios_per_put", unit: "count", better: "lower"},
	{name: "cobt.dam_ios_per_range100", unit: "count", better: "lower"},
	{name: "hipma.insert_ns", unit: "ns", better: "lower"},
	{name: "hipma.delete_ns", unit: "ns", better: "lower"},
	{name: "hipma.range100_ns", unit: "ns", better: "lower"},
	{name: "hipma.dam_ios_per_insert", unit: "count", better: "lower"},
	{name: "durable.get_ns", unit: "ns", better: "lower"},
	{name: "durable.apply_batch_ns_per_op", unit: "ns", better: "lower"},
	{name: "durable.ns_get_ns", unit: "ns", better: "lower"},
	{name: "durable.ns_put_ns", unit: "ns", better: "lower"},
	{name: "durable.ckpt_ms", unit: "ms", better: "lower"},
	{name: "durable.ckpt_incr_ms", unit: "ms", better: "lower"},
	{name: "durable.ckpt_write_bytes", unit: "B", better: "lower"},
	{name: "durable.ckpt_fsyncs", unit: "count", better: "lower"},
	{name: "durable.ckpt_alloc_bytes", unit: "B", better: "lower"},
	{name: "durable.write_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "durable.open_ms", unit: "ms", better: "lower"},
	{name: "durable.put_stall_max_us", unit: "us", better: "lower"},
	{name: "replica.sync_converged_ms", unit: "ms", better: "lower"},
	{name: "replica.sync_incr_ms", unit: "ms", better: "lower"},
	{name: "replica.sync_full_ms", unit: "ms", better: "lower"},
	{name: "replica.bytes_fetched_per_cycle", unit: "B", better: "lower"},
	{name: "replica.shards_fetched_per_cycle", unit: "count", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
}

const (
	ladderKeys   = 200_000 // default-key-space preload of the store rungs (an eighth of it in hipma and cobt); tenants get a tenth
	ladderRounds = 300     // one round: 16 each of GET, PUT, DEL, NSGET, NSPUT, and 4 scans
	damBlock     = 64      // the DAM tracker's B, in elements, and its memory in blocks
	probeBatch   = 256     // ops per ApplyBatch probe
	ckptCycles   = 5
	openLoopRate = 20_000 // ops/s offered by the open-loop probe
	openWorkers  = 64     // most requests the open-loop probe keeps in flight
)

// group is a run of same-kind ops timed as one sample. Every default-
// key-space op of the ladder is on a key of shard 0, so that the hipma
// and cobt rungs can hold exactly what one shard's dictionary holds
// inside the store, and subtracting them from the shard rung leaves the
// shard layer alone. sub is the group as those two rungs see it: the
// same ops, but a scan expects shard 0's items only.
type group struct {
	kind opKind
	ops  []op
	sub  []op
}

func only(kind opKind, pick int) []choice { return []choice{{kind, pick, 1000}} }

// rung is one layer of the ladder: do issues an op against it and
// returns the reply in the model's terms (for a scan, its checksum).
type rung interface {
	do(seq int, o *op) (int64, bool, error)
}

type ladder struct {
	e        *env
	div      int
	p        *pass
	buf      *spanBuf
	g        *generator   // the model the op streams advance
	pristine *generator   // the contents every rung starts from
	route    *shard.Store // empty; asked only where a key routes
	groups   []group
	vals     map[string]metric
}

func (l *ladder) set(name string, v float64, n int) { l.vals[name] = metric{name, v, n} }

func (l *ladder) get(name string) float64 { return l.vals[name].value }

// checked counts one reply and records a mismatch as a failure.
func (l *ladder) checked(o *op, val int64, ok bool, err error) {
	l.p.ops++
	if msg := verdict(o, val, ok, err); msg != "" {
		l.p.fail(msg)
	}
}

func (l *ladder) inShard0(idx uint32) bool { return l.route.ShardOf(keyOf(idx)) == 0 }

// drawShard0 draws a default-key-space op on a key of shard 0. It
// draws reads until one lands there, so keys passed over leave the
// model alone, then turns the read into the op asked for.
func (l *ladder) drawShard0(rng *rand.Rand, kind opKind, pick int) op {
	for {
		o := l.g.next(rng, only(opGet, pick), -1)
		if l.inShard0(o.idx) {
			o.kind = kind
			l.g.expect(&o, rng)
			return o
		}
	}
}

// scanShard0 is the checksum a scan from idx gives on shard 0's
// dictionary alone.
func (l *ladder) scanShard0(idx uint32) int64 {
	k := l.g.ks[0]
	h, n := uint64(0), 0
	for i := idx; int(i) < len(k.val) && n < rangeItems; i++ {
		if k.live[i] && l.inShard0(i) {
			h = fold(fold(h, keyOf(i)), k.val[i])
			n++
		}
	}
	return int64(fold(h, int64(n)))
}

// replay runs the ladder's groups against r and returns, per op kind,
// the nanoseconds per op of every group. With a tracker it returns
// block transfers per op instead. single marks a rung that holds shard
// 0's dictionary alone.
func (l *ladder) replay(layer string, r rung, single bool, io *iomodel.Tracker) map[opKind][]float64 {
	out := map[opKind][]float64{}
	seq := 0
	for _, gr := range l.groups {
		if single {
			gr.ops = gr.sub
		}
		type reply struct {
			val int64
			ok  bool
			err error
		}
		var replies [16]reply
		var ios0 uint64
		if io != nil {
			ios0 = io.IOs()
		}
		t0 := time.Now()
		for i := range gr.ops {
			replies[i].val, replies[i].ok, replies[i].err = r.do(seq+i, &gr.ops[i])
		}
		d := time.Since(t0)
		if replies[0].err == errSkip {
			seq += len(gr.ops)
			continue
		}
		if io != nil {
			out[gr.kind] = append(out[gr.kind], float64(io.IOs()-ios0)/float64(len(gr.ops)))
		} else {
			l.buf.add(0, layer+"."+opNames[gr.kind], t0, d)
			out[gr.kind] = append(out[gr.kind], float64(d.Nanoseconds())/float64(len(gr.ops)))
		}
		for i := range gr.ops {
			l.checked(&gr.ops[i], replies[i].val, replies[i].ok, replies[i].err)
		}
		seq += len(gr.ops)
	}
	return out
}

// errSkip is a rung's answer to an op kind its layer does not have.
var errSkip = fmt.Errorf("op kind not served at this rung")

// ---- the rungs -------------------------------------------------------------

type pmaRung struct {
	p   *hipma.PMA
	out []hipma.Item
}

func (r *pmaRung) do(_ int, o *op) (int64, bool, error) {
	key := keyOf(o.idx)
	switch o.kind {
	case opGet:
		rank, found := r.p.SearchKey(key)
		if !found {
			return 0, false, nil
		}
		return r.p.Get(rank).Val, true, nil
	case opPut:
		rank, found := r.p.SearchKey(key)
		if found {
			r.p.UpdateAt(rank, o.val)
		} else {
			r.p.InsertAt(rank, hipma.Item{Key: key, Val: o.val})
		}
		return 0, !found, nil
	case opDel:
		return 0, r.p.DeleteKey(key), nil
	case opRange:
		r.out = r.out[:0]
		if rank := r.p.Find(key); rank < r.p.Len() {
			r.out = r.p.Query(rank, min(rank+rangeItems, r.p.Len())-1, r.out)
		}
		return itemsSum(r.out), false, nil
	}
	return 0, false, errSkip
}

type dictRung struct {
	d   *cobt.Dictionary
	out []hipma.Item
}

func (r *dictRung) do(_ int, o *op) (int64, bool, error) {
	key := keyOf(o.idx)
	switch o.kind {
	case opGet:
		v, ok := r.d.Get(key)
		return v, ok, nil
	case opPut:
		return 0, r.d.Put(key, o.val), nil
	case opDel:
		return 0, r.d.Delete(key), nil
	case opRange:
		r.out = r.d.RangeN(key, math.MaxInt64, rangeItems, r.out[:0])
		return itemsSum(r.out), false, nil
	}
	return 0, false, errSkip
}

type storeRung struct {
	s   *shard.Store
	out []shard.Item
}

func (r *storeRung) do(_ int, o *op) (int64, bool, error) {
	key := keyOf(o.idx)
	switch o.kind {
	case opGet:
		v, ok := r.s.Get(key)
		return v, ok, nil
	case opPut:
		return 0, r.s.Put(key, o.val), nil
	case opDel:
		return 0, r.s.Delete(key), nil
	case opRange:
		r.out, _ = r.s.RangeN(key, math.MaxInt64, rangeItems, r.out[:0])
		return itemsSum(r.out), false, nil
	}
	return 0, false, errSkip
}

type dbRung struct {
	db  *durable.DB
	out []shard.Item
}

func (r *dbRung) do(_ int, o *op) (int64, bool, error) {
	key, ns := keyOf(o.idx), tenantNames[o.ks]
	switch o.kind {
	case opGet:
		v, ok := r.db.Get(key)
		return v, ok, nil
	case opPut:
		return 0, r.db.Put(key, o.val), nil
	case opDel:
		return 0, r.db.Delete(key), nil
	case opRange:
		r.out, _ = r.db.RangeN(key, math.MaxInt64, rangeItems, r.out[:0])
		return itemsSum(r.out), false, nil
	case opNSGet:
		v, ok := r.db.NSGet(ns, key)
		return v, ok, nil
	case opNSPut:
		ok, err := r.db.NSPut(ns, key, o.val)
		return 0, ok, err
	}
	return 0, false, errSkip
}

// pipeRung talks to the server over net.Pipe in raw frames encoded
// before the clock starts, one request in flight.
type pipeRung struct {
	conn   net.Conn
	fr     *proto.FrameReader
	frames [][]byte
}

func encodeReq(id uint64, o *op) []byte {
	key, ns := keyOf(o.idx), tenantNames[o.ks]
	f := proto.Frame{Ver: proto.Version, ID: id}
	switch o.kind {
	case opGet:
		f.Op, f.Payload = proto.OpGet, proto.AppendKey(nil, key)
	case opPut:
		f.Op, f.Payload = proto.OpPut, proto.AppendKeyVal(nil, key, o.val)
	case opDel:
		f.Op, f.Payload = proto.OpDel, proto.AppendKey(nil, key)
	case opRange:
		f.Op, f.Payload = proto.OpRange, proto.AppendRangeReq(nil, key, math.MaxInt64, rangeItems)
	case opNSGet:
		f.Op, f.Payload = proto.OpNSGet, proto.AppendNSKey(nil, ns, key)
	case opNSPut:
		f.Op, f.Payload = proto.OpNSPut, proto.AppendNSKeyValExp(nil, ns, key, o.val, 0)
	}
	return proto.AppendFrame(nil, f)
}

func (r *pipeRung) do(seq int, o *op) (int64, bool, error) {
	if _, err := r.conn.Write(r.frames[seq]); err != nil {
		return 0, false, err
	}
	f, err := r.fr.Next()
	if err != nil {
		return 0, false, err
	}
	if f.Op == proto.OpError {
		code, msg, _ := proto.DecodeError(f.Payload)
		return 0, false, &proto.RemoteError{Code: code, Msg: msg}
	}
	switch o.kind {
	case opGet:
		v, _, ok, err := proto.DecodeFound(f.Payload)
		return v, ok, err
	case opNSGet:
		v, _, _, ok, err := proto.DecodeFoundTTL(f.Payload)
		return v, ok, err
	case opNSPut:
		ok, _, err := proto.DecodeTTLAck(f.Payload)
		return 0, ok, err
	case opRange:
		items, _, _, err := proto.DecodeRangeReply(f.Payload)
		return itemsSum(items), false, err
	}
	ok, err := proto.DecodeBool(f.Payload)
	return 0, ok, err
}

type connRung struct{ c *client.Conn }

func (r *connRung) do(_ int, o *op) (int64, bool, error) {
	key, ns := keyOf(o.idx), tenantNames[o.ks]
	switch o.kind {
	case opGet:
		return r.c.Get(key)
	case opPut:
		ok, err := r.c.Put(key, o.val)
		return 0, ok, err
	case opDel:
		ok, err := r.c.Delete(key)
		return 0, ok, err
	case opRange:
		items, _, err := r.c.Range(key, math.MaxInt64, rangeItems)
		return itemsSum(items), false, err
	case opNSGet:
		return r.c.NSGet(ns, key)
	case opNSPut:
		ok, err := r.c.NSPut(ns, key, o.val)
		return 0, ok, err
	}
	return 0, false, errSkip
}

// ---- running the ladder ----------------------------------------------------

// serve loads the ladder's starting contents into a fresh directory
// and serves them.
func (l *ladder) serve() (*hosted, error) {
	dir := l.e.newDir("ladder")
	if err := l.e.load(dir, l.pristine); err != nil {
		return nil, err
	}
	return l.e.host(dir)
}

// scattered calls fn for every live default-key-space entry of the
// starting contents, in the order load uses.
func (l *ladder) scattered(fn func(key, val int64)) {
	k := l.pristine.ks[0]
	u := len(k.val)
	for i := 0; i < u; i++ {
		if idx := uint32(i * batchStride % u); k.live[idx] {
			fn(keyOf(idx), k.val[idx])
		}
	}
}

func (l *ladder) run(seed uint64) error {
	keys, rounds := ladderKeys/l.div, max(4, ladderRounds/l.div)
	l.pristine = newGenerator(seed, keys, keys/10, false)
	l.g = newGenerator(seed, keys, keys/10, false)
	var err error
	if l.route, err = shard.New(dbShards, dbSeed, nil); err != nil {
		return err
	}
	rng := newRand(seed, 0x1add)
	next := func(kind opKind, pick, n int) {
		gr := group{kind: kind}
		for i := 0; i < n; i++ {
			if kind == opNSGet || kind == opNSPut {
				gr.ops = append(gr.ops, l.g.next(rng, only(kind, pick), -1))
				continue
			}
			o := l.drawShard0(rng, kind, pick)
			gr.ops = append(gr.ops, o)
			if kind == opRange {
				o.val = l.scanShard0(o.idx)
			}
			gr.sub = append(gr.sub, o)
		}
		l.groups = append(l.groups, gr)
	}
	for r := 0; r < rounds; r++ {
		next(opGet, pickAny, 16)
		next(opPut, pickDead, 16)
		next(opDel, pickLive, 16)
		next(opRange, pickAny, 4)
		next(opNSGet, pickAny, 16)
		next(opNSPut, pickLive, 16)
	}

	// hipma and cobt: timed without a tracker, counted with one.
	for _, tracked := range []bool{false, true} {
		var ioP, ioD *iomodel.Tracker
		if tracked {
			ioP, ioD = iomodel.New(damBlock, damBlock), iomodel.New(damBlock, damBlock)
		}
		pma := hipma.New(dbSeed, ioP)
		dict := cobt.New(dbSeed, ioD)
		l.scattered(func(k, v int64) {
			if l.inShard0(idxOf(k)) {
				pma.InsertKey(k, v)
				dict.Put(k, v)
			}
		})
		if tracked {
			ioP.Reset()
			ioD.Reset()
			h := l.replay("hipma", &pmaRung{p: pma}, true, ioP)
			l.set("hipma.dam_ios_per_insert", mean(h[opPut]), len(h[opPut]))
			c := l.replay("cobt", &dictRung{d: dict}, true, ioD)
			l.set("cobt.dam_ios_per_get", mean(c[opGet]), len(c[opGet]))
			l.set("cobt.dam_ios_per_put", mean(c[opPut]), len(c[opPut]))
			l.set("cobt.dam_ios_per_range100", mean(c[opRange]), len(c[opRange]))
			continue
		}
		h := l.replay("hipma", &pmaRung{p: pma}, true, nil)
		l.setMedian("hipma.insert_ns", h, opPut)
		l.setMedian("hipma.delete_ns", h, opDel)
		l.setMedian("hipma.range100_ns", h, opRange)
		c := l.replay("cobt", &dictRung{d: dict}, true, nil)
		l.setMedian("cobt.get_ns", c, opGet)
		l.setMedian("cobt.put_ns", c, opPut)
		l.setMedian("cobt.delete_ns", c, opDel)
		l.setMedian("cobt.range100_ns", c, opRange)
	}

	if err := l.shardRung(); err != nil {
		return err
	}

	// durable, server and client each get a database of their own, so
	// all three replay the very same ops from the very same contents.
	d, err := l.serve()
	if err != nil {
		return err
	}
	s := l.replay("durable", &dbRung{db: d.db}, false, nil)
	d.discard()
	l.setMedian("durable.get_ns", s, opGet)
	l.setMedian("durable.ns_get_ns", s, opNSGet)
	l.setMedian("durable.ns_put_ns", s, opNSPut)

	if d, err = l.serve(); err != nil {
		return err
	}
	pipe := &pipeRung{}
	for _, gr := range l.groups {
		for i := range gr.ops {
			pipe.frames = append(pipe.frames, encodeReq(uint64(len(pipe.frames)+1), &gr.ops[i]))
		}
	}
	cli, srvEnd := net.Pipe()
	pipe.conn, pipe.fr = cli, proto.NewFrameReader(cli, 0)
	served := make(chan struct{})
	go func() { d.srv.ServeConn(srvEnd); close(served) }()
	sp := l.replay("server", pipe, false, nil)
	cli.Close()
	<-served
	d.discard()
	l.setMedian("server.pipe_get_ns", sp, opGet)
	l.setMedian("server.pipe_put_ns", sp, opPut)
	l.setMedian("server.pipe_nsput_ns", sp, opNSPut)

	if d, err = l.serve(); err != nil {
		return err
	}
	defer d.discard()
	conn, err := client.Dial(d.addr)
	if err != nil {
		return err
	}
	cp := l.replay("client", &connRung{c: conn}, false, nil)
	conn.Close()
	getNS, putNS, n := median(cp[opGet]), median(cp[opPut]), len(cp[opGet])

	l.protoProbe()
	if err := l.durableProbe(d); err != nil {
		return err
	}
	l.set("shard.self_get_ns", l.get("shard.get_ns")-l.get("cobt.get_ns"), l.vals["shard.get_ns"].samples)
	codec := l.get("proto.decode_req_ns") + l.get("proto.encode_reply_ns")
	l.set("server.self_get_ns", l.get("server.pipe_get_ns")-l.get("durable.get_ns")-codec, l.vals["server.pipe_get_ns"].samples)
	l.set("server.self_put_ns", l.get("server.pipe_put_ns")-l.get("durable.apply_batch_ns_per_op")-codec, l.vals["server.pipe_put_ns"].samples)
	l.set("client.self_get_ns", getNS-l.get("server.pipe_get_ns"), n)
	l.set("client.self_put_ns", putNS-l.get("server.pipe_put_ns"), n)

	if err := l.clientProbe(d, seed); err != nil {
		return err
	}
	return l.replicaProbe(d)
}

func (l *ladder) setMedian(name string, samples map[opKind][]float64, kind opKind) {
	l.set(name, median(samples[kind]), len(samples[kind]))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// mutations draws n puts and deletes over the whole key space.
func (l *ladder) mutations(rng *rand.Rand, n int) ([]op, []shard.Op) {
	gen := make([]op, n)
	ops := make([]shard.Op, n)
	for i := range gen {
		gen[i] = l.g.next(rng, mixMutate, -1)
		ops[i] = shard.Op{Key: keyOf(gen[i].idx), Val: gen[i].val, Delete: gen[i].kind == opDel}
	}
	return gen, ops
}

func (l *ladder) checkChanged(gen []op, changed []bool, err error) {
	for i := range gen {
		l.checked(&gen[i], 0, changed[i], err)
	}
}

// shardRung replays the ladder on a bare Store, then probes its batch
// and snapshot paths.
func (l *ladder) shardRung() error {
	st, err := shard.New(dbShards, dbSeed, nil)
	if err != nil {
		return err
	}
	l.scattered(func(k, v int64) { st.Put(k, v) })
	s := l.replay("shard", &storeRung{s: st}, false, nil)
	l.setMedian("shard.get_ns", s, opGet)
	l.setMedian("shard.put_ns", s, opPut)
	l.setMedian("shard.range100_ns", s, opRange)

	// Overwrites only, so the model's key set is untouched and the
	// later rungs still start from what the groups expect.
	rng := newRand(l.g.seed, 0xba7c)
	var perOp []float64
	changed := make([]bool, probeBatch)
	for b := 0; b < max(4, 64/l.div); b++ {
		ops := make([]shard.Op, probeBatch)
		for i := range ops {
			o := l.g.next(rng, only(opGet, pickLive), -1)
			ops[i] = shard.Op{Key: keyOf(o.idx), Val: o.val}
		}
		t0 := time.Now()
		n, err := st.ApplyBatch(ops, changed)
		d := time.Since(t0)
		l.buf.add(0, "shard.ApplyBatch", t0, d)
		l.p.ops++
		if err != nil || n != 0 {
			l.p.fail(fmt.Sprintf("shard.ApplyBatch of overwrites: changed %d, err %v", n, err))
		}
		perOp = append(perOp, float64(d.Nanoseconds())/probeBatch)
	}
	l.set("shard.apply_batch_ns_per_op", median(perOp), len(perOp))

	var perKey []float64
	for round := 0; round < 3; round++ {
		for i := 0; i < st.NumShards(); i++ {
			t0 := time.Now()
			_, _, err := st.SnapshotShard(i, io.Discard)
			d := time.Since(t0)
			l.buf.add(0, "shard.SnapshotShard", t0, d)
			if err != nil {
				return err
			}
			perKey = append(perKey, float64(d.Nanoseconds())/float64(max(1, st.ShardLen(i))))
		}
	}
	l.set("shard.snapshot_ns_per_key", median(perKey), len(perKey))
	return nil
}

// protoProbe times the GET round trip's four codec steps, a thousand
// calls to a sample, and counts the bytes a GET and a PUT put on the
// wire.
func (l *ladder) protoProbe() {
	const per = 1000
	key, val := keyOf(12345), int64(-987654321)
	getReq := proto.AppendFrame(nil, proto.Frame{Ver: proto.Version, Op: proto.OpGet, ID: 7, Payload: proto.AppendKey(nil, key)})
	getRep := proto.AppendFrame(nil, proto.Frame{Ver: proto.Version, Op: proto.OpGet | proto.FlagReply, ID: 7, Payload: proto.AppendFound(nil, true, val, 3)})
	putReq := proto.AppendFrame(nil, proto.Frame{Ver: proto.Version, Op: proto.OpPut, ID: 7, Payload: proto.AppendKeyVal(nil, key, val)})
	putRep := proto.AppendFrame(nil, proto.Frame{Ver: proto.Version, Op: proto.OpPut | proto.FlagReply, ID: 7, Payload: proto.AppendBool(nil, true)})
	l.set("proto.bytes_per_get_rt", float64(len(getReq)+len(getRep)), 1)
	l.set("proto.bytes_per_put_rt", float64(len(putReq)+len(putRep)), 1)

	var payload, frame []byte
	bad := 0
	steps := []struct {
		name string
		fn   func(i int)
	}{
		{"proto.encode_req_ns", func(i int) {
			payload = proto.AppendKey(payload[:0], key+int64(i))
			frame = proto.AppendFrame(frame[:0], proto.Frame{Ver: proto.Version, Op: proto.OpGet, ID: uint64(i), Payload: payload})
		}},
		{"proto.decode_req_ns", func(int) {
			f, _, err := proto.DecodeFrame(getReq, proto.MaxPayload)
			if k, kerr := proto.DecodeKey(f.Payload); err != nil || kerr != nil || k != key {
				bad++
			}
		}},
		{"proto.encode_reply_ns", func(i int) {
			payload = proto.AppendFound(payload[:0], true, val, uint64(i))
			frame = proto.AppendFrame(frame[:0], proto.Frame{Ver: proto.Version, Op: proto.OpGet | proto.FlagReply, ID: uint64(i), Payload: payload})
		}},
		{"proto.decode_reply_ns", func(int) {
			f, _, err := proto.DecodeFrame(getRep, proto.MaxPayload)
			if v, _, ok, derr := proto.DecodeFound(f.Payload); err != nil || derr != nil || !ok || v != val {
				bad++
			}
		}},
	}
	for _, st := range steps {
		var samples []float64
		for s := 0; s < max(10, 200/l.div); s++ {
			t0 := time.Now()
			for i := 0; i < per; i++ {
				st.fn(i)
			}
			d := time.Since(t0)
			l.buf.add(0, st.name[:len(st.name)-3], t0, d)
			samples = append(samples, float64(d.Nanoseconds())/per)
		}
		l.set(st.name, median(samples), len(samples))
	}
	l.p.ops++
	if bad > 0 {
		l.p.fail(fmt.Sprintf("proto: %d decodes did not give back what was encoded", bad))
	}
}

// dirtyOneShard overwrites 16 keys of shard 0.
func (l *ladder) dirtyOneShard(db *durable.DB, rng *rand.Rand) {
	for n := 0; n < 16; n++ {
		o := l.drawShard0(rng, opPut, pickLive)
		l.checked(&o, 0, db.Put(keyOf(o.idx), o.val), nil)
	}
}

// durableProbe measures what a point op cannot show on d's database:
// batches, full and one-shard checkpoints with their device work,
// recovery, and the worst Put beside a running checkpoint.
func (l *ladder) durableProbe(d *hosted) error {
	db, fs := d.db, l.e.fs
	rng := newRand(l.g.seed, 0xd0ab)
	changed := make([]bool, probeBatch)

	var perOp, ckptMS, ckptBytes, ckptSyncs, ckptAlloc []float64
	var written, mutated int64
	for c := 0; c < ckptCycles; c++ {
		for b := 0; b < 4; b++ { // 4 × 256 uniform mutations: every shard is dirty
			gen, ops := l.mutations(rng, probeBatch)
			t0 := time.Now()
			_, err := db.ApplyBatch(ops, changed)
			dur := time.Since(t0)
			l.buf.add(0, "durable.ApplyBatch", t0, dur)
			l.checkChanged(gen, changed, err)
			perOp = append(perOp, float64(dur.Nanoseconds())/probeBatch)
			mutated += probeBatch
		}
		fs0, alloc0, t0 := fs.counts(), totalAlloc(), time.Now()
		err := db.Checkpoint()
		dur := time.Since(t0)
		l.buf.add(0, "durable.Checkpoint", t0, dur)
		if err != nil {
			return err
		}
		dfs := fs.counts().sub(fs0)
		ckptMS = append(ckptMS, dur.Seconds()*1e3)
		ckptAlloc = append(ckptAlloc, float64(totalAlloc().bytes-alloc0.bytes))
		ckptBytes = append(ckptBytes, float64(dfs.BytesWritten))
		ckptSyncs = append(ckptSyncs, float64(dfs.Syncs))
		written += dfs.BytesWritten
	}
	l.set("durable.apply_batch_ns_per_op", median(perOp), len(perOp))
	l.set("durable.ckpt_ms", median(ckptMS), ckptCycles)
	l.set("durable.ckpt_write_bytes", median(ckptBytes), ckptCycles)
	l.set("durable.ckpt_fsyncs", median(ckptSyncs), ckptCycles)
	l.set("durable.ckpt_alloc_bytes", median(ckptAlloc), ckptCycles)
	l.set("durable.write_bytes_per_user_byte", float64(written)/float64(16*mutated), int(mutated))

	// One dirty shard: overwrite keys that route to shard 0.
	var incrMS []float64
	for c := 0; c < ckptCycles; c++ {
		l.dirtyOneShard(db, rng)
		t0 := time.Now()
		err := db.Checkpoint()
		dur := time.Since(t0)
		l.buf.add(0, "durable.Checkpoint(1 shard)", t0, dur)
		if err != nil {
			return err
		}
		incrMS = append(incrMS, dur.Seconds()*1e3)
	}
	l.set("durable.ckpt_incr_ms", median(incrMS), ckptCycles)

	// The worst Put while a checkpoint of every shard runs beside it.
	worst := time.Duration(0)
	for c := 0; c < 3; c++ {
		gen, ops := l.mutations(rng, 4*probeBatch)
		big := make([]bool, len(ops))
		_, err := db.ApplyBatch(ops, big)
		l.checkChanged(gen, big, err)
		done := make(chan error, 1)
		go func() { done <- db.Checkpoint() }()
		for running := true; running; {
			o := l.g.next(rng, only(opPut, pickLive), -1)
			t0 := time.Now()
			ok := db.Put(keyOf(o.idx), o.val)
			worst = max(worst, time.Since(t0))
			l.checked(&o, 0, ok, nil)
			select {
			case err := <-done:
				if err != nil {
					return err
				}
				running = false
			default:
			}
		}
	}
	l.set("durable.put_stall_max_us", float64(worst.Nanoseconds())/1e3, 3)

	// Recovery: open a copy of the committed directory.
	if err := db.Checkpoint(); err != nil {
		return err
	}
	var openMS []float64
	for i := 0; i < reopens; i++ {
		t0 := time.Now()
		again, err := antipersist.Open(d.dir, l.e.dbOptions())
		dur := time.Since(t0)
		l.buf.add(0, "durable.Open", t0, dur)
		if err != nil {
			return err
		}
		openMS = append(openMS, dur.Seconds()*1e3)
		again.Abandon()
	}
	l.set("durable.open_ms", median(openMS), len(openMS))
	return nil
}

// clientProbe measures the client over TCP beyond the ladder's serial
// medians: the serial tail, latency under the saturated phase's load,
// an open loop at a fixed rate timed from each request's due time, and
// how well the server coalesces saturated writes.
func (l *ladder) clientProbe(d *hosted, seed uint64) error {
	rng := newRand(seed, 0xc11e)
	reads := func(n int) []op {
		s := make([]op, n)
		for i := range s {
			s[i] = l.g.next(rng, only(opGet, pickAny), -1)
		}
		return s
	}
	lat := func(cl *client.Client, o *op, from time.Time) float64 {
		val, ok, err := cl.Get(keyOf(o.idx))
		us := float64(time.Since(from).Nanoseconds()) / 1e3
		if msg := verdict(o, val, ok, err); msg != "" {
			return -1
		}
		return us
	}
	collect := func(name string, lats []float64) []float64 {
		good := lats[:0]
		for _, v := range lats {
			l.p.ops++
			if v < 0 {
				l.p.fail(name + ": a GET reply differed from the model")
				continue
			}
			good = append(good, v)
		}
		return good
	}

	one, err := client.Open(d.addr, 1, 30*time.Second)
	if err != nil {
		return err
	}
	ops := reads(20_000 / l.div)
	lats := make([]float64, len(ops))
	for i := range ops {
		lats[i] = lat(one, &ops[i], time.Now())
	}
	one.Close()
	lats = collect("serial", dropWarm(lats))
	l.set("client.serial_lat_p99_us", quantile(lats, 0.99), len(lats))

	cl, err := client.Open(d.addr, netConns, 30*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	ops = reads(64_000 / l.div)
	lats = make([]float64, len(ops))
	var wg sync.WaitGroup
	for w := 0; w < partitions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ops); i += partitions {
				lats[i] = lat(cl, &ops[i], time.Now())
			}
		}(w)
	}
	wg.Wait()
	lats = collect("loaded", dropWarm(lats))
	l.set("client.loaded_lat_p50_us", quantile(lats, 0.5), len(lats))
	l.set("client.loaded_lat_p99_us", quantile(lats, 0.99), len(lats))

	// Open loop: request i is due at start + i/rate whatever the server
	// does; its latency runs from that due time, so a stall is charged
	// to every request it delays, and the generator's own lateness is
	// reported beside it.
	ops = reads(openLoopRate / l.div)
	lats = make([]float64, len(ops))
	lags := make([]float64, len(ops))
	interval := time.Second / openLoopRate
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < openWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ops); i += openWorkers {
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				lags[i] = float64(time.Since(due).Nanoseconds()) / 1e3
				lats[i] = lat(cl, &ops[i], due)
			}
		}(w)
	}
	wg.Wait()
	lats = collect("open loop", lats)
	l.set("client.open20k_lat_p99_us", quantile(lats, 0.99), len(lats))
	l.set("client.open20k_sched_lag_p99_us", quantile(lags, 0.99), len(lags))

	// Saturated overwrites, one key partition per worker.
	st0 := d.srv.Stats()
	streams := l.g.chunk(chunkSpec{only(opPut, pickLive), partitions, max(16, 2_000/l.div)}, 0x5a7, nil)
	var mu sync.Mutex
	for _, s := range streams {
		wg.Add(1)
		go func(s []op) {
			defer wg.Done()
			for i := range s {
				if msg := callNet(cl, &s[i]); msg != "" {
					mu.Lock()
					l.p.fail(msg)
					mu.Unlock()
				}
			}
		}(s)
	}
	wg.Wait()
	l.p.ops += partitions * len(streams[0])
	st := d.srv.Stats()
	batches := st.WriteBatches - st0.WriteBatches
	l.set("server.coalesce_mean_batch", float64(st.WriteBatched-st0.WriteBatched)/float64(max(1, batches)), int(batches))
	return nil
}

// replicaProbe syncs a fresh replica off d: cold, converged, after one
// dirty shard, and after every shard is dirty.
func (l *ladder) replicaProbe(d *hosted) error {
	if err := d.db.Checkpoint(); err != nil {
		return err
	}
	ropts := l.e.dbOptions()
	ropts.NoSweep = true
	rdir := l.e.newDir("replica")
	rdb, err := antipersist.Open(rdir, ropts)
	if err != nil {
		return err
	}
	defer rdb.Abandon()
	rep, err := replica.New(rdb, replica.Config{Dial: func() (net.Conn, error) { return net.Dial("tcp", d.addr) }})
	if err != nil {
		return err
	}
	defer rep.Stop()
	syncOnce := func(name string) (replica.Summary, float64, error) {
		t0 := time.Now()
		sum, err := rep.SyncOnce()
		dur := time.Since(t0)
		l.buf.add(0, "replica.SyncOnce("+name+")", t0, dur)
		l.p.ops++
		return sum, dur.Seconds() * 1e3, err
	}

	sum, ms, err := syncOnce("cold")
	if err != nil {
		return err
	}
	if !sum.Installed {
		l.p.fail("replica: the cold sync installed nothing")
	}
	l.set("replica.sync_full_ms", ms, 1)

	var conv, incr []float64
	var fetched, shards int64
	rng := newRand(l.g.seed, 0x5e9c)
	for c := 0; c < ckptCycles; c++ {
		if sum, ms, err = syncOnce("converged"); err != nil {
			return err
		}
		if !sum.Converged {
			l.p.fail("replica: a sync with nothing new did not report convergence")
		}
		conv = append(conv, ms)

		l.dirtyOneShard(d.db, rng)
		if err := d.db.Checkpoint(); err != nil {
			return err
		}
		if sum, ms, err = syncOnce("1 shard"); err != nil {
			return err
		}
		incr = append(incr, ms)

		gen, ops := l.mutations(rng, 4*probeBatch) // every shard dirty
		changed := make([]bool, len(ops))
		_, err := d.db.ApplyBatch(ops, changed)
		l.checkChanged(gen, changed, err)
		if err := d.db.Checkpoint(); err != nil {
			return err
		}
		if sum, _, err = syncOnce("all shards"); err != nil {
			return err
		}
		fetched, shards = fetched+sum.BytesFetched, shards+int64(sum.ShardsFetched)
	}
	l.set("replica.sync_converged_ms", median(conv), len(conv))
	l.set("replica.sync_incr_ms", median(incr), len(incr))
	l.set("replica.bytes_fetched_per_cycle", float64(fetched)/ckptCycles, ckptCycles)
	l.set("replica.shards_fetched_per_cycle", float64(shards)/ckptCycles, ckptCycles)

	l.p.ops++
	if err := rdb.VerifyCanonical(); err != nil {
		l.p.fail("replica VerifyCanonical: " + err.Error())
	}
	l.p.ops++
	if diff := compareDirs(d.dir, rdir); diff != "" {
		l.p.fail("replica directory differs from the primary's: " + diff)
	}
	return nil
}

// traced is the traced run of one workload: a tenth of its op stream
// without spans, which gives the e2e timing rows, and a tenth with,
// whose difference is the tracing overhead; then the ladder. The spans
// go to bench/out.
func (e *env) traced(cfg config, div int) (*pass, []metric, error) {
	tr := newTracer()
	g := cfg.generator()
	inst, _, err := e.setUp(cfg, g)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	plain := inst.measure(g, 0, nil)
	p := inst.measure(g, len(cfg.plan()), tr)
	dir := inst.shutdown(p)
	p.ops, p.failed = p.ops+plain.ops, p.failed+plain.failed
	if p.firstErr == "" {
		p.firstErr = plain.firstErr
	}
	var reopenS []float64
	reopenAt := time.Now()
	if db, err := antipersist.Open(dir, e.dbOptions()); err != nil {
		p.fail("reopen: " + err.Error())
	} else {
		reopenS = append(reopenS, time.Since(reopenAt).Seconds())
		p.ops++
		if msg := checkContents(db, g); msg != "" {
			p.fail("final contents: " + msg)
		}
		db.Abandon()
	}

	l := &ladder{e: e, div: div, p: p, buf: tr.buf(0), vals: map[string]metric{}}
	for _, m := range plain.timingRows(reopenS) { // the untraced tenth, as the gated run measures it
		l.set("e2e."+m.name, m.value, m.samples)
	}
	if err := l.run(cfg.seed); err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}
	l.set("bench.trace_overhead_pct", (p.perOp()-plain.perOp())/plain.perOp()*100, len(p.lats))

	path := fmt.Sprintf("bench/out/trace-%s.json", cfg.workload)
	n, err := tr.write(path)
	if err != nil {
		return nil, nil, err
	}
	p.info = append(p.info, fmt.Sprintf("%d spans written to %s", n, path))
	ms := make([]metric, 0, len(perLayer))
	for _, def := range perLayer {
		m, ok := l.vals[def.name]
		if !ok {
			return nil, nil, fmt.Errorf("the traced run did not measure %s", def.name)
		}
		ms = append(ms, m)
	}
	return p, ms, nil
}
