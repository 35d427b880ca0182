package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	antipersist "repro"
	"repro/client"
	"repro/internal/durable"
	"repro/internal/expiry"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
)

const (
	// The store's own seed and clock are constants, never -seed: the
	// program under test is configured the same way whatever the input.
	dbSeed     = 42
	dbShards   = 8
	clockEpoch = 1_700_000_000 // a fixed epoch below farFuture: expiry never fires
	netConns   = 2             // saturated phase: netConns × (partitions/netConns) in flight
	setups     = 3             // set-ups per run; setup_s is their median
	reopens    = 7             // reopen_s is the lower quartile of this many
	latSample  = 16            // embed_mixed times one call in this many
)

// serverConfig is how every server in the benchmark is configured: no
// sweeper, no metrics registry, no trace store — nothing in it runs off
// a wall-clock timer during a measured window.
var serverConfig = server.Config{SweepInterval: -1}

// sizes holds every count that -check and the traced run scale down.
type sizes struct {
	defKeys, tenantKeys int
	slice               int // ops per slice; net_write checkpoints once in each
	cycleOps            int // mutations per ckpt_sync cycle
}

// phaseSize is a workload's size for -seconds 10: main counts slices
// (ckpt_sync: cycles), serial counts the ops of the network workloads'
// one-in-flight phase. This is fixed work: the counts were chosen so
// that the measured window takes about ten seconds on the 2-core
// sandbox at the commit that added the benchmark, and they scale
// linearly with -seconds.
var phaseSize = map[string]struct{ main, serial int }{
	"net_read":    {main: 9, serial: 250_000},
	"net_write":   {main: 6, serial: 80_000},
	"embed_mixed": {main: 30},
	"ckpt_sync":   {main: 12},
}

var workloadMix = map[string][]choice{
	"net_read": mixNetRead, "net_write": mixNetWrite, "embed_mixed": mixEmbed, "ckpt_sync": mixMutate,
}

// config is one run's shape: the workload, its seed and its sizes.
type config struct {
	workload string
	seed     uint64
	// ttl puts expiries on an eighth of the preload. embed_mixed leaves
	// them out: a store that holds any expiry answers a scan with one
	// expiry-index lookup per item, and a 100-item scan would then
	// measure that index a hundred times over and the PMA once.
	ttl bool
	// ckptPerSlice has the saturated phase start one Checkpoint at
	// each slice boundary.
	ckptPerSlice bool
	sz           sizes
	main         int // ops in the main phase (saturated, or the single serial stream)
	serial       int // ops in the network workloads' serial phase
}

// newConfig sizes a run. A gated run has both divisors 1; the traced
// run replays a tenth of each op stream over the full preload
// (opsDiv 10); -check shrinks both a hundredfold.
func newConfig(workload string, seed uint64, seconds, preloadDiv, opsDiv int) config {
	c := config{workload: workload, seed: seed, ttl: workload != "embed_mixed", ckptPerSlice: workload == "net_write"}
	c.sz = sizes{defKeys: 500_000 / preloadDiv, tenantKeys: 25_000 / preloadDiv, slice: 100_000 / opsDiv, cycleOps: 5_000 / preloadDiv}
	p := phaseSize[workload]
	units := max(1, p.main*seconds/10)
	if workload == "ckpt_sync" {
		// A cycle's size goes with the store (it must dirty every
		// shard); only the number of cycles goes with the op count.
		c.main = max(2, units/opsDiv) * c.sz.cycleOps
	} else {
		c.main = units * c.sz.slice
	}
	c.serial = p.serial * seconds / 10 / opsDiv
	return c
}

func (c config) generator() *generator {
	return newGenerator(c.seed, c.sz.defKeys, c.sz.tenantKeys, c.ttl)
}

// plan lists the chunks the workload runs, in order.
func (c config) plan() []chunkSpec {
	mix := workloadMix[c.workload]
	switch c.workload {
	case "net_read", "net_write":
		return []chunkSpec{{mix, partitions, c.main / partitions}, {mix, 1, c.serial}}
	case "embed_mixed":
		return repeat(chunkSpec{mix, 1, c.sz.slice}, c.main/c.sz.slice)
	default:
		return repeat(chunkSpec{mix, 1, c.sz.cycleOps}, c.main/c.sz.cycleOps)
	}
}

func repeat(s chunkSpec, n int) []chunkSpec {
	out := make([]chunkSpec, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// env is where a run keeps its files: a scratch directory inside the
// checkout, reached through the counting filesystem.
type env struct {
	dir string
	fs  *countingFS
	n   int
}

func (e *env) newDir(kind string) string {
	e.n++
	return filepath.Join(e.dir, fmt.Sprintf("%s-%d", kind, e.n))
}

// dbOptions is the one configuration every database in the benchmark
// is opened with. There is no background checkpointer, so no
// checkpoint ever fires off a timer: each one is an explicit call at an
// op count the workload fixes.
func (e *env) dbOptions() *antipersist.DBOptions {
	return &antipersist.DBOptions{
		Shards: dbShards, Seed: dbSeed, FS: e.fs, Clock: expiry.NewManual(clockEpoch), NoBackground: true,
	}
}

// load bulk-loads the generator's current contents into a fresh
// database in dir, checkpoints and closes it. Keys go in a scattered
// order, one slice of it per CPU.
func (e *env) load(dir string, g *generator) error {
	db, err := antipersist.Open(dir, e.dbOptions())
	if err != nil {
		return err
	}
	def := g.ks[0]
	u := len(def.val)
	if u%batchStride == 0 {
		return fmt.Errorf("universe %d is a multiple of the scatter stride", u)
	}
	var wg sync.WaitGroup
	errs := make(chan error, numTenants)
	cpus := runtime.GOMAXPROCS(0)
	for c := 0; c < cpus; c++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ops := make([]shard.Op, 0, 4096)
			for i := lo; i < hi; i++ {
				idx := uint32(i * batchStride % u)
				if def.live[idx] {
					ops = append(ops, shard.Op{Key: keyOf(idx), Val: def.val[idx], Exp: int64(b2i(def.ttl[idx])) * farFuture})
				}
				if len(ops) == cap(ops) || i == hi-1 {
					db.ApplyBatch(ops, nil)
					ops = ops[:0]
				}
			}
		}(c*u/cpus, (c+1)*u/cpus)
	}
	for ks := uint8(1); ks <= numTenants; ks++ {
		wg.Add(1)
		go func(ks uint8) {
			defer wg.Done()
			k, ns := g.ks[ks], tenantNames[ks]
			tu := len(k.val)
			for i := 0; i < tu; i++ {
				idx := uint32(i * batchStride % tu)
				if !k.live[idx] {
					continue
				}
				var err error
				if k.ttl[idx] {
					_, err = db.NSPutTTL(ns, keyOf(idx), k.val[idx], farFuture)
				} else {
					_, err = db.NSPut(ns, keyOf(idx), k.val[idx])
				}
				if err != nil {
					errs <- fmt.Errorf("preloading %s: %w", ns, err)
					return
				}
			}
		}(ks)
	}
	wg.Wait()
	select {
	case err := <-errs:
		db.Abandon()
		return err
	default:
	}
	if err := db.Checkpoint(); err != nil {
		db.Abandon()
		return err
	}
	return db.Close()
}

// pass is what one measured pass over a workload's phases produced.
type pass struct {
	rates    []float64     // ops/s of each slice after warm-up
	cpus     []float64     // CPU µs per op of each slice after warm-up
	lats     []float64     // µs with one op in flight, after warm-up
	allocs   []float64     // heap bytes allocated per op in each slice after warm-up
	objects  []float64     // heap objects allocated per op in each slice after warm-up
	oneWall  time.Duration // wall time of the one-in-flight stream, warm-up included
	oneOps   int
	ops      int
	failed   int
	firstErr string
	info     []string
}

// perOp is the wall time per op of the one-in-flight stream, what the
// traced and the untraced pass are compared on.
func (p *pass) perOp() float64 { return float64(p.oneWall.Nanoseconds()) / float64(max(1, p.oneOps)) }

func (p *pass) fail(msg string) {
	p.failed++
	if p.firstErr == "" {
		p.firstErr = msg
	}
}

// heapAllocs is the process's cumulative heap allocation.
type heapAllocs struct{ bytes, objects uint64 }

// totalAlloc reads the allocation counters without stopping the world,
// so a worker can take them mid-phase.
func totalAlloc() heapAllocs {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	return heapAllocs{sample[0].Value.Uint64(), sample[1].Value.Uint64()}
}

// addAllocs records what one slice of ops allocated, per op.
func (p *pass) addAllocs(from, to heapAllocs, ops int) {
	p.allocs = append(p.allocs, float64(to.bytes-from.bytes)/float64(ops))
	p.objects = append(p.objects, float64(to.objects-from.objects)/float64(ops))
}

func mustCPU() time.Duration {
	d, err := cpuTime()
	if err != nil {
		panic(err)
	}
	return d
}

var (
	clientSpan  = spanNames("client.")
	durableSpan = spanNames("durable.")
)

func spanNames(prefix string) (n [numOpKinds]string) {
	for k := range n {
		n[k] = prefix + opNames[k]
	}
	return n
}

// instance is a workload set up and ready to measure.
type instance interface {
	// measure runs the workload's phases over plan chunks base.. and
	// records spans when tr is not nil.
	measure(g *generator, base int, tr *tracer) *pass
	// shutdown stops everything, leaves the final checkpoint in the
	// primary's directory and returns that directory.
	shutdown(p *pass) string
	// discard stops everything without a final checkpoint.
	discard()
}

// ---- network workloads ---------------------------------------------------

// hosted is an open database with a server over it on a loopback
// port.
type hosted struct {
	dir  string
	db   *durable.DB
	srv  *server.Server
	addr string
	done chan error
}

// host opens the database in dir and serves it.
func (e *env) host(dir string) (*hosted, error) {
	db, err := antipersist.Open(dir, e.dbOptions())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Abandon()
		return nil, err
	}
	h := &hosted{dir: dir, db: db, srv: server.New(db, serverConfig), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { h.done <- h.srv.Serve(ln) }()
	return h, nil
}

// stopServer severs the connections and waits for Serve to return; the
// database stays open.
func (h *hosted) stopServer() {
	h.srv.Close()
	<-h.done
}

// discard stops everything without a final checkpoint.
func (h *hosted) discard() {
	h.stopServer()
	h.db.Abandon()
}

type netInstance struct {
	cfg config
	*hosted
}

func (e *env) openNet(cfg config, dir string) (instance, error) {
	h, err := e.host(dir)
	if err != nil {
		return nil, err
	}
	return &netInstance{cfg, h}, nil
}

func (n *netInstance) measure(g *generator, base int, tr *tracer) *pass {
	p := &pass{}
	plan := n.cfg.plan()
	sat := g.chunk(plan[0], base, nil)
	serial := g.chunk(plan[1], base+1, nil)[0]
	ckpt0 := n.db.Checkpoints()
	stats0 := n.srv.Stats()

	cl, err := client.Open(n.addr, netConns, 30*time.Second)
	if err != nil {
		p.fail(err.Error())
		return p
	}
	n.saturated(p, cl, sat, tr)
	cl.Close()

	cl, err = client.Open(n.addr, 1, 30*time.Second)
	if err != nil {
		p.fail(err.Error())
		return p
	}
	n.serialPhase(p, cl, serial, tr)
	cl.Close()

	st := n.srv.Stats()
	batches, batched := st.WriteBatches-stats0.WriteBatches, st.WriteBatched-stats0.WriteBatched
	p.info = append(p.info, fmt.Sprintf("checkpoints in the window: %d; coalesced writes: %d in %d batches",
		n.db.Checkpoints()-ckpt0, batched, batches))
	return p
}

// saturated runs one stream per worker, closed loop, and cuts the
// phase into slices by completed-op count: whichever worker completes
// op number k×slice stamps the time.
func (n *netInstance) saturated(p *pass, cl *client.Client, streams [][]op, tr *tracer) {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	slice := n.cfg.sz.slice
	nslices := total / slice
	warm := warmCount(nslices)
	stamps := make([]time.Duration, nslices+1)
	cpuStamps := make([]time.Duration, nslices+1)
	allocStamps := make([]heapAllocs, nslices+1)
	var (
		done, failed atomic.Int64
		errOnce      sync.Once
		wg           sync.WaitGroup
	)

	// A write workload is checkpointed by op count, from here: when a
	// slice completes, one Checkpoint of it starts and runs beside the
	// next slice's traffic, so every slice but the first, which is
	// warm-up, carries exactly one. (The store's own threshold trigger
	// re-arms while a checkpoint runs, so how many it fires depends on
	// timing; see README.md.)
	kick := make(chan struct{}, nslices)
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for range kick {
			if err := n.db.Checkpoint(); err != nil {
				failed.Add(1)
				errOnce.Do(func() { p.firstErr = "checkpoint: " + err.Error() })
			}
		}
	}()
	var (
		phaseAt  int
		phaseID  uint32
		phaseBuf *spanBuf
	)
	if tr != nil {
		phaseBuf = tr.buf(-1)
		phaseAt, phaseID = phaseBuf.begin(0, n.cfg.workload+".saturated")
	}
	start := time.Now()
	cpuStamps[0], allocStamps[0] = mustCPU(), totalAlloc()
	for w, s := range streams {
		wg.Add(1)
		go func(w int, s []op) {
			defer wg.Done()
			var buf *spanBuf
			if tr != nil {
				buf = tr.buf(w)
			}
			for i := range s {
				o := &s[i]
				var msg string
				if buf != nil {
					t0 := time.Now()
					msg = callNet(cl, o)
					buf.add(phaseID, clientSpan[o.kind], t0, time.Since(t0))
				} else {
					msg = callNet(cl, o)
				}
				if msg != "" {
					failed.Add(1)
					errOnce.Do(func() { p.firstErr = msg })
				}
				if k := int(done.Add(1)); k%slice == 0 {
					stamps[k/slice], cpuStamps[k/slice], allocStamps[k/slice] = time.Since(start), mustCPU(), totalAlloc()
					if n.cfg.ckptPerSlice && k < total {
						kick <- struct{}{}
					}
				}
			}
		}(w, s)
	}
	wg.Wait()
	close(kick)
	<-ckptDone
	if tr != nil {
		phaseBuf.end(phaseAt)
	}
	for i := warm; i < nslices; i++ {
		p.rates = append(p.rates, float64(slice)/(stamps[i+1]-stamps[i]).Seconds())
		p.cpus = append(p.cpus, float64((cpuStamps[i+1]-cpuStamps[i]).Microseconds())/float64(slice))
		p.addAllocs(allocStamps[i], allocStamps[i+1], slice)
	}
	p.ops += total
	p.failed += int(failed.Load())
}

func (n *netInstance) serialPhase(p *pass, cl *client.Client, s []op, tr *tracer) {
	var buf *spanBuf
	var phaseAt int
	var phaseID uint32
	if tr != nil {
		buf = tr.buf(0)
		phaseAt, phaseID = buf.begin(0, n.cfg.workload+".serial")
	}
	lats := make([]float64, 0, len(s))
	start := time.Now()
	for i := range s {
		o := &s[i]
		t0 := time.Now()
		msg := callNet(cl, o)
		d := time.Since(t0)
		if buf != nil {
			buf.add(phaseID, clientSpan[o.kind], t0, d)
		}
		lats = append(lats, float64(d.Nanoseconds())/1e3)
		if msg != "" {
			p.fail(msg)
		}
	}
	if tr != nil {
		buf.end(phaseAt)
	}
	p.oneWall, p.oneOps = time.Since(start), len(s)
	p.lats = append(p.lats, dropWarm(lats)...)
	p.ops += len(s)
}

func (n *netInstance) shutdown(p *pass) string {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil { // drains, then commits the final checkpoint
		p.fail("server shutdown: " + err.Error())
	}
	<-n.done
	if err := n.db.Close(); err != nil {
		p.fail("close: " + err.Error())
	}
	return n.dir
}

// ---- embed_mixed ---------------------------------------------------------

type embedInstance struct {
	cfg config
	dir string
	db  *durable.DB
}

func (e *env) openEmbed(cfg config, dir string) (instance, error) {
	db, err := antipersist.Open(dir, e.dbOptions())
	if err != nil {
		return nil, err
	}
	return &embedInstance{cfg: cfg, dir: dir, db: db}, nil
}

// measure generates each slice with the clock stopped, then runs it on
// one goroutine. CPU and allocation are summed over the timed parts
// only, so the generator's share stays out of them.
func (m *embedInstance) measure(g *generator, base int, tr *tracer) *pass {
	p := &pass{}
	plan := m.cfg.plan()
	universe := len(g.ks[0].val)
	var (
		chunk   [][]op
		sc      dbScratch
		buf     *spanBuf
		lats    []float64
		phaseID uint32
		phaseAt int
	)
	if tr != nil {
		buf = tr.buf(0)
		phaseAt, phaseID = buf.begin(0, m.cfg.workload+".serial")
	}
	warm := warmCount(len(plan))
	for n, spec := range plan {
		chunk = g.chunk(spec, base+n, chunk)
		s := chunk[0]
		alloc0, cpu0, start := totalAlloc(), mustCPU(), time.Now()
		for i := range s {
			o := &s[i]
			if buf == nil && i%latSample != 0 {
				if msg := callDB(m.db, o, &sc, universe); msg != "" {
					p.fail(msg)
				}
				continue
			}
			t0 := time.Now()
			msg := callDB(m.db, o, &sc, universe)
			d := time.Since(t0)
			if buf != nil {
				buf.add(phaseID, durableSpan[o.kind], t0, d)
			}
			if n >= warm {
				lats = append(lats, float64(d.Nanoseconds())/1e3)
			}
			if msg != "" {
				p.fail(msg)
			}
		}
		el := time.Since(start)
		p.ops += len(s)
		p.oneWall, p.oneOps = p.oneWall+el, p.oneOps+len(s)
		if n >= warm {
			p.addAllocs(alloc0, totalAlloc(), len(s))
			p.cpus = append(p.cpus, float64((mustCPU()-cpu0).Microseconds())/float64(len(s)))
			p.rates = append(p.rates, float64(len(s))/el.Seconds())
		}
	}
	if tr != nil {
		buf.end(phaseAt)
	}
	p.lats = lats
	return p
}

func (m *embedInstance) shutdown(p *pass) string {
	if err := m.db.Checkpoint(); err != nil {
		p.fail("final checkpoint: " + err.Error())
	}
	if err := m.db.Close(); err != nil {
		p.fail("close: " + err.Error())
	}
	return m.dir
}

func (m *embedInstance) discard() { m.db.Abandon() }

// ---- ckpt_sync -----------------------------------------------------------

type syncInstance struct {
	cfg config
	*hosted
	rdb      *durable.DB
	rep      *replica.Replica
	replicaD string
}

// openSync opens the primary, serves it, and cold-syncs one replica in
// a directory of its own.
func (e *env) openSync(cfg config, dir string) (instance, error) {
	h, err := e.host(dir)
	if err != nil {
		return nil, err
	}
	s := &syncInstance{cfg: cfg, hosted: h, replicaD: e.newDir("replica")}
	ropts := e.dbOptions()
	ropts.NoSweep = true
	if s.rdb, err = antipersist.Open(s.replicaD, ropts); err != nil {
		s.discard()
		return nil, err
	}
	s.rep, err = replica.New(s.rdb, replica.Config{Dial: func() (net.Conn, error) { return net.Dial("tcp", h.addr) }})
	if err == nil {
		_, err = s.rep.SyncOnce()
	}
	if err != nil {
		s.discard()
		return nil, err
	}
	return s, nil
}

func (s *syncInstance) discard() {
	if s.rep != nil {
		s.rep.Stop()
	}
	if s.rdb != nil {
		s.rdb.Abandon()
	}
	s.hosted.discard()
}

// measure runs the cycles: apply a batch that dirties every shard,
// checkpoint it, ship it. One op is one mutation made durable and
// replicated; the serial latency is one whole cycle.
func (s *syncInstance) measure(g *generator, base int, tr *tracer) *pass {
	p := &pass{}
	plan := s.cfg.plan()
	var (
		chunk   [][]op
		ops     []shard.Op
		changed []bool
		buf     *spanBuf
	)
	if tr != nil {
		buf = tr.buf(0)
	}
	timed := func(parent uint32, name string, fn func()) {
		if buf == nil {
			fn()
			return
		}
		t0 := time.Now()
		fn()
		buf.add(parent, name, t0, time.Since(t0))
	}
	warm := warmCount(len(plan))
	var fetched, shards int64
	for n, spec := range plan {
		chunk = g.chunk(spec, base+n, chunk)
		gen := chunk[0]
		ops, changed = ops[:0], changed[:0]
		for i := range gen {
			ops = append(ops, shard.Op{Key: keyOf(gen[i].idx), Val: gen[i].val, Delete: gen[i].kind == opDel})
			changed = append(changed, false)
		}
		var cycleAt int
		var cycleID uint32
		if buf != nil {
			cycleAt, cycleID = buf.begin(0, "ckpt_sync.cycle")
		}
		alloc0, cpu0, start := totalAlloc(), mustCPU(), time.Now()
		var err error
		var sum replica.Summary
		timed(cycleID, "durable.ApplyBatch", func() { _, err = s.db.ApplyBatch(ops, changed) })
		if err == nil {
			timed(cycleID, "durable.Checkpoint", func() { err = s.db.Checkpoint() })
		}
		if err == nil {
			timed(cycleID, "replica.SyncOnce", func() { sum, err = s.rep.SyncOnce() })
		}
		el := time.Since(start)
		if buf != nil {
			buf.end(cycleAt)
		}
		p.ops += len(gen)
		p.oneWall, p.oneOps = p.oneWall+el, p.oneOps+len(gen)
		alloc1 := totalAlloc()
		switch {
		case err != nil:
			p.fail("cycle: " + err.Error())
		case !sum.Installed:
			p.fail("cycle: the replica installed nothing")
		}
		for i := range gen {
			if changed[i] != gen[i].ok {
				p.fail(mismatch(&gen[i], 0, changed[i], nil))
			}
		}
		fetched, shards = fetched+sum.BytesFetched, shards+int64(sum.ShardsFetched)
		if n >= warm {
			p.addAllocs(alloc0, alloc1, len(gen))
			p.cpus = append(p.cpus, float64((mustCPU()-cpu0).Microseconds())/float64(len(gen)))
			p.rates = append(p.rates, float64(len(gen))/el.Seconds())
			p.lats = append(p.lats, float64(el.Nanoseconds())/1e3)
		}
	}
	p.info = append(p.info, fmt.Sprintf("per cycle: %.1f shard images, %.0f bytes fetched by the replica",
		float64(shards)/float64(len(plan)), float64(fetched)/float64(len(plan))))
	return p
}

func (s *syncInstance) shutdown(p *pass) string {
	s.rep.Stop()
	s.stopServer()
	if err := s.rdb.VerifyCanonical(); err != nil {
		p.fail("replica VerifyCanonical: " + err.Error())
	}
	s.rdb.Abandon() // a replica's directory advances by installs alone
	if err := s.db.Checkpoint(); err != nil {
		p.fail("final checkpoint: " + err.Error())
	}
	if err := s.db.Close(); err != nil {
		p.fail("close: " + err.Error())
	}
	p.ops++
	if diff := compareDirs(s.dir, s.replicaD); diff != "" {
		p.fail("replica directory differs from the primary's: " + diff)
	}
	return s.dir
}

// ---- what every workload does around its phases --------------------------

func (e *env) open(cfg config, dir string) (instance, error) {
	switch cfg.workload {
	case "net_read", "net_write":
		return e.openNet(cfg, dir)
	case "embed_mixed":
		return e.openEmbed(cfg, dir)
	case "ckpt_sync":
		return e.openSync(cfg, dir)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// setUp is the benchmark's set-up, timed: bulk-load the preload into a
// fresh directory, checkpoint, close, and open the result the way the
// workload serves it (for ckpt_sync that includes the replica's cold
// sync).
func (e *env) setUp(cfg config, g *generator) (instance, time.Duration, error) {
	dir := e.newDir("db")
	start := time.Now()
	if err := e.load(dir, g); err != nil {
		return nil, 0, err
	}
	inst, err := e.open(cfg, dir)
	return inst, time.Since(start), err
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range ents {
		fi, err := ent.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// compareDirs returns "" when a and b hold the same file names with
// the same bytes, and otherwise the first difference.
func compareDirs(a, b string) string {
	ea, err := os.ReadDir(a)
	if err != nil {
		return err.Error()
	}
	eb, err := os.ReadDir(b)
	if err != nil {
		return err.Error()
	}
	if len(ea) != len(eb) {
		return fmt.Sprintf("%d files against %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Name() != eb[i].Name() {
			return fmt.Sprintf("file %q against %q", ea[i].Name(), eb[i].Name())
		}
		da, err := os.ReadFile(filepath.Join(a, ea[i].Name()))
		if err != nil {
			return err.Error()
		}
		db, err := os.ReadFile(filepath.Join(b, eb[i].Name()))
		if err != nil {
			return err.Error()
		}
		if !bytes.Equal(da, db) {
			return fmt.Sprintf("file %q differs", ea[i].Name())
		}
	}
	return ""
}

// checkContents compares a database with the model, key by key.
func checkContents(db *durable.DB, g *generator) string {
	def := g.ks[0]
	seen, bad := 0, ""
	db.Ascend(func(it shard.Item) bool {
		idx := idxOf(it.Key)
		if int(idx) >= len(def.val) || keyOf(idx) != it.Key || !def.live[idx] || def.val[idx] != it.Val {
			bad = fmt.Sprintf("key %d val %d is not in the model", it.Key, it.Val)
			return false
		}
		seen++
		return true
	})
	if bad != "" {
		return bad
	}
	if seen != def.liveKeys {
		return fmt.Sprintf("default key space holds %d keys, model %d", seen, def.liveKeys)
	}
	for ks := uint8(1); ks <= numTenants; ks++ {
		k, ns := g.ks[ks], tenantNames[ks]
		if n := db.NSLen(ns); n != k.liveKeys {
			return fmt.Sprintf("%s holds %d keys, model %d", ns, n, k.liveKeys)
		}
		for idx, live := range k.live {
			if !live {
				continue
			}
			if v, ok := db.NSGet(ns, keyOf(uint32(idx))); !ok || v != k.val[idx] {
				return fmt.Sprintf("%s idx %d: got (%d, %v), model says %d", ns, idx, v, ok, k.val[idx])
			}
		}
	}
	return ""
}

// segmentMedians cuts a latency series into 25 consecutive segments
// and returns each segment's median; a series too short for that stands
// for itself.
func segmentMedians(lats []float64) []float64 {
	const segments = 25
	if len(lats) < 8*segments {
		return append([]float64(nil), lats...)
	}
	out := make([]float64, segments)
	for i := range out {
		seg := append([]float64(nil), lats[i*len(lats)/segments:(i+1)*len(lats)/segments]...)
		out[i] = median(seg)
	}
	return out
}

// timingRows are the end-to-end timings of a pass, in the order of the
// timings table. They take the quiet quarter of the run, not its
// middle: on a shared machine a neighbour only ever slows a slice down,
// so the best quartile of slices is the steadier estimate of the
// program (NOISE.md has the comparison).
func (p *pass) timingRows(reopenS []float64) []metric {
	return []metric{
		{"ops_per_s", quantile(p.rates, 0.75), len(p.rates)},
		{"serial_lat_p50_us", quantile(segmentMedians(p.lats), 0.25), len(p.lats)},
		{"cpu_us_per_op", quantile(p.cpus, 0.25), len(p.cpus)},
		{"reopen_s", quantile(reopenS, 0.25), len(reopenS)},
	}
}

// gated runs one workload the way the driver gates it: tracing off,
// every end-to-end metric, every output checked. It returns the gated
// rows followed by the timings.
func (e *env) gated(cfg config) (*pass, []metric, error) {
	g := cfg.generator()
	var (
		inst   instance
		setupS []float64
		fs0    fsCounts
	)
	for i := 0; i < setups; i++ {
		if inst != nil { // an earlier set-up: only its time is kept
			inst.discard()
			inst = nil
			if err := os.RemoveAll(e.dir); err != nil {
				return nil, nil, err
			}
			runtime.GC()
		}
		fs0 = e.fs.counts()
		var d time.Duration
		var err error
		if inst, d, err = e.setUp(cfg, g); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
	}

	// The peak is the measured window's: set-up garbage is returned to
	// the system and the high-water mark restarted first.
	runtime.GC()
	debug.FreeOSMemory()
	resetErr := resetPeakRSS()
	p := inst.measure(g, 0, nil)
	dir := inst.shutdown(p)
	inst = nil
	if resetErr != nil {
		p.info = append(p.info, fmt.Sprintf("peak_rss_mb includes set-up: %v", resetErr))
	}
	rss, err := peakRSSMB() // before the checks below load second copies of the store
	if err != nil {
		return nil, nil, err
	}
	// Everything the system wrote from the start of the set-up that was
	// kept to the final Close: the load's checkpoint, the window's, the
	// last one, and in ckpt_sync the replica's installs too.
	wrote := e.fs.counts().sub(fs0)
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, nil, err
	}

	var reopenS []float64
	for i := 0; i < reopens; i++ {
		runtime.GC()
		start := time.Now()
		db, err := antipersist.Open(dir, e.dbOptions())
		if err != nil {
			return nil, nil, fmt.Errorf("reopen: %w", err)
		}
		reopenS = append(reopenS, time.Since(start).Seconds())
		if i == reopens-1 {
			p.ops += 2
			if err := db.VerifyCanonical(); err != nil {
				p.fail("VerifyCanonical: " + err.Error())
			}
			if msg := checkContents(db, g); msg != "" {
				p.fail("final contents: " + msg)
			}
		}
		db.Abandon()
	}
	if cfg.workload == "embed_mixed" {
		// History independence as the output check: the same contents
		// loaded fresh, in another order, must give the same bytes.
		p.ops++
		fresh := e.newDir("fresh")
		if err := e.load(fresh, g); err != nil {
			return nil, nil, fmt.Errorf("fresh load: %w", err)
		}
		if diff := compareDirs(dir, fresh); diff != "" {
			p.fail("directory differs from a fresh load of the same contents: " + diff)
		}
	}

	dist := func(xs []float64) string {
		return fmt.Sprintf("min %.4g, quartiles %.4g %.4g %.4g, max %.4g (n=%d)",
			quantile(xs, 0), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 1), len(xs))
	}
	p.info = append(p.info,
		"slice rates, ops/s: "+dist(p.rates),
		"slice CPU, us/op: "+dist(p.cpus),
		"slice allocation, B/op: "+dist(p.allocs),
		"serial latency medians of 25 segments (ckpt_sync: cycles), us: "+dist(segmentMedians(p.lats)),
		fmt.Sprintf("set-ups, s: %.3f; reopens, s: %.3f", setupS, reopenS),
		fmt.Sprintf("storage: %d bytes written, %d syncs, %d renames, %d removes; %d bytes on disk",
			wrote.BytesWritten, wrote.Syncs, wrote.Renames, wrote.Removes, disk))
	liveBytes := float64(16 * g.liveKeys())
	// Counts take the median slice, which sheds the PMA's rare
	// whole-array resizes; they are random by design.
	ms := []metric{
		{"setup_s", median(setupS), len(setupS)},
		{"alloc_bytes_per_op", median(p.allocs), len(p.allocs)},
		{"allocs_per_op", median(p.objects), len(p.objects)},
		{"peak_rss_mb", rss, 1},
		{"disk_bytes_per_live_byte", float64(disk) / liveBytes, 1},
		{"write_bytes_per_live_byte", float64(wrote.BytesWritten) / liveBytes, 1},
		{"fsyncs", float64(wrote.Syncs), 1},
	}
	return p, append(ms, p.timingRows(reopenS)...), nil
}
