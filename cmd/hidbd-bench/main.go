// hidbd-bench is a closed-loop load generator for hidbd: every worker
// issues one request, waits for its reply, and immediately issues the
// next, so offered load self-regulates to the server's capacity.
// Concurrency is conns × depth: -conns pipelined connections, each
// shared by -depth workers, which is exactly how the protocol's
// request-id pipelining is meant to be used.
//
// It is the operator's load generator and CI's smoke test, not a source
// of numbers of record: fixed-time closed-loop throughput on a shared
// host repeats to no better than the host does. Those come from the
// gated benchmark (bash bench/run.sh, held to BENCHMARK.json) and from
// go test -bench in the root package.
//
// Usage:
//
//	hidbd-bench [-addr HOST:PORT] [-conns 8] [-depth 16] [-read-frac 0.9]
//	            [-keys 100000] [-batch 0] [-duration 5s] [-min-ops 1] [-json]
//
// With no -addr, the bench self-hosts: it starts an in-process hidbd
// server over a fresh temporary directory on a loopback port, runs the
// load over real TCP, and tears everything down — one command for a
// smoke run (CI uses -duration 1s -json). Values are fixed 8-byte
// integers end to end; that is the store's data model (the paper's
// structures hold int64 pairs), so there is no -value-size knob to lie
// with. -batch n switches workers from single ops to n-key batch
// requests, measuring the wire-level batching win; ops counts keys, not
// requests.
//
// Read-scaling mode: -replicas N (self-host only) stands up N read
// replicas next to the in-process primary, preloads the key space,
// waits for the replicas to converge, and then sends reads to the
// replicas (round-robin) while writes keep hitting the primary — the
// fan-out read tier measured end to end. Against an external cluster,
// -replica-addrs lists replica addresses for the same split.
//
// Session-churn mode: -ttl D makes writes carry an absolute expiry of
// now + D (for the -ttl-frac fraction of them; the rest stay plain),
// and turns reads into GETTTLs that count "expired reads" — lookups
// that found nothing because the session died. With a short -ttl the
// key space continuously expires under the read load, which is the
// retention-bounded workload (sessions, caches, compliance-expired
// records) the expiry subsystem exists for: the server sweeps dead
// entries epoch by epoch while the bench measures read-until-gone
// rates. The JSON output reports expired_reads and expired_read_rate.
//
// Multi-tenant mode: -tenants N fans the same closed-loop workload
// across N tenant namespaces via NSPUT/NSGET — each op picks a tenant
// uniformly, so the server carries N live cells with independent
// derived seeds while the bench measures the routing overhead of
// namespaced addressing. Composes with -ttl (namespaced session
// churn); -batch stays default-keyspace only (there is no namespaced
// batch opcode).
//
// Failover mode: -failover (self-host only, needs -replicas >= 1)
// points the client pool at the whole cluster as a ranked endpoint
// list, then kills the primary — listener and all — halfway through
// the window and promotes replica 0 over the wire with a PROMOTE
// frame. Workers tolerate the outage (errors are counted, not fatal)
// and keep going once the pool fails over to the promoted node, so
// -min-ops enforces that the cluster actually came back. This is the
// HA path measured end to end: kill, promote, redirect, finish.
//
// The process exits nonzero if total completed ops fall below -min-ops,
// so a wedged server fails loudly in CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	antipersist "repro"
	"repro/client"
	"repro/internal/replica"
	"repro/internal/server"
)

type result struct {
	Addr       string  `json:"addr"`
	SelfHosted bool    `json:"self_hosted"`
	Replicas   int     `json:"replicas"`
	Conns      int     `json:"conns"`
	Depth      int     `json:"depth"`
	ReadFrac   float64 `json:"read_frac"`
	Keys       int     `json:"key_space"`
	Batch      int     `json:"batch"`
	Tenants    int     `json:"tenants,omitempty"`
	Failover   bool    `json:"failover,omitempty"`
	DurationMS float64 `json:"duration_ms"`
	Ops        uint64  `json:"ops"`
	Reads      uint64  `json:"reads"`
	Writes     uint64  `json:"writes"`
	Errors     uint64  `json:"errors"`
	OpsPerSec  float64 `json:"ops_per_sec"`

	// Session-churn (-ttl) fields.
	TTLSeconds      float64 `json:"ttl_seconds,omitempty"`
	TTLFrac         float64 `json:"ttl_frac,omitempty"`
	ExpiredReads    uint64  `json:"expired_reads"`
	ExpiredReadRate float64 `json:"expired_read_rate"`
	P50us           float64 `json:"p50_us"`
	P99us           float64 `json:"p99_us"`
	MaxUS           float64 `json:"max_us"`
	// AllocsPerOp is the bench process's own heap allocations per
	// completed operation — the CLIENT side's cost.
	AllocsPerOp float64 `json:"allocs_per_op"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
}

func main() {
	var (
		addr     = flag.String("addr", "", "server address; empty self-hosts an in-process hidbd")
		conns    = flag.Int("conns", 8, "pipelined connections")
		depth    = flag.Int("depth", 16, "workers (in-flight requests) per connection")
		readFrac = flag.Float64("read-frac", 0.9, "fraction of ops that are reads")
		keys     = flag.Int("keys", 100_000, "key space size")
		batch    = flag.Int("batch", 0, "use n-key batch requests instead of single ops (0: single)")
		duration = flag.Duration("duration", 5*time.Second, "measurement window")
		minOps   = flag.Uint64("min-ops", 1, "exit nonzero below this many completed ops")
		jsonOut  = flag.Bool("json", false, "emit one JSON document instead of text")
		outPath  = flag.String("out", "", "write the JSON document to this file (implies -json)")
		replicas = flag.Int("replicas", 0, "self-host this many read replicas and send reads to them")
		repAddrs = flag.String("replica-addrs", "", "comma-separated external replica addresses for reads")
		ttl      = flag.Duration("ttl", 0, "session-churn: writes expire this long after they land (0: no TTL workload)")
		ttlFrac  = flag.Float64("ttl-frac", 1.0, "fraction of writes that carry the -ttl expiry")
		failover = flag.Bool("failover", false, "kill the self-hosted primary mid-run and promote replica 0 (needs -replicas >= 1)")
		tenants  = flag.Int("tenants", 0, "fan the workload across this many tenant namespaces via NSPUT/NSGET (0: default keyspace)")
	)
	flag.Parse()
	if *replicas > 0 && *addr != "" {
		fmt.Fprintln(os.Stderr, "hidbd-bench: -replicas requires self-hosting (omit -addr); use -replica-addrs against an external cluster")
		os.Exit(2)
	}
	if *failover && (*addr != "" || *replicas < 1) {
		fmt.Fprintln(os.Stderr, "hidbd-bench: -failover requires self-hosting with -replicas >= 1")
		os.Exit(2)
	}
	if *ttl > 0 && *batch > 1 {
		fmt.Fprintln(os.Stderr, "hidbd-bench: -ttl measures single-op session churn; drop -batch")
		os.Exit(2)
	}
	if *tenants > 0 && *batch > 1 {
		fmt.Fprintln(os.Stderr, "hidbd-bench: -tenants uses single namespaced ops; drop -batch")
		os.Exit(2)
	}
	ttlSec := int64(ttl.Seconds())
	if *ttl > 0 && ttlSec == 0 {
		ttlSec = 1 // sub-second TTLs round up: epochs are whole seconds
	}

	res := result{
		Conns: *conns, Depth: *depth, ReadFrac: *readFrac, Keys: *keys, Batch: *batch, Tenants: *tenants,
		TTLSeconds: ttl.Seconds(), TTLFrac: *ttlFrac,
		GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}

	target := *addr
	var stopServer, killPrimary func()
	var replicaTargets []string
	if target == "" {
		res.SelfHosted = true
		var err error
		target, replicaTargets, killPrimary, stopServer, err = selfHost(*replicas)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hidbd-bench: self-host: %v\n", err)
			os.Exit(1)
		}
		defer stopServer()
	}
	if *repAddrs != "" {
		for _, a := range strings.Split(*repAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				replicaTargets = append(replicaTargets, a)
			}
		}
	}
	res.Addr = target
	res.Replicas = len(replicaTargets)

	// In failover mode the pool knows the whole cluster as a ranked
	// endpoint list, so it can find the promoted node on its own.
	endpoints := []string{target}
	if *failover {
		endpoints = append(endpoints, replicaTargets...)
	}
	cl, err := client.OpenEndpoints(endpoints, *conns, 30*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hidbd-bench: %v\n", err)
		os.Exit(1)
	}
	defer cl.Close()
	if err := cl.Ping(nil); err != nil {
		fmt.Fprintf(os.Stderr, "hidbd-bench: ping: %v\n", err)
		os.Exit(1)
	}

	// The read pool: with replicas, reads go to them round-robin per
	// worker; without, everything hits the primary.
	readPools := []*client.Client{cl}
	if len(replicaTargets) > 0 {
		readPools = readPools[:0]
		for _, a := range replicaTargets {
			rcl, err := client.Open(a, *conns, 30*time.Second)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hidbd-bench: replica %s: %v\n", a, err)
				os.Exit(1)
			}
			defer rcl.Close()
			readPools = append(readPools, rcl)
		}
		// Preload the key space and let every replica converge onto the
		// preloaded checkpoint so the read tier answers real lookups.
		if err := preload(cl, readPools, *keys); err != nil {
			fmt.Fprintf(os.Stderr, "hidbd-bench: preload: %v\n", err)
			os.Exit(1)
		}
	}

	// Tenant names are fixed and shared: every worker draws uniformly
	// from the same set, so all N cells stay live for the whole window.
	var tnames []string
	if *tenants > 0 {
		tnames = make([]string, *tenants)
		for i := range tnames {
			tnames[i] = fmt.Sprintf("tenant-%04d", i)
		}
	}

	var ops, reads, writes, errs, expiredReads atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	workers := *conns * *depth
	// Each worker samples every 64th op's latency into its own slice;
	// percentiles merge the samples afterward.
	samples := make([][]time.Duration, workers)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*2654435761 + 1))
			var conn, rconn kvOps
			if *failover {
				// Everything goes through the pool so its endpoint
				// failover — not a pinned connection — carries the
				// worker across the primary's death.
				conn, rconn = cl, cl
			} else {
				c, cerr := cl.Conn() // round-robin: depth workers per conn
				if cerr != nil {
					errs.Add(1)
					return
				}
				// Reads go to this worker's replica connection when a read
				// tier exists; without one they stay on the SAME connection
				// as the writes, preserving the classic single-node profile
				// (depth workers per conn, per-conn read-after-write order).
				conn, rconn = c, c
				if len(replicaTargets) > 0 {
					rc, cerr := readPools[w%len(readPools)].Conn()
					if cerr != nil {
						errs.Add(1)
						return
					}
					rconn = rc
				}
			}
			kbuf := make([]int64, 0, *batch)
			ibuf := make([]client.Item, 0, *batch)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				isRead := rng.Float64() < *readFrac
				var t0 time.Time
				if i%64 == 0 {
					t0 = time.Now()
				}
				var err error
				n := 1
				switch {
				case *batch > 1 && isRead:
					kbuf = kbuf[:0]
					for j := 0; j < *batch; j++ {
						kbuf = append(kbuf, rng.Int63n(int64(*keys)))
					}
					_, _, err = rconn.GetBatch(kbuf)
					n = *batch
				case *batch > 1:
					ibuf = ibuf[:0]
					for j := 0; j < *batch; j++ {
						ibuf = append(ibuf, client.Item{Key: rng.Int63n(int64(*keys)), Val: rng.Int63()})
					}
					_, err = conn.PutBatch(ibuf)
					n = *batch
				case *tenants > 0 && isRead && ttlSec > 0:
					var ok bool
					_, _, ok, err = rconn.NSGetTTL(tnames[rng.Intn(len(tnames))], rng.Int63n(int64(*keys)))
					if err == nil && !ok {
						expiredReads.Add(1)
					}
				case *tenants > 0 && isRead:
					_, _, err = rconn.NSGet(tnames[rng.Intn(len(tnames))], rng.Int63n(int64(*keys)))
				case *tenants > 0:
					// Namespaced write; carries the -ttl expiry for the
					// -ttl-frac fraction, like the default-keyspace path.
					exp := int64(0)
					if ttlSec > 0 && rng.Float64() < *ttlFrac {
						exp = time.Now().Unix() + ttlSec
					}
					_, err = conn.NSPutTTL(tnames[rng.Intn(len(tnames))], rng.Int63n(int64(*keys)), rng.Int63(), exp)
				case isRead && ttlSec > 0:
					// Read-until-gone: a miss means the session expired
					// (the key space is continuously rewritten, so misses
					// are deaths, not never-written keys, at steady state).
					var ok bool
					_, _, ok, err = rconn.GetTTL(rng.Int63n(int64(*keys)))
					if err == nil && !ok {
						expiredReads.Add(1)
					}
				case isRead:
					_, _, err = rconn.Get(rng.Int63n(int64(*keys)))
				case ttlSec > 0 && rng.Float64() < *ttlFrac:
					// Write-with-TTL: the session dies ttlSec from now.
					// The client does the relative→absolute arithmetic;
					// the wire carries only the absolute epoch.
					_, err = conn.PutTTL(rng.Int63n(int64(*keys)), rng.Int63(),
						time.Now().Unix()+ttlSec)
				default:
					_, err = conn.Put(rng.Int63n(int64(*keys)), rng.Int63())
				}
				if err != nil {
					select {
					case <-stop: // a teardown race, not a server error
						return
					default:
						errs.Add(1)
					}
					if *failover {
						// The outage is the point: back off briefly and
						// keep offering load so the post-promotion
						// cluster gets measured too.
						time.Sleep(5 * time.Millisecond)
						continue
					}
					return
				}
				if i%64 == 0 {
					samples[w] = append(samples[w], time.Since(t0))
				}
				ops.Add(uint64(n))
				if isRead {
					reads.Add(uint64(n))
				} else {
					writes.Add(uint64(n))
				}
			}
		}(w)
	}
	if *failover {
		// Halfway through: power-cut the primary (listener, conns, and
		// all — the durable state is abandoned, not checkpointed), then
		// promote replica 0 over the wire. The PROMOTE frame is the
		// same opcode an operator's tooling would send.
		time.Sleep(*duration / 2)
		killPrimary()
		pc, perr := client.DialTimeout(replicaTargets[0], 5*time.Second)
		if perr == nil {
			_, perr = pc.Promote()
			pc.Close()
		}
		if perr != nil {
			fmt.Fprintf(os.Stderr, "hidbd-bench: promote %s: %v\n", replicaTargets[0], perr)
			os.Exit(1)
		}
		res.Failover = true
		time.Sleep(*duration - *duration/2)
	} else {
		time.Sleep(*duration)
	}
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	var all []time.Duration
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i].Nanoseconds()) / 1e3
	}

	res.DurationMS = float64(elapsed.Nanoseconds()) / 1e6
	res.Ops = ops.Load()
	res.Reads = reads.Load()
	res.Writes = writes.Load()
	res.Errors = errs.Load()
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	res.P50us, res.P99us, res.MaxUS = pct(0.50), pct(0.99), pct(1.0)
	res.ExpiredReads = expiredReads.Load()
	if res.Reads > 0 {
		res.ExpiredReadRate = float64(res.ExpiredReads) / float64(res.Reads)
	}
	if res.Ops > 0 {
		res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Ops)
	}

	if *jsonOut || *outPath != "" {
		// A bench whose results cannot be recorded has failed: CI parses
		// this output, so a short write must be a nonzero exit, never a
		// silently truncated document.
		if err := writeJSON(*outPath, res); err != nil {
			fmt.Fprintf(os.Stderr, "hidbd-bench: writing results: %v\n", err)
			os.Exit(1)
		}
	} else {
		mode := "single ops"
		if *batch > 1 {
			mode = fmt.Sprintf("%d-key batches", *batch)
		}
		if *ttl > 0 {
			mode += fmt.Sprintf(", session churn (ttl %v, %.0f%% of writes)", *ttl, *ttlFrac*100)
		}
		if *tenants > 0 {
			mode += fmt.Sprintf(", fanned across %d tenant namespaces", *tenants)
		}
		if res.Replicas > 0 {
			mode += fmt.Sprintf(", reads fanned out to %d replica(s)", res.Replicas)
		}
		fmt.Printf("hidbd-bench: %s, %d conns x %d depth, %.0f%% reads, %s\n",
			res.Addr, res.Conns, res.Depth, res.ReadFrac*100, mode)
		fmt.Printf("  %d ops in %.2fs = %.0f ops/s (%d reads, %d writes, %d errors)\n",
			res.Ops, elapsed.Seconds(), res.OpsPerSec, res.Reads, res.Writes, res.Errors)
		fmt.Printf("  latency p50 %.1fus  p99 %.1fus  max %.1fus (request round trips)\n",
			res.P50us, res.P99us, res.MaxUS)
		fmt.Printf("  client-side allocs/op %.2f\n", res.AllocsPerOp)
		if *ttl > 0 {
			fmt.Printf("  expired reads %d (%.1f%% of reads): sessions found already gone\n",
				res.ExpiredReads, res.ExpiredReadRate*100)
		}
	}
	if res.Ops < *minOps {
		fmt.Fprintf(os.Stderr, "hidbd-bench: %d ops < minimum %d\n", res.Ops, *minOps)
		os.Exit(1)
	}
}

// writeJSON emits res as one indented JSON document to path, or to
// stdout when path is empty. Every write and close error is returned —
// a result that didn't land on disk (ENOSPC, a bad path, a full pipe)
// must fail the run, not truncate silently.
func writeJSON(path string, res result) error {
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "" {
		_, err := os.Stdout.Write(buf)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kvOps is the slice of the client API the workers use — satisfied by
// both *client.Conn (pinned connection, the classic profile) and
// *client.Client (the pool, whose failover carries workers across a
// primary's death).
type kvOps interface {
	Get(key int64) (int64, bool, error)
	GetTTL(key int64) (val, exp int64, ok bool, err error)
	GetBatch(keys []int64) ([]int64, []bool, error)
	Put(key, val int64) (bool, error)
	PutTTL(key, val, exp int64) (bool, error)
	PutBatch(items []client.Item) (int, error)
	NSGet(ns string, key int64) (int64, bool, error)
	NSGetTTL(ns string, key int64) (val, exp int64, ok bool, err error)
	NSPutTTL(ns string, key, val, exp int64) (bool, error)
}

// selfHost starts an in-process hidbd over a fresh temp directory on a
// loopback port — plus nReplicas read replicas, each with its own
// directory, continuously syncing off the primary — and returns the
// primary address, the replica addresses, a kill switch that
// power-cuts the primary (for -failover), and one teardown.
func selfHost(nReplicas int) (addr string, replicaAddrs []string, killPrimary, stop func(), err error) {
	var stops []func()
	stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	fail := func(err error) (string, []string, func(), func(), error) {
		stop()
		return "", nil, nil, nil, err
	}

	dir, err := os.MkdirTemp("", "hidbd-bench-*")
	if err != nil {
		return fail(err)
	}
	stops = append(stops, func() { os.RemoveAll(dir) })
	db, err := antipersist.Open(dir, &antipersist.DBOptions{Shards: 16, Seed: 42})
	if err != nil {
		return fail(err)
	}
	var dead atomic.Bool
	stops = append(stops, func() {
		if !dead.Load() {
			db.Close()
		}
	})
	srv := server.New(db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	go srv.Serve(ln)
	stops = append(stops, srv.Close)
	addr = ln.Addr().String()
	killPrimary = func() {
		// Power cut, not shutdown: the listener and every conn drop,
		// and the durable state is abandoned without the clean-close
		// checkpoint — whatever wasn't checkpointed is gone, exactly
		// like a crash.
		if dead.Swap(true) {
			return
		}
		srv.Close()
		db.Abandon()
	}

	for i := 0; i < nReplicas; i++ {
		rdir, err := os.MkdirTemp("", "hidbd-bench-replica-*")
		if err != nil {
			return fail(err)
		}
		stops = append(stops, func() { os.RemoveAll(rdir) })
		// NoSweep: the replica role. A PROMOTE frame flips it, and the
		// background checkpointer — idle until then — starts acting.
		rdb, err := antipersist.Open(rdir, &antipersist.DBOptions{
			Shards: 16, Seed: uint64(1000 + i), NoSweep: true,
		})
		if err != nil {
			return fail(err)
		}
		stops = append(stops, func() { rdb.Close() })
		rep, err := replica.New(rdb, replica.Config{
			Interval: 50 * time.Millisecond,
			Dial: func() (net.Conn, error) {
				return net.DialTimeout("tcp", addr, 5*time.Second)
			},
		})
		if err != nil {
			return fail(err)
		}
		rep.Start()
		stops = append(stops, rep.Stop)
		rsrv := server.New(rdb, server.Config{})
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		go rsrv.Serve(rln)
		stops = append(stops, rsrv.Close)
		replicaAddrs = append(replicaAddrs, rln.Addr().String())
	}
	return addr, replicaAddrs, killPrimary, stop, nil
}

// preload writes the whole key space to the primary, checkpoints, and
// waits (bounded) for every read target to hold the full count, so the
// measured window exercises converged replicas.
func preload(primary *client.Client, readPools []*client.Client, keys int) error {
	const chunk = 4096
	items := make([]client.Item, 0, chunk)
	for k := 0; k < keys; k += chunk {
		items = items[:0]
		for j := k; j < k+chunk && j < keys; j++ {
			items = append(items, client.Item{Key: int64(j), Val: int64(j)})
		}
		if _, err := primary.PutBatch(items); err != nil {
			return err
		}
	}
	if _, err := primary.Checkpoint(); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, rp := range readPools {
		for {
			n, err := rp.Len()
			if err == nil && n >= keys {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica still at %d/%d keys after preload (last error: %v)", n, keys, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}
