// hidbd is the network server over the durable history-independent
// database: a TCP daemon speaking the length-prefixed binary protocol
// of docs/PROTOCOL.md — point, TTL, batch and range operations on the
// default keyspace and on tenant namespaces, CHECKPOINT as a durability
// barrier, HEALTH/SYNC/PROMOTE for replication — with per-connection
// pipelining and server-side write coalescing.
//
// Usage:
//
//	hidbd -dir D [-addr :4545] [-shards N] [-seed S] [flags]
//
// The directory is opened through full recovery (manifest checksum,
// per-shard hashes, structural invariants). SIGINT/SIGTERM trigger a
// graceful shutdown: stop accepting, drain in-flight requests, commit
// a final checkpoint. A second signal forces an immediate stop — the
// directory stays at the last checkpoint, which is exactly the state a
// crash would leave (that is the durable layer's whole design).
//
// With -replica-of PRIMARY:PORT, the daemon runs as a read replica:
// it serves reads (writes are refused with ErrCodeReadOnly) while
// continuously converging its directory onto the primary's committed
// checkpoints by canonical-state anti-entropy. A checkpoint is its
// manifest: each round asks the primary's HEALTH for the SHA-256 of its
// committed manifest, and if that differs from the local one fetches
// the manifest by that hash and then, by the hashes it names, exactly
// the images the local disk lacks; the install is atomic. After a sync
// the replica's directory is byte-identical to the primary's
// checkpoint, MANIFEST included. Replicas serve HEALTH and SYNC too, so
// replicas can chain off replicas.
//
// The node's role is one bit on the database, opened from -replica-of
// and read by everything that depends on it. A PROMOTE frame (see
// docs/PROTOCOL.md) flips it under the checkpoint lock — after any
// install in flight has landed whole — and from that flip the node
// accepts writes, refuses every peer's checkpoint, sweeps expired
// entries and checkpoints in the background; nothing else has to be
// told. With -health-interval the replica PINGs the primary on a
// dedicated connection and declares it down after -health-threshold
// consecutive failures; -auto-promote then promotes this node
// automatically (single-replica topologies only — two auto-promoting
// replicas can split-brain). Promotion state is memory and wire only;
// nothing about an election ever reaches the disk.
//
// With -debug-addr, an HTTP listener serves the observability surface
// on an explicit mux (nothing leaks onto http.DefaultServeMux):
// Prometheus-style metrics at /metrics (docs/OBSERVABILITY.md is the
// catalog), expvar counters at /debug/vars — including the server's
// request/coalescing stats under the "hidbd" key and, on a replica,
// sync stats under "replica" — the in-memory trace ring as JSON at
// /debug/traces (see -trace-sample/-trace-buffer), and the runtime
// profiler under /debug/pprof/. With -slow-op-threshold, operations
// slower than the
// threshold are logged to stderr as structured one-liners that carry
// opcode, sizes, shard index, and phase durations — never key or
// value bytes (the forensic-cleanliness contract).
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	antipersist "repro"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/trace"
)

// debugMux builds the debug listener's explicit mux: expvar, the
// metric registry's text exposition, the trace store's JSON dump, and
// pprof, all mounted by hand so nothing depends on (or leaks onto)
// http.DefaultServeMux.
func debugMux(reg *obs.Registry, tr *trace.Store) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/traces", tr)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr       = flag.String("addr", ":4545", "TCP listen address")
		dir        = flag.String("dir", "", "database directory (required)")
		shards     = flag.Int("shards", 8, "shard count for a new database (power of two)")
		seed       = flag.Uint64("seed", 42, "seed for a new database")
		maxConns   = flag.Int("max-conns", 1024, "concurrent connection limit")
		readTO     = flag.Duration("read-timeout", 5*time.Minute, "idle connection deadline")
		writeTO    = flag.Duration("write-timeout", 30*time.Second, "per-flush write deadline")
		cpInterval = flag.Duration("checkpoint-interval", time.Second, "background checkpoint period")
		cpOps      = flag.Int("checkpoint-ops", 4096, "dirty-op count that forces an early checkpoint")
		rangeMax   = flag.Int("range-max", 4096, "items per RANGE reply (clients paginate past it)")
		drainTO    = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain budget")
		debugAddr  = flag.String("debug-addr", "", "optional HTTP address for /metrics, /debug/vars, and /debug/pprof/")
		slowOp     = flag.Duration("slow-op-threshold", 0, "log operations slower than this to stderr (0: off); the log carries sizes and timings, never keys or values")
		replicaOf  = flag.String("replica-of", "", "primary address; serve read-only and replicate from it")
		syncEvery  = flag.Duration("sync-interval", 250*time.Millisecond, "replica anti-entropy poll period")
		sweepEvery = flag.Duration("sweep-interval", time.Second, "TTL expiry sweeper poll period (negative: no sweeper)")
		healthIntv = flag.Duration("health-interval", 0, "replica: PING the primary this often (0: no health checking)")
		healthN    = flag.Int("health-threshold", 3, "replica: consecutive failed probes before the primary is declared down")
		autoProm   = flag.Bool("auto-promote", false, "replica: self-promote to primary when health checking declares the primary down (single-replica topologies only — two auto-promoting replicas can split-brain)")
		nsQuota    = flag.Int("ns-quota", 0, "per-tenant namespace key quota (0: unlimited); NSPUTs that would grow a tenant past it are refused")
		trSample   = flag.Float64("trace-sample", 0.01, "head-sampling probability for request traces (slow and failed requests are kept regardless)")
		trBuffer   = flag.Int("trace-buffer", 4096, "span slots in the in-memory trace ring (volatile; old spans are overwritten)")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "usage: hidbd -dir DIR [-addr :4545] [flags]")
		os.Exit(2)
	}
	if (*autoProm || *healthIntv > 0) && *replicaOf == "" {
		fmt.Fprintln(os.Stderr, "hidbd: -auto-promote and -health-interval only apply to a replica (-replica-of)")
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	// The trace store always exists — sampling only decides how often
	// ordinary requests land in it (slow ones, errors, and erasure
	// barriers are kept regardless) — so /debug/traces and the
	// hidb_trace_* counters are live on every deployment.
	tr := trace.NewStore(*trBuffer, *trSample, reg)
	db, err := antipersist.Open(*dir, &antipersist.DBOptions{
		Shards:              *shards,
		Seed:                *seed,
		CheckpointInterval:  *cpInterval,
		CheckpointThreshold: *cpOps,
		Metrics:             reg,
		// The replica role: the directory advances only by installing the
		// primary's checkpoints (the node's own checkpointer and expiry
		// sweeps idle, the server refuses writes) until a promotion.
		NoSweep: *replicaOf != "",
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hidbd: %v\n", err)
		os.Exit(1)
	}

	srvCfg := server.Config{
		MaxConns:        *maxConns,
		ReadTimeout:     *readTO,
		WriteTimeout:    *writeTO,
		MaxRangeItems:   *rangeMax,
		SweepInterval:   *sweepEvery,
		Metrics:         reg,
		SlowOpThreshold: *slowOp,
		NSQuota:         *nsQuota,
		Trace:           tr,
	}
	if *slowOp > 0 {
		srvCfg.SlowOpLog = os.Stderr
	}
	srv := server.New(db, srvCfg)

	var rep *replica.Replica
	if db.Replica() {
		repCfg := replica.Config{
			Interval: *syncEvery,
			Metrics:  reg,
			Dial: func() (net.Conn, error) {
				return net.DialTimeout("tcp", *replicaOf, 5*time.Second)
			},
			HealthInterval:  *healthIntv,
			HealthThreshold: *healthN,
			Trace:           tr,
		}
		if *autoProm {
			repCfg.OnPrimaryDown = func() {
				n, perr := rep.Promote()
				if perr != nil {
					fmt.Fprintf(os.Stderr, "hidbd: auto-promote: %v\n", perr)
					return
				}
				fmt.Printf("hidbd: primary %s declared down — promoted to primary (promotion %d)\n", *replicaOf, n)
			}
		}
		rep, err = replica.New(db, repCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hidbd: %v\n", err)
			os.Exit(1)
		}
		rep.Start()
	}

	if *debugAddr != "" {
		expvar.Publish("hidbd", expvar.Func(func() any { return srv.Stats() }))
		if rep != nil {
			expvar.Publish("replica", expvar.Func(func() any { return rep.Stats() }))
		}
		dsrv := &http.Server{
			Addr:    *debugAddr,
			Handler: debugMux(reg, tr),
			// A client that opens a socket and goes silent must not pin a
			// handler goroutine forever.
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := dsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "hidbd: debug listener: %v\n", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hidbd: %v\n", err)
		os.Exit(1)
	}
	role := "primary"
	if rep != nil {
		role = fmt.Sprintf("read replica of %s", *replicaOf)
	}
	fmt.Printf("hidbd: serving %s (%d keys, %d shards) on %s as %s\n",
		*dir, db.Len(), db.Store().NumShards(), ln.Addr(), role)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("hidbd: %v — draining (final checkpoint); signal again to force stop\n", sig)
		go func() {
			<-sigc
			fmt.Println("hidbd: forced stop, state stays at last checkpoint")
			srv.Close()
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "hidbd: shutdown checkpoint: %v\n", err)
			os.Exit(1)
		}
	case err := <-errc:
		if err != nil && err != server.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "hidbd: serve: %v\n", err)
			os.Exit(1)
		}
	}

	if rep != nil {
		rep.Stop()
	}
	st := srv.Stats()
	if err := db.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "hidbd: close: %v\n", err)
		os.Exit(1)
	}
	if rep != nil {
		rst := rep.Stats()
		fmt.Printf("hidbd: clean shutdown — %d reqs (%d reads), %d syncs (%d installs, %d shard images, %d bytes)\n",
			st.Requests, st.Reads, rst.Rounds, rst.Installs, rst.ShardsFetched, rst.BytesFetched)
	} else {
		fmt.Printf("hidbd: clean shutdown — %d reqs (%d reads, %d writes in %d batches), %d checkpoints\n",
			st.Requests, st.Reads, st.Writes, st.WriteBatches, st.Checkpoints)
	}
}
