//go:build !race

package client_test

// The allocation budget is not asserted under the race detector, which
// makes sync.Pool drop a quarter of what is Put and instruments every
// channel operation.

import (
	"net"
	"testing"
	"time"

	"repro/client"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/trace"
)

// TestPointOpRoundTripAllocs holds a point op's whole round trip —
// client call, both conns, server dispatch, coalescer, shard — to its
// steady-state allocation budget, client and server in one process over
// loopback TCP, on a pool opened with a reply timeout as the benchmark
// opens it. With the per-call channel, timer, frame and payload buffers
// back, every row reads about 10.
func TestPointOpRoundTripAllocs(t *testing.T) {
	const keys = 512
	const tenant = "tenant-a"
	for _, tc := range []struct {
		name   string
		traced bool
	}{{"untraced", false}, {"traced at the default sample rate", true}} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := durable.Open("db", &durable.Options{
				Shards: 4, Seed: 7, NoBackground: true, FS: durable.NewMemFS(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			cfg := server.Config{SweepInterval: -1}
			if tc.traced {
				cfg.Trace = trace.NewStore(1024, 0.01, nil)
			}
			srv := server.New(db, cfg)
			defer srv.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			cl, err := client.Open(ln.Addr().String(), 1, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if tc.traced {
				cl.SetTrace(trace.NewStore(1024, 0.01, nil))
			}
			for k := int64(0); k < keys; k++ {
				if _, err := cl.Put(k, k); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.NSPut(tenant, k, k); err != nil {
					t.Fatal(err)
				}
			}

			// Every op walks the preloaded keys, so writes are upserts and
			// deletes of keys the next pass puts back: the stores stay the
			// size they are and the budget measures the request path, not
			// PMA growth.
			var i int64
			next := func() int64 { i++; return i % keys }
			must := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, op := range []struct {
				name   string
				budget float64
				fn     func()
			}{
				{"GET", 0.1, func() { _, _, err := cl.Get(next()); must(err) }},
				{"GETTTL", 0.1, func() { _, _, _, err := cl.GetTTL(next()); must(err) }},
				{"NSGET", 0.1, func() { _, _, err := cl.NSGet(tenant, next()); must(err) }},
				{"PUT", 0.5, func() { _, err := cl.Put(next(), i); must(err) }},
				{"PUTTTL", 0.5, func() { _, err := cl.PutTTL(next(), i, 1<<40); must(err) }},
				{"NSPUT", 0.5, func() { _, err := cl.NSPut(tenant, next(), i); must(err) }},
				{"DEL", 0.5, func() {
					k := next()
					_, err := cl.Delete(k)
					must(err)
					_, err = cl.Put(k, k)
					must(err)
				}},
				{"NSDEL", 0.5, func() {
					k := next()
					_, err := cl.NSDelete(tenant, k)
					must(err)
					_, err = cl.NSPut(tenant, k, k)
					must(err)
				}},
			} {
				budget := op.budget
				if tc.traced {
					budget = 3
				}
				for w := 0; w < 2*keys; w++ { // steady state: every buffer grown, every record pooled
					op.fn()
				}
				// AllocsPerRun reports whole allocations per run, rounded
				// down, so a run is 100 round trips and the quotient resolves
				// hundredths.
				got := testing.AllocsPerRun(20, func() {
					for j := 0; j < 100; j++ {
						op.fn()
					}
				}) / 100
				if got > budget {
					t.Errorf("%s: %.2f allocs per round trip, budget %.1f", op.name, got, budget)
				} else {
					t.Logf("%s: %.2f allocs per round trip", op.name, got)
				}
			}
		})
	}
}
