package server

// End-to-end tracing tests: a traced client over net.Pipe against a
// traced server, proving the wire-propagated trace context stitches
// one span tree across the process boundary — client root, the
// server's five phases, the coalescer batch, and (for the erasure
// barriers) the durable layer's checkpoint span. The cross-node half —
// a replica's sync round correlating to the primary's checkpoint span
// by manifest-hash link — lives in internal/replica's trace test (the
// replica package imports this one).

import (
	"net"
	"testing"
	"time"

	"repro/client"
	"repro/internal/proto"
	"repro/internal/trace"
)

// spansOf polls the store until pred is satisfied by the trace's span
// set (some spans — the flush span — are recorded on the writer
// goroutine after the reply is already in the client's hands).
func spansOf(t *testing.T, tr *trace.Store, tid uint64, pred func([]trace.Span) bool) []trace.Span {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sps := tr.ByTrace(tid)
		if pred(sps) {
			return sps
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %x never satisfied the predicate; have %d spans: %+v", tid, len(sps), sps)
		}
		time.Sleep(time.Millisecond)
	}
}

// one returns the single span of the given kind, failing on zero or
// several.
func one(t *testing.T, sps []trace.Span, k trace.Kind) trace.Span {
	t.Helper()
	var found []trace.Span
	for _, sp := range sps {
		if sp.Kind == k {
			found = append(found, sp)
		}
	}
	if len(found) != 1 {
		t.Fatalf("want exactly one %v span, have %d in %+v", k, len(found), sps)
	}
	return found[0]
}

func hasKind(sps []trace.Span, k trace.Kind) bool {
	for _, sp := range sps {
		if sp.Kind == k {
			return true
		}
	}
	return false
}

// clientSpanFor polls for the client root span of op and returns it.
func clientSpanFor(t *testing.T, tr *trace.Store, op byte) trace.Span {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, sp := range tr.Snapshot() {
			if sp.Kind == trace.KindClient && sp.Op == op {
				return sp
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no client span for op %#x ever recorded", op)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTraceStitchedSpanTree drives a traced client over net.Pipe and
// asserts the full cross-process span tree: the PUT trace holds the
// client root, the server root parented under it, all five phases
// (decode, coalesce_wait, apply, encode, flush) plus the coalescer
// batch span; the DROPNS trace additionally holds the erasure barrier
// and the durable checkpoint span that committed it, link-stamped with
// the manifest hash; and an explicit CHECKPOINT parents the durable
// span under the request the same way.
func TestTraceStitchedSpanTree(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Abandon()
	tr := trace.NewStore(4096, 1, nil) // sample everything
	srv := New(db, Config{SweepInterval: -1, Trace: tr})
	defer srv.Close()

	nc, sc := net.Pipe()
	srv.ServeConn(sc)
	c := client.NewConnTimeout(nc, 5*time.Second)
	defer c.Close()
	c.SetTrace(tr)

	// A coalesced write: the richest phase decomposition.
	if _, err := c.Put(7, 11); err != nil {
		t.Fatal(err)
	}
	cs := clientSpanFor(t, tr, proto.OpPut)
	if cs.Trace == 0 || cs.ID == 0 {
		t.Fatalf("client span has zero identity: %+v", cs)
	}
	sps := spansOf(t, tr, cs.Trace, func(sps []trace.Span) bool {
		return hasKind(sps, trace.KindFlush) && hasKind(sps, trace.KindEncode)
	})
	root := one(t, sps, trace.KindServer)
	if root.Parent != cs.ID {
		t.Fatalf("server root parent %x, want client span id %x", root.Parent, cs.ID)
	}
	if root.Op != proto.OpPut {
		t.Fatalf("server root op %#x, want OpPut", root.Op)
	}
	if root.Shard < 0 {
		t.Fatalf("default-keyspace write span should carry its shard, got %d", root.Shard)
	}
	for _, k := range []trace.Kind{
		trace.KindDecode, trace.KindWait, trace.KindApply,
		trace.KindEncode, trace.KindFlush, trace.KindBatch,
	} {
		if sp := one(t, sps, k); sp.Parent != root.ID {
			t.Fatalf("%v span parent %x, want server root %x", k, sp.Parent, root.ID)
		}
	}

	// DROPNS is the erasure barrier: its trace must reach through the
	// batcher into the durable layer — barrier span and checkpoint span
	// both under the request's server root.
	if _, err := c.NSPut("acme", 1, 2); err != nil {
		t.Fatal(err)
	}
	if existed, err := c.DropNS("acme"); err != nil || !existed {
		t.Fatalf("drop: %v %v", existed, err)
	}
	dcs := clientSpanFor(t, tr, proto.OpDropNS)
	dsps := spansOf(t, tr, dcs.Trace, func(sps []trace.Span) bool {
		// The server root lands after the reply; the other two before it.
		return hasKind(sps, trace.KindCheckpoint) && hasKind(sps, trace.KindEraseBarrier) && hasKind(sps, trace.KindServer)
	})
	droot := one(t, dsps, trace.KindServer)
	if droot.Parent != dcs.ID || droot.Op != proto.OpDropNS {
		t.Fatalf("DROPNS server root mis-stitched: %+v under client %+v", droot, dcs)
	}
	if droot.Shard != -1 {
		t.Fatalf("tenant op span leaked a shard index: %d", droot.Shard)
	}
	barrier := one(t, dsps, trace.KindEraseBarrier)
	if barrier.Parent != droot.ID {
		t.Fatalf("erase barrier parent %x, want %x", barrier.Parent, droot.ID)
	}
	cp := one(t, dsps, trace.KindCheckpoint)
	if cp.Parent != droot.ID {
		t.Fatalf("checkpoint span parent %x, want the DROPNS server root %x", cp.Parent, droot.ID)
	}
	if cp.Link == 0 {
		t.Fatal("checkpoint span carries no manifest-hash link")
	}

	// An explicit CHECKPOINT request parents the durable span the same
	// way, via the preminted identity. Dirty the store first — a no-op
	// checkpoint commits nothing and records nothing.
	if _, err := c.Put(8, 12); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ccs := clientSpanFor(t, tr, proto.OpCheckpoint)
	csps := spansOf(t, tr, ccs.Trace, func(sps []trace.Span) bool {
		return hasKind(sps, trace.KindCheckpoint) && hasKind(sps, trace.KindServer)
	})
	croot := one(t, csps, trace.KindServer)
	ccp := one(t, csps, trace.KindCheckpoint)
	if croot.Parent != ccs.ID || ccp.Parent != croot.ID {
		t.Fatalf("CHECKPOINT trace mis-stitched: client %x <- root(parent %x) <- cp(parent %x, root %x)",
			ccs.ID, croot.Parent, ccp.Parent, croot.ID)
	}
}
