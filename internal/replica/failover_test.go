package replica

// The promotion/failover drills: kill the primary mid-checkpoint and
// promote a replica under continuing client load (the headline torture
// demanded by the HA acceptance criteria, run under -race in CI), the
// read-your-writes recipe over epoch-stamped replies, and the
// promotion state machine's white-box edges (promote while a sync
// round is in flight, double-promote refused, demote on rejoin).

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/durable"
	"repro/internal/expiry"
	"repro/internal/server"
)

// TestKillPrimaryMidCheckpointPromote is the kill-the-primary torture:
// seeded mixed load (plain, TTL, batch writes) onto a primary with two
// replicas syncing behind it, a power cut injected mid-checkpoint,
// promotion of replica 0 while client load keeps arriving, and then
// the full accounting — nothing the promoted replica had installed is
// lost, every write acknowledged after promotion is durable, the old
// primary rejoins as a replica of the new one, and all survivors
// quiesce byte-identical.
func TestKillPrimaryMidCheckpointPromote(t *testing.T) {
	rounds := tortureScale(t, 12, 40)
	opsPerRound := tortureScale(t, 50, 150)
	const (
		shards   = 8
		keySpace = 2000
		seed     = 0xBEEF
	)
	rng := rand.New(rand.NewSource(42))
	clk := expiry.NewManual(1)

	pfs := durable.NewMemFS()
	prim := newNodeClock(t, pfs, seed, shards, false, clk)
	pconn := dialNode(t, prim)

	// model: every write acked by the primary. replicated: the state at
	// the last checkpoint replica 0 confirmed installed — the only
	// state failover is allowed to preserve, and therefore the exact
	// state it must preserve.
	model := map[int64]int64{}
	modelExp := map[int64]int64{}
	replicated := map[int64]int64{}
	replicatedExp := map[int64]int64{}

	// Two replica nodes, each nothing but a DB opened in the replica role,
	// a server over it, and a Replica pulling from the primary.
	rnodes := []*node{
		newNodeClock(t, durable.NewMemFS(), 101, shards, true, clk),
		newNodeClock(t, durable.NewMemFS(), 102, shards, true, clk),
	}
	reps := make([]*Replica, len(rnodes))
	for i, n := range rnodes {
		var err error
		if reps[i], err = New(n.db, Config{Dial: prim.dialTo()}); err != nil {
			t.Fatal(err)
		}
	}

	writeLoad := func() {
		for op := 0; op < opsPerRound; op++ {
			k := rng.Int63n(keySpace)
			switch rng.Intn(10) {
			case 0: // delete
				if _, err := pconn.Delete(k); err != nil {
					t.Fatalf("delete: %v", err)
				}
				delete(model, k)
				delete(modelExp, k)
			case 1, 2: // TTL put
				v := rng.Int63()
				exp := clk.Now() + 1 + rng.Int63n(5)
				if _, err := pconn.PutTTL(k, v, exp); err != nil {
					t.Fatalf("put-ttl: %v", err)
				}
				model[k] = v
				modelExp[k] = exp
			case 3: // batch put
				items := make([]client.Item, 1+rng.Intn(4))
				for j := range items {
					items[j] = client.Item{Key: rng.Int63n(keySpace), Val: rng.Int63()}
				}
				if _, err := pconn.PutBatch(items); err != nil {
					t.Fatalf("batch put: %v", err)
				}
				for _, it := range items {
					model[it.Key] = it.Val
					delete(modelExp, it.Key)
				}
			default:
				v := rng.Int63()
				if _, err := pconn.Put(k, v); err != nil {
					t.Fatalf("put: %v", err)
				}
				model[k] = v
				delete(modelExp, k)
			}
		}
	}

	// Phase 1: load, checkpoint, sync. Replica 0 syncs every
	// checkpoint (its installed state is the failover baseline);
	// replica 1 syncs on a coin flip, so it is usually behind.
	for round := 0; round < rounds; round++ {
		if round%3 == 2 {
			clk.Advance(1)
		}
		writeLoad()
		if _, err := pconn.Checkpoint(); err != nil {
			t.Fatalf("round %d: checkpoint: %v", round, err)
		}
		sum, err := reps[0].SyncOnce()
		if err != nil && !IsStale(err) {
			t.Fatalf("round %d: replica 0 sync: %v", round, err)
		}
		if err == nil && (sum.Installed || sum.Converged) {
			replicated = make(map[int64]int64, len(model))
			for k, v := range model {
				replicated[k] = v
			}
			replicatedExp = make(map[int64]int64, len(modelExp))
			for k, v := range modelExp {
				replicatedExp[k] = v
			}
		}
		if rng.Intn(2) == 0 {
			if _, err := reps[1].SyncOnce(); err != nil && !IsStale(err) {
				t.Fatalf("round %d: replica 1 sync: %v", round, err)
			}
		}
	}
	if len(replicated) == 0 {
		t.Fatal("replica 0 never installed a checkpoint; the torture is vacuous")
	}

	// Phase 2: more acked writes that never reach a synced checkpoint,
	// then the power cut lands mid-checkpoint: the commit fails (or
	// commits bytes the replicas never saw), the listener dies, the
	// durable state is abandoned exactly as a crash would leave it.
	writeLoad()
	pfs.FailAfter(1 + rng.Intn(16))
	pconn.Checkpoint() //nolint:errcheck // dies at the injected fault, or commits unseen — both legal
	pconn.Close()
	prim.srv.Close()
	prim.db.Abandon()

	// Phase 3: promotion under continuing client load. The writers hit
	// replica 0 in disjoint per-worker key ranges, tolerate ErrReadOnly
	// (the node has not been promoted yet) and redial dead conns, and
	// record every acknowledged write — each ack is a durability
	// promise the post-promotion cluster must keep.
	const writers = 4
	const span = 1000
	acked := make([]map[int64]int64, writers)
	stopWriters := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(7000 + w)))
			mine := map[int64]int64{}
			acked[w] = mine
			base := int64(10_000 + w*span)
			var c *client.Conn
			defer func() {
				if c != nil {
					c.Close()
				}
			}()
			for {
				select {
				case <-stopWriters:
					return
				default:
				}
				if c == nil {
					nc, err := rnodes[0].dialTo()()
					if err != nil {
						continue
					}
					c = client.NewConn(nc)
				}
				k, v := base+wrng.Int63n(span), wrng.Int63()
				_, err := c.Put(k, v)
				switch {
				case err == nil:
					mine[k] = v
				case errors.Is(err, client.ErrReadOnly):
					// Not promoted yet; keep offering load.
				default:
					c.Close()
					c = nil
				}
			}
		}(w)
	}

	// Let the writers bounce off the read-only node, then promote.
	time.Sleep(10 * time.Millisecond)
	n, err := reps[0].Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if n != 1 {
		t.Fatalf("promotion count = %d, want 1", n)
	}
	// Post-promotion load must be accepted; give the writers a window.
	time.Sleep(20 * time.Millisecond)
	close(stopWriters)
	wg.Wait()

	postAcked := map[int64]int64{}
	for _, m := range acked {
		for k, v := range m {
			postAcked[k] = v
		}
	}
	if len(postAcked) == 0 {
		t.Fatal("no write was acknowledged after promotion; the load never landed")
	}

	// Commit everything on the promoted primary over the wire (also
	// proving the write/checkpoint path is fully armed post-promotion).
	nconn := dialNode(t, rnodes[0])
	if _, err := nconn.Checkpoint(); err != nil {
		t.Fatalf("checkpoint on promoted node: %v", err)
	}

	// No synced-checkpoint-committed write lost: everything replica 0
	// had installed is still there, values and expiries intact, expired
	// entries invisible.
	for k, v := range replicated {
		gotV, gotExp, ok, err := nconn.GetTTL(k)
		if err != nil {
			t.Fatal(err)
		}
		exp, hasExp := replicatedExp[k]
		if hasExp && !expiry.Live(exp, clk.Now()) {
			if ok {
				t.Fatalf("expired key %d visible on promoted node as (%d,%d)", k, gotV, gotExp)
			}
			continue
		}
		if !ok || gotV != v || (hasExp && gotExp != exp) || (!hasExp && gotExp != 0) {
			t.Fatalf("promoted node lost synced write: key %d = (%d,%d,%v), want (%d,%d,true)",
				k, gotV, gotExp, ok, v, exp)
		}
	}
	// Every post-promotion ack is durable.
	for k, v := range postAcked {
		if gotV, ok, err := nconn.Get(k); err != nil || !ok || gotV != v {
			t.Fatalf("promoted node lost acked write: key %d = (%d,%v,%v), want %d", k, gotV, ok, err, v)
		}
	}

	// Phase 4: the old primary rejoins as a replica of the promoted
	// node. Its crashed directory recovers to its own last checkpoint —
	// a history the cluster has moved past — and anti-entropy replaces
	// it wholesale with the new primary's state.
	pfs = pfs.Crash()
	rejoined := newNodeClock(t, pfs, seed, shards, true, clk)
	defer rejoined.close()
	rejRep, err := New(rejoined.db, Config{Dial: rnodes[0].dialTo()})
	if err != nil {
		t.Fatal(err)
	}
	defer rejRep.Stop()
	if sum, err := rejRep.SyncOnce(); err != nil || !(sum.Installed || sum.Converged) {
		t.Fatalf("old primary rejoin sync: %+v %v", sum, err)
	}

	// Replica 1 re-points at the promoted node and converges too.
	reps[1].Stop()
	rep1, err := New(rnodes[1].db, Config{Dial: rnodes[0].dialTo()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep1.Stop()
	if sum, err := rep1.SyncOnce(); err != nil || !(sum.Installed || sum.Converged) {
		t.Fatalf("replica 1 re-point sync: %+v %v", sum, err)
	}

	// All survivors byte-identical, all canonical.
	if err := rnodes[0].db.VerifyCanonical(); err != nil {
		t.Fatalf("promoted node: %v", err)
	}
	sameDirs(t, rnodes[0].fs, rejoined.fs, rnodes[1].fs)
	if err := rejoined.db.VerifyCanonical(); err != nil {
		t.Fatalf("rejoined node: %v", err)
	}
	if err := rnodes[1].db.VerifyCanonical(); err != nil {
		t.Fatalf("replica 1: %v", err)
	}

	// The rejoined old primary is a replica now: writes refused.
	rc := dialNode(t, rejoined)
	if _, err := rc.Put(1, 1); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("rejoined old primary accepted a write: %v", err)
	}
	rc.Close()

	// A second promotion of the same node is refused.
	if _, err := reps[0].Promote(); !errors.Is(err, durable.ErrNotReplica) {
		t.Fatalf("double promote: %v, want ErrNotReplica", err)
	}

	nconn.Close()
	for i, r := range reps {
		r.Stop()
		rnodes[i].close()
	}
}

// TestReadYourWritesBoundedStaleness is the staleness contract on the
// wire: a replica's read replies carry the checkpoint epoch they were
// served from, so a client that writes to the primary, checkpoints,
// and knows the replica's pre-write epoch can wait out exactly one
// sync round and then read its own write — no sleep-and-hope.
func TestReadYourWritesBoundedStaleness(t *testing.T) {
	p := newNode(t, durable.NewMemFS(), 7, 4, false)
	defer p.close()
	pconn := dialNode(t, p)
	defer pconn.Close()
	if _, err := pconn.Put(1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := pconn.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	r := newNode(t, durable.NewMemFS(), 8, 4, true)
	defer r.close()
	rep, err := New(r.db, Config{Dial: p.dialTo()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	if sum, err := rep.SyncOnce(); err != nil || !sum.Installed {
		t.Fatalf("first sync: %+v %v", sum, err)
	}

	rc := dialNode(t, r)
	defer rc.Close()
	v, e0, ok, err := rc.GetStamped(1)
	if err != nil || !ok || v != 10 {
		t.Fatalf("replica read: (%d,%d,%v,%v)", v, e0, ok, err)
	}
	if e0 == 0 {
		t.Fatal("replica served a read with epoch 0 after an install")
	}

	// Write on the primary; the replica is now bounded-stale and SAYS
	// so: same epoch stamp, old data.
	if _, err := pconn.Put(2, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := pconn.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, eStale, ok, err := rc.GetStamped(2); err != nil || ok || eStale != e0 {
		t.Fatalf("stale read: ok=%v epoch=%d (want miss at epoch %d)", ok, eStale, e0)
	}

	// One sync round later the epoch has advanced past e0 — that is the
	// read-your-writes condition — and the write is visible.
	if sum, err := rep.SyncOnce(); err != nil || !sum.Installed {
		t.Fatalf("second sync: %+v %v", sum, err)
	}
	v2, e1, ok, err := rc.GetStamped(2)
	if err != nil || !ok || v2 != 20 {
		t.Fatalf("post-sync read: (%d,%d,%v,%v)", v2, e1, ok, err)
	}
	if e1 <= e0 {
		t.Fatalf("epoch did not advance: %d -> %d", e0, e1)
	}
	if rc.LastEpoch() != e1 {
		t.Fatalf("LastEpoch = %d, want %d", rc.LastEpoch(), e1)
	}

	// HEALTH reports the same epoch, plus the role and manifest hash;
	// primary and converged replica serve identical content hashes.
	rh, err := rc.Health()
	if err != nil || !rh.ReadOnly || rh.Epoch != e1 {
		t.Fatalf("replica health = %+v %v (want read-only at epoch %d)", rh, err, e1)
	}
	ph, err := pconn.Health()
	if err != nil || ph.ReadOnly {
		t.Fatalf("primary health = %+v %v", ph, err)
	}
	if ph.Hash != rh.Hash {
		t.Fatal("converged nodes report different manifest hashes")
	}
}

// TestPromotionStateMachine drives the white-box edges: a promotion
// does not wait on (and is not seen by) a sync round stalled short of
// its install, it retires the Replica for good, a second promotion is
// refused, and Demote returns the node to replica duty so it can rejoin
// under a fresh Replica — all through the DB's one role bit.
func TestPromotionStateMachine(t *testing.T) {
	db, err := durable.Open(nodeDir, &durable.Options{
		Shards: 4, Seed: 9, NoBackground: true, FS: durable.NewMemFS(), NoSweep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(db, server.Config{ReadTimeout: -1, SweepInterval: -1})
	defer srv.Close()

	// A primary that accepts the connection and then stalls forever:
	// the sync round must hit its timeout, not hang the promotion.
	dialed := make(chan struct{})
	var dialedOnce sync.Once
	stallDial := func() (net.Conn, error) {
		cliEnd, srvEnd := net.Pipe()
		go func() {
			buf := make([]byte, 1024)
			for {
				if _, err := srvEnd.Read(buf); err != nil {
					return
				}
			}
		}()
		dialedOnce.Do(func() { close(dialed) })
		return cliEnd, nil
	}
	rep, err := New(db, Config{Dial: stallDial, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	// Promote while a sync round is in flight: the round entered first,
	// so it must fail on its own timeout — never ErrPromoted — and, being
	// nowhere near an install, it must not hold the promotion up.
	roundErr := make(chan error, 1)
	go func() {
		_, err := rep.SyncOnce()
		roundErr <- err
	}()
	<-dialed
	if n, err := db.Promote(); err != nil || n != 1 {
		t.Fatalf("promote: %d %v", n, err)
	}
	if err := <-roundErr; err == nil || errors.Is(err, ErrPromoted) {
		t.Fatalf("in-flight round: %v (want a timeout, not nil or ErrPromoted)", err)
	}
	// After the flip, sync is permanently refused.
	if _, err := rep.SyncOnce(); !errors.Is(err, ErrPromoted) {
		t.Fatalf("post-promotion sync: %v, want ErrPromoted", err)
	}
	if !rep.Stats().Promoted {
		t.Fatal("Stats does not report the promotion")
	}
	if ok, err := putOnNode(srv, 1, 11); err != nil || !ok {
		t.Fatalf("write on promoted node: %v %v", ok, err)
	}

	// Double promote is refused, and the refusal is typed.
	if _, err := rep.Promote(); !errors.Is(err, durable.ErrNotReplica) {
		t.Fatalf("double promote: %v, want ErrNotReplica", err)
	}
	if n := db.Promotions(); n != 1 {
		t.Fatalf("promotion count after the refused promote = %d, want 1", n)
	}

	// Demote: back to replica duty. Writes are refused again, and a
	// FRESH Replica (retirement is per-Replica, deliberately — the old
	// one's fence must never silently lift) converges off a live
	// primary again.
	if err := db.Demote(); err != nil {
		t.Fatalf("demote: %v", err)
	}
	if err := db.Demote(); err == nil {
		t.Fatal("double demote accepted")
	}
	if _, err := putOnNode(srv, 2, 22); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("demoted node accepted a write: %v", err)
	}
	if _, err := rep.SyncOnce(); !errors.Is(err, ErrPromoted) {
		t.Fatalf("the retired Replica synced again after the demotion: %v", err)
	}

	p := newNode(t, durable.NewMemFS(), 3, 4, false)
	defer p.close()
	p.db.Put(7, 77)
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep2, err := New(db, Config{Dial: p.dialTo()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Stop()
	if sum, err := rep2.SyncOnce(); err != nil || !sum.Installed {
		t.Fatalf("rejoin sync: %+v %v", sum, err)
	}
	if v, ok := db.Get(7); !ok || v != 77 {
		t.Fatalf("rejoined replica missing primary's write: %d %v", v, ok)
	}
}

// TestWirePromoteFencesAntiEntropyWithoutWiring: a replica node built
// from nothing but a DB in the replica role, a server and a Replica —
// no callback from one to another — is promoted by a PROMOTE frame, and
// the Replica, told nothing, must never install the old primary's
// checkpoints again. (When the role was three flags kept in step by
// closures, this recipe — every test helper's own — acked and
// checkpointed key 2 and then lost it to the next sync round.)
func TestWirePromoteFencesAntiEntropyWithoutWiring(t *testing.T) {
	p := newNode(t, durable.NewMemFS(), 7, 4, false)
	defer p.close()
	p.db.Put(1, 10)
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	db, err := durable.Open(nodeDir, &durable.Options{
		Shards: 4, Seed: 8, NoBackground: true, NoSweep: true, FS: durable.NewMemFS(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(db, server.Config{})
	defer srv.Close()
	rep, err := New(db, Config{Dial: p.dialTo()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	if sum, err := rep.SyncOnce(); err != nil || !sum.Installed {
		t.Fatalf("first sync: %+v %v", sum, err)
	}

	cliEnd, srvEnd := net.Pipe()
	srv.ServeConn(srvEnd)
	c := client.NewConn(cliEnd)
	defer c.Close()
	if n, err := c.Promote(); err != nil || n != 1 {
		t.Fatalf("wire promote: %d %v", n, err)
	}
	if _, err := c.Put(2, 20); err != nil {
		t.Fatalf("put on the promoted node: %v", err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The old primary lives on and moves ahead: a round would find a
	// checkpoint to install.
	p.db.Put(3, 30)
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if sum, err := rep.SyncOnce(); !errors.Is(err, ErrPromoted) {
		t.Fatalf("sync after the wire promotion: %+v %v, want ErrPromoted", sum, err)
	}
	if v, ok, err := c.Get(2); err != nil || !ok || v != 20 {
		t.Fatalf("acked, checkpointed key 2 = (%d,%v,%v) after the round, want 20", v, ok, err)
	}
	if _, ok := db.Get(3); ok {
		t.Fatal("the promoted node took the old primary's key 3")
	}
	if err := db.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
}

// TestRoleDerivations walks one node replica → promoted → demoted and
// checks that everything the role decides flips with the DB's one bit,
// together: the wire refuses writes, HEALTH says read-only and Install
// is allowed exactly while it is a replica; checkpoints sweep expired
// entries and the background checkpointer acts on its ticks exactly
// while it is a primary.
func TestRoleDerivations(t *testing.T) {
	clk := expiry.NewManual(100)
	db, err := durable.Open(nodeDir, &durable.Options{
		Shards: 4, Seed: 5, FS: durable.NewMemFS(), Clock: clk,
		NoSweep: true, CheckpointInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(db, server.Config{ReadTimeout: -1, SweepInterval: -1})
	defer srv.Close()
	cliEnd, srvEnd := net.Pipe()
	srv.ServeConn(srvEnd)
	c := client.NewConn(cliEnd)
	defer c.Close()

	steps := []struct {
		name    string
		flip    func() error
		replica bool
	}{
		{"opened as a replica", func() error { return nil }, true},
		{"promoted", func() error { _, err := db.Promote(); return err }, false},
		{"demoted", db.Demote, true},
	}
	for i, st := range steps {
		if err := st.flip(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		key := int64(1000 + i)

		// The wire: write refusal and HEALTH.
		_, err := c.Put(key, 1)
		if refused := errors.Is(err, client.ErrReadOnly); refused != st.replica || (!refused && err != nil) {
			t.Errorf("%s: wire PUT: %v (want refused: %v)", st.name, err, st.replica)
		}
		if h, err := c.Health(); err != nil || h.ReadOnly != st.replica {
			t.Errorf("%s: HEALTH = %+v %v, want ReadOnly %v", st.name, h, err, st.replica)
		}

		// The background checkpointer: a dirty op and a few dozen ticks.
		db.Put(key, 2)
		cps := db.Checkpoints()
		if st.replica {
			time.Sleep(30 * time.Millisecond)
			if db.Checkpoints() != cps || db.PendingOps() == 0 {
				t.Errorf("%s: the background checkpointer acted on a replica", st.name)
			}
		} else {
			for deadline := time.Now().Add(5 * time.Second); db.Checkpoints() == cps; {
				if time.Now().After(deadline) {
					t.Fatalf("%s: the background checkpointer never acted", st.name)
				}
				time.Sleep(time.Millisecond)
			}
		}

		// The checkpoint's expiry sweep: one entry dead at the new epoch.
		swept := db.SweptKeys()
		db.PutTTL(key+100, 3, clk.Now()+1)
		clk.Advance(2)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if did := db.SweptKeys() > swept; did == st.replica {
			t.Errorf("%s: checkpoint swept: %v", st.name, did)
		}

		// Install: a no-op on the checkpoint already committed, if allowed.
		_, stamp := db.CheckpointStamp()
		r, err := db.OpenBlob(stamp)
		if err != nil {
			t.Fatal(err)
		}
		man, err := io.ReadAll(io.NewSectionReader(r, 0, r.Size()))
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		err = db.Install(man, nil)
		if refused := errors.Is(err, durable.ErrNotReplica); refused == st.replica || (!refused && err != nil) {
			t.Errorf("%s: Install: %v (want allowed: %v)", st.name, err, st.replica)
		}
	}
}

// TestHealthProberDeclaresPrimaryDown runs the PING prober against a
// primary that dies mid-life and checks the down declaration fires
// exactly once, after the configured threshold, and is visible in
// Stats.
func TestHealthProberDeclaresPrimaryDown(t *testing.T) {
	p := newNode(t, durable.NewMemFS(), 7, 4, false)
	p.db.Put(1, 1)
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r := newNode(t, durable.NewMemFS(), 8, 4, true)
	defer r.close()

	var alive atomic.Bool
	alive.Store(true)
	downCh := make(chan struct{})
	var fired atomic.Int32
	rep, err := New(r.db, Config{
		Dial: func() (net.Conn, error) {
			if !alive.Load() {
				return nil, errors.New("primary unreachable")
			}
			return p.dialTo()()
		},
		Interval:        time.Hour, // anti-entropy parked; the prober is under test
		HealthInterval:  time.Millisecond,
		HealthThreshold: 3,
		OnPrimaryDown: func() {
			fired.Add(1)
			close(downCh)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	rep.Start()

	// Healthy phase: let several probe ticks pass; no declaration.
	time.Sleep(20 * time.Millisecond)
	if rep.Stats().PrimaryDown {
		t.Fatal("primary declared down while alive")
	}

	// Kill the primary: dials refuse, the live probe conn dies.
	alive.Store(false)
	p.srv.Close()
	p.db.Close()
	select {
	case <-downCh:
	case <-time.After(5 * time.Second):
		t.Fatal("prober never declared the primary down")
	}
	st := rep.Stats()
	if !st.PrimaryDown || st.ProbeFailures < 3 {
		t.Fatalf("stats after declaration: %+v", st)
	}
	// The declaration is once-per-process: give the prober more ticks
	// and check the callback did not refire.
	time.Sleep(20 * time.Millisecond)
	if n := fired.Load(); n != 1 {
		t.Fatalf("OnPrimaryDown fired %d times, want exactly 1", n)
	}
}

// putOnNode performs one wire PUT against a server over a fresh pipe.
func putOnNode(srv *server.Server, k, v int64) (bool, error) {
	cliEnd, srvEnd := net.Pipe()
	srv.ServeConn(srvEnd)
	c := client.NewConn(cliEnd)
	defer c.Close()
	return c.Put(k, v)
}
