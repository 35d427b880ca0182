package replica

import (
	"bytes"
	"crypto/sha256"
	"net"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/durable"
	"repro/internal/expiry"
	"repro/internal/server"
)

// node is one cluster member in tests: its own MemFS, DB, and serving
// side. All tests run NoBackground so every commit is explicit and the
// schedule is deterministic.
type node struct {
	fs  *durable.MemFS
	db  *durable.DB
	srv *server.Server
}

const nodeDir = "db"

func newNode(t *testing.T, fs *durable.MemFS, seed uint64, shards int, replica bool) *node {
	t.Helper()
	return newNodeClock(t, fs, seed, shards, replica, nil)
}

// newNodeClock is newNode with an injected TTL epoch clock (nil: the
// system clock). The role is the DB's one bit (Options.NoSweep opens a
// replica); the server over it is told nothing and follows.
func newNodeClock(t *testing.T, fs *durable.MemFS, seed uint64, shards int, replica bool, clk expiry.Clock) *node {
	t.Helper()
	db, err := durable.Open(nodeDir, &durable.Options{
		Shards: shards, Seed: seed, NoBackground: true, FS: fs,
		Clock: clk, NoSweep: replica,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{ReadTimeout: -1})
	return &node{fs: fs, db: db, srv: srv}
}

// dialTo returns a Dial func that opens a fresh net.Pipe served by n.
func (n *node) dialTo() func() (net.Conn, error) {
	return func() (net.Conn, error) {
		cliEnd, srvEnd := net.Pipe()
		n.srv.ServeConn(srvEnd)
		return cliEnd, nil
	}
}

func (n *node) close() {
	n.srv.Close()
	n.db.Close()
}

// dialNode opens a client connection to a node's server over a pipe.
func dialNode(t *testing.T, n *node) *client.Conn {
	t.Helper()
	nc, err := n.dialTo()()
	if err != nil {
		t.Fatal(err)
	}
	return client.NewConn(nc)
}

// dirBytes snapshots every file of a node's DB directory.
func dirBytes(t *testing.T, fs durable.FS) map[string][]byte {
	t.Helper()
	names, err := fs.List(nodeDir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		f, err := fs.Open(nodeDir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		out[name] = buf.Bytes()
	}
	return out
}

// sameDirs asserts every node's DB directory is byte-identical to the
// first's: same file names, same bytes.
func sameDirs(t *testing.T, fss ...durable.FS) {
	t.Helper()
	want := dirBytes(t, fss[0])
	for i, fs := range fss[1:] {
		got := dirBytes(t, fs)
		if len(got) != len(want) {
			t.Fatalf("node %d holds %d files, node 0 holds %d", i+1, len(got), len(want))
		}
		for name, wb := range want {
			gb, ok := got[name]
			if !ok {
				t.Fatalf("node %d is missing file %s", i+1, name)
			}
			if !bytes.Equal(gb, wb) {
				t.Fatalf("node %d file %s differs from node 0 (%d vs %d bytes)",
					i+1, name, len(gb), len(wb))
			}
		}
	}
}

// TestSyncOnceConverges syncs a fresh replica onto a populated primary
// and checks directories, contents, and the divergent-only accounting.
func TestSyncOnceConverges(t *testing.T) {
	p := newNode(t, durable.NewMemFS(), 7, 8, false)
	defer p.close()
	for k := int64(0); k < 3000; k++ {
		p.db.Put(k, k*11)
	}
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	r := newNode(t, durable.NewMemFS(), 99, 8, true)
	defer r.close()
	rep, err := New(r.db, Config{Dial: p.dialTo()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	sum, err := rep.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Converged || !sum.Installed || sum.ShardsFetched != 8 || sum.BytesFetched == 0 {
		t.Fatalf("first round: %+v", sum)
	}
	sameDirs(t, p.fs, r.fs)
	if v, ok := r.db.Get(1234); !ok || v != 1234*11 {
		t.Fatalf("replica Get(1234) = %d %v", v, ok)
	}
	if err := r.db.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}

	// A second round with nothing new is pure hash comparison: one
	// HEALTH round trip.
	reqs := p.srv.Stats().Requests
	sum, err = rep.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Converged || sum.Installed || sum.ShardsFetched != 0 {
		t.Fatalf("converged round: %+v", sum)
	}
	if got := p.srv.Stats().Requests - reqs; got != 1 {
		t.Fatalf("converged round cost %d requests, want 1 (HEALTH)", got)
	}

	// A small write dirties a subset of shards; only those cross the
	// wire, the rest are reused from the replica's own disk.
	p.db.Put(5_000_000, 1)
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sum, err = rep.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Installed || sum.ShardsFetched != 1 {
		t.Fatalf("incremental round fetched %d shards: %+v", sum.ShardsFetched, sum)
	}
	// HEALTH, the manifest (one chunk), the one divergent image (one
	// chunk): nothing else crosses the wire, and nothing is re-probed.
	if got := p.srv.Stats().Requests - reqs - 1; got != 3 {
		t.Fatalf("incremental round cost %d requests, want 3", got)
	}
	sameDirs(t, p.fs, r.fs)

	// Tenants cost their images and nothing more: the one manifest names
	// them all, so three new tenants are still HEALTH + manifest before
	// the first image byte moves.
	for _, ns := range []string{"acme", "globex", "initech"} {
		if _, err := p.db.NSPut(ns, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reqs = p.srv.Stats().Requests
	if sum, err = rep.SyncOnce(); err != nil || sum.ShardsFetched != 3*8 {
		t.Fatalf("three-tenant round: %+v, %v", sum, err)
	}
	if got := p.srv.Stats().Requests - reqs; got != 2+3*8 {
		t.Fatalf("three-tenant round cost %d requests, want %d", got, 2+3*8)
	}
	sameDirs(t, p.fs, r.fs)
}

// TestSyncHealsRottenLocalImage: an image the replica already holds rots
// on its disk, and the next checkpoint still names it. The round must
// notice — the decision "is the local file good" is made where the file
// is used — fetch the image again AND put the right bytes back, so the
// directory converges and reopens. (When the fetch decision and the
// write decision were separate code the round refetched, skipped the
// write as "already committed", reported Installed, and left a replica
// that could not reopen.)
func TestSyncHealsRottenLocalImage(t *testing.T) {
	p := newNode(t, durable.NewMemFS(), 7, 8, false)
	defer p.close()
	for k := int64(0); k < 3000; k++ {
		p.db.Put(k, k*11)
	}
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rfs := durable.NewMemFS()
	r := newNode(t, rfs, 99, 8, true)
	rep, err := New(r.db, Config{Dial: p.dialTo()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	if _, err := rep.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, p.fs)
	p.db.Put(5_000_000, 1)
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var victim string
	for name := range dirBytes(t, p.fs) {
		if _, both := before[name]; both && strings.HasSuffix(name, ".img") {
			victim = name
			break
		}
	}
	if victim == "" {
		t.Fatal("no image survived the one-key checkpoint; the test exercises nothing")
	}
	f, err := rfs.OpenWrite(nodeDir + "/" + victim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xba, 0xdb, 0x17}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sum, err := rep.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Installed || sum.ShardsFetched != 2 {
		t.Fatalf("healing round: %+v, want the divergent image and the rotten one fetched", sum)
	}
	sameDirs(t, p.fs, rfs)
	if err := r.db.VerifyCanonical(); err != nil {
		t.Fatal(err)
	}
	r.close()
	re, err := durable.Open(nodeDir, &durable.Options{NoBackground: true, NoSweep: true, FS: rfs})
	if err != nil {
		t.Fatalf("reopening the healed replica: %v", err)
	}
	defer re.Abandon()
	if v, ok := re.Get(5_000_000); !ok || v != 1 {
		t.Fatalf("reopened replica Get(5000000) = %d %v", v, ok)
	}
}

// TestSyncChunking forces multi-chunk image fetches and checks the
// reassembled install still lands byte-identical.
func TestSyncChunking(t *testing.T) {
	p := newNode(t, durable.NewMemFS(), 3, 2, false)
	defer p.close()
	for k := int64(0); k < 5000; k++ {
		p.db.Put(k, -k)
	}
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r := newNode(t, durable.NewMemFS(), 4, 2, true)
	defer r.close()
	rep, err := New(r.db, Config{Dial: p.dialTo(), ChunkSize: 777})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	sum, err := rep.SyncOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Installed {
		t.Fatalf("%+v", sum)
	}
	sameDirs(t, p.fs, r.fs)
	if rep.Stats().BytesFetched == 0 {
		t.Fatal("no bytes accounted")
	}
}

// TestReplicaServesReadsAndRefusesWrites runs a read-only server over
// the replica's DB and checks both halves of the contract.
func TestReplicaServesReadsAndRefusesWrites(t *testing.T) {
	p := newNode(t, durable.NewMemFS(), 7, 4, false)
	defer p.close()
	p.db.Put(42, 4242)
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r := newNode(t, durable.NewMemFS(), 8, 4, true)
	defer r.close()
	rep, err := New(r.db, Config{Dial: p.dialTo()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	if _, err := rep.SyncOnce(); err != nil {
		t.Fatal(err)
	}

	c := dialNode(t, r)
	defer c.Close()
	if v, ok, err := c.Get(42); err != nil || !ok || v != 4242 {
		t.Fatalf("read from replica: %d %v %v", v, ok, err)
	}
	if _, err := c.Put(1, 1); err == nil {
		t.Fatal("replica accepted a write")
	}
	// The replica serves sync to downstreams: chain a second-tier
	// replica off the first and reach the same bytes.
	r2 := newNode(t, durable.NewMemFS(), 9, 4, true)
	defer r2.close()
	rep2, err := New(r2.db, Config{Dial: r.dialTo()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Stop()
	if sum, err := rep2.SyncOnce(); err != nil || !sum.Installed {
		t.Fatalf("chained sync: %+v %v", sum, err)
	}
	sameDirs(t, p.fs, r.fs, r2.fs)
}

// TestReplicaRedialsAfterPrimaryRestart kills the primary's serving
// side mid-life and checks the replica recovers on the next round.
func TestReplicaRedialsAfterPrimaryRestart(t *testing.T) {
	pfs := durable.NewMemFS()
	p := newNode(t, pfs, 7, 4, false)
	p.db.Put(1, 1)
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	r := newNode(t, durable.NewMemFS(), 8, 4, true)
	defer r.close()
	// The dial func resolves p at call time so a restart is picked up.
	rep, err := New(r.db, Config{Dial: func() (net.Conn, error) {
		cliEnd, srvEnd := net.Pipe()
		p.srv.ServeConn(srvEnd)
		return cliEnd, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	if _, err := rep.SyncOnce(); err != nil {
		t.Fatal(err)
	}

	// Power-cut the primary: sever its server, abandon the DB, recover
	// the durable view into a new node.
	p.srv.Close()
	p.db.Abandon()
	pfs = pfs.Crash()
	p = newNode(t, pfs, 7, 4, false)
	defer p.close()
	p.db.Put(2, 2)
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// First round after the restart may fail (dead pipe); the replica
	// must redial and converge within a couple of rounds.
	var synced bool
	for i := 0; i < 3 && !synced; i++ {
		sum, err := rep.SyncOnce()
		synced = err == nil && (sum.Installed || sum.Converged)
	}
	if !synced {
		t.Fatal("replica did not recover after primary restart")
	}
	sameDirs(t, p.fs, r.fs)
	if v, ok := r.db.Get(2); !ok || v != 2 {
		t.Fatalf("replica missing post-restart write: %d %v", v, ok)
	}
}

// TestFetchBufferNeverAliasesCommittedManifest: a round fetches the
// manifest, then images into the install's one buffer, and Install
// keeps the manifest's bytes as the committed checkpoint. The two must
// never share memory: after every round the replica's committed
// manifest — in memory, as HEALTH and SYNC serve it, and on disk — is
// byte for byte the primary's.
//
// With the bug, the images landed in the manifest's buffer: the install
// committed image bytes as its manifest, and the replica advertised a
// checkpoint stamp no primary ever had.
func TestFetchBufferNeverAliasesCommittedManifest(t *testing.T) {
	p := newNode(t, durable.NewMemFS(), 7, 4, false)
	defer p.close()
	r := newNode(t, durable.NewMemFS(), 99, 4, true)
	defer r.close()
	rep, err := New(r.db, Config{Dial: p.dialTo(), ChunkSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	c := dialNode(t, r)
	defer c.Close()

	for round := int64(0); round < 4; round++ {
		for k := int64(0); k < 1500; k++ {
			p.db.Put(k, k*round)
		}
		if _, err := p.db.NSPut("acme", round, round); err != nil {
			t.Fatal(err)
		}
		if err := p.db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		sum, err := rep.SyncOnce()
		if err != nil || sum.ShardsFetched == 0 {
			t.Fatalf("round %d: %+v, %v", round, sum, err)
		}
		_, want := p.db.CheckpointStamp()
		if _, got := r.db.CheckpointStamp(); got != want {
			t.Fatalf("round %d: the replica's checkpoint stamp %x is not the primary's %x", round, got[:4], want[:4])
		}
		man, _ := dialFetch(t, c, want)
		if sha256.Sum256(man) != want {
			t.Fatalf("round %d: the replica serves %d manifest bytes that do not hash to its stamp", round, len(man))
		}
		sameDirs(t, p.fs, r.fs)
	}
}

// dialFetch reassembles one blob from c by SYNC chunks.
func dialFetch(t *testing.T, c *client.Conn, hash [32]byte) (blob []byte, chunks int) {
	t.Helper()
	for more := true; more; chunks++ {
		var err error
		if blob, more, err = c.SyncChunk(blob, hash, uint64(len(blob)), 0); err != nil {
			t.Fatal(err)
		}
	}
	return blob, chunks
}
