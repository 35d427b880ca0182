package server

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"repro/client"
	"repro/internal/durable"
	"repro/internal/proto"
)

// newSyncDB opens a 4-shard DB over a MemFS the test can read back.
func newSyncDB(t *testing.T) (*durable.DB, *durable.MemFS) {
	t.Helper()
	fs := durable.NewMemFS()
	db, err := durable.Open("db", &durable.Options{Shards: 4, Seed: 42, NoBackground: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return db, fs
}

// committedFiles reads the DB directory back: the MANIFEST's bytes and
// every image file keyed by its SHA-256 — the address SYNC serves it at.
func committedFiles(t *testing.T, fs durable.FS) (manifest []byte, images map[[32]byte][]byte) {
	t.Helper()
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	images = map[[32]byte][]byte{}
	for _, name := range names {
		f, err := fs.Open("db/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if name == "MANIFEST" {
			manifest = buf.Bytes()
		} else {
			images[sha256.Sum256(buf.Bytes())] = buf.Bytes()
		}
	}
	return manifest, images
}

// fetchBlob reassembles one blob from SYNC chunks of at most maxLen
// bytes (0: the server's default) and reports how many it took.
func fetchBlob(t *testing.T, c *client.Conn, hash [32]byte, maxLen int) (blob []byte, chunks int) {
	t.Helper()
	for {
		var more bool
		var err error
		if blob, more, err = c.SyncChunk(blob, hash, uint64(len(blob)), maxLen); err != nil {
			t.Fatalf("blob %x chunk at %d: %v", hash[:4], len(blob), err)
		}
		chunks++
		if !more {
			return blob, chunks
		}
	}
}

// isStale reports whether err is the wire's ErrCodeStale refusal.
func isStale(err error) bool {
	var re *proto.RemoteError
	return errors.As(err, &re) && re.Code == proto.ErrCodeStale
}

// TestSyncOpcodes drives HEALTH and SYNC over the wire: the hash HEALTH
// advertises must fetch the committed manifest, every image file must
// fetch under its own SHA-256 with chunked fetches reassembling to the
// exact bytes, and hashes only a superseded checkpoint named must be
// answered with ErrCodeStale.
func TestSyncOpcodes(t *testing.T) {
	db, fs := newSyncDB(t)
	defer db.Close()
	for k := int64(0); k < 2000; k++ {
		db.Put(k, k*7)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv, addr := startTCP(t, db, Config{})
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	wantMan, images := committedFiles(t, fs)
	if h.Hash != sha256.Sum256(wantMan) {
		t.Fatal("HEALTH does not advertise the SHA-256 of the MANIFEST file")
	}
	if man, _ := fetchBlob(t, c, h.Hash, 64); !bytes.Equal(man, wantMan) {
		t.Fatalf("manifest over the wire is %d bytes that differ from the %d committed", len(man), len(wantMan))
	}
	if len(images) != 4 {
		t.Fatalf("%d image files, want 4", len(images))
	}
	for hash, want := range images {
		// A tiny maxlen forces multi-chunk fetches.
		img, chunks := fetchBlob(t, c, hash, 512)
		if !bytes.Equal(img, want) {
			t.Fatalf("image %x: wire bytes differ from the committed file", hash[:4])
		}
		if len(want) > 512 && chunks < 2 {
			t.Fatalf("image %x (%d bytes) arrived in %d chunk(s) despite the 512-byte cap", hash[:4], len(want), chunks)
		}
	}

	// Move the checkpoint and ask for what only the old one named.
	for k := int64(0); k < 200; k++ {
		db.Put(1_000_000+k, k)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SyncChunk(nil, h.Hash, 0, 0); !isStale(err) {
		t.Fatalf("superseded manifest: %v, want ErrCodeStale", err)
	}
	_, fresh := committedFiles(t, fs)
	superseded := 0
	for hash := range images {
		if _, still := fresh[hash]; still {
			continue
		}
		superseded++
		if _, _, err := c.SyncChunk(nil, hash, 0, 0); !isStale(err) {
			t.Fatalf("superseded image %x: %v, want ErrCodeStale", hash[:4], err)
		}
	}
	if superseded == 0 {
		t.Fatal("200 puts superseded no image; the test exercises nothing")
	}

	st := srv.Stats()
	if st.Role != "primary" || st.SyncChunks < 6 || st.SyncBytesOut == 0 {
		t.Fatalf("sync stats: %+v", st)
	}
}

// TestSyncHostileRequests checks that malformed sync requests get error
// replies without closing the stream.
func TestSyncHostileRequests(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Close()
	db.Put(1, 1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv, addr := startTCP(t, db, Config{})
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	man, _ := fetchBlob(t, c, h.Hash, 0)
	var re *proto.RemoteError
	// Offset past the end of the blob (at the end is an empty last chunk).
	if data, more, err := c.SyncChunk(nil, h.Hash, uint64(len(man)), 0); err != nil || more || len(data) != 0 {
		t.Fatalf("offset at the blob's end: %d bytes, more %v, %v", len(data), more, err)
	}
	if _, _, err = c.SyncChunk(nil, h.Hash, uint64(len(man))+1, 0); !errors.As(err, &re) || re.Code != proto.ErrCodeBadFrame {
		t.Fatalf("offset past blob: %v", err)
	}
	// A hash the checkpoint does not name.
	if _, _, err = c.SyncChunk(nil, [32]byte{0xbe, 0xef}, 0, 0); !isStale(err) {
		t.Fatalf("unknown hash: %v, want ErrCodeStale", err)
	}
	// A request in the old shard-indexed layout, and a truncated one.
	for _, n := range []int{48, 43} {
		if _, err := rawCall(t, addr, proto.OpSync, make([]byte, n)); !errors.As(err, &re) || re.Code != proto.ErrCodeBadFrame {
			t.Fatalf("%d-byte sync request: %v, want ErrCodeBadFrame", n, err)
		}
	}
	// The stream survived every refusal.
	if err := c.Ping([]byte("still alive")); err != nil {
		t.Fatal(err)
	}
}

// TestStatsRole checks the replica role surfaces in Stats.
func TestStatsRole(t *testing.T) {
	db := newReplicaDB(t, 4)
	defer db.Close()
	srv := New(db, Config{})
	defer srv.Close()
	if st := srv.Stats(); st.Role != "replica" {
		t.Fatalf("role = %q, want replica", st.Role)
	}
}
