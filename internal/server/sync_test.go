package server

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"path"
	"sync"
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

// TestSyncChunkNeverServesWipedBytes: a SYNC stream straddles
// checkpoints that supersede its blob — and, in the second half, commit
// it again under a fresh file. Every chunk must be the blob's true bytes
// or a stale refusal.
//
// With the bug, a stream kept reading the file it opened first: once a
// checkpoint's sweep had zero-wiped that file, the next chunks came back
// as zeros, which the fetcher could only reject after the whole blob
// had crossed the wire — and a blob committed again was read from the
// wiped inode, not from its new file.
func TestSyncChunkNeverServesWipedBytes(t *testing.T) {
	db, fs := newSyncDB(t)
	defer db.Close()
	for k := int64(0); k < 2000; k++ {
		db.Put(k, k*7)
	}
	const x = 1_000_000 // the key that moves one shard between two images
	checkpoint := func() map[[32]byte][]byte {
		t.Helper()
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		_, images := committedFiles(t, fs)
		return images
	}
	db.Put(x, 1)
	with := checkpoint()
	db.Delete(x)
	without := checkpoint()
	var hWith, hWithout [32]byte
	for h := range with {
		if _, ok := without[h]; !ok {
			hWith = h
		}
	}
	for h := range without {
		if _, ok := with[h]; !ok {
			hWithout = h
		}
	}
	if hWith == ([32]byte{}) || hWithout == ([32]byte{}) {
		t.Fatal("key x moved no image")
	}

	srv, addr := startTCP(t, db, Config{})
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const chunk = 512
	// read fetches the chunk at off of the blob hashing to h, whose true
	// bytes are want: it reports false for a stale refusal and fails the
	// test for anything but the true bytes.
	read := func(h [32]byte, want []byte, off int) bool {
		t.Helper()
		got, _, err := c.SyncChunk(nil, h, uint64(off), chunk)
		if isStale(err) {
			return false
		}
		if err != nil {
			t.Fatalf("chunk at %d: %v", off, err)
		}
		if !bytes.Equal(got, want[off:min(off+chunk, len(want))]) {
			t.Fatalf("chunk at %d is %d bytes that are not the blob's (all zeros: %v)", off, len(got), !bytes.ContainsFunc(got, func(r rune) bool { return r != 0 }))
		}
		return true
	}

	// Superseded mid-stream: each later chunk is the true bytes or stale.
	if !read(hWithout, without[hWithout], 0) {
		t.Fatal("the committed blob is stale")
	}
	db.Put(x, 1)
	checkpoint()
	for off := chunk; off < len(without[hWithout]); off += chunk {
		read(hWithout, without[hWithout], off)
	}

	// Superseded and committed again mid-stream: the chunks are the
	// blob's bytes, read from its new file.
	if !read(hWith, with[hWith], 0) {
		t.Fatal("the committed blob is stale")
	}
	db.Delete(x)
	checkpoint()
	db.Put(x, 1)
	checkpoint()
	for off := chunk; off < len(with[hWith]); off += chunk {
		if !read(hWith, with[hWith], off) {
			t.Fatalf("chunk at %d of the committed blob is stale", off)
		}
	}
}

// countingFS counts, per file, the opens for reading and the bytes read
// sequentially — the pass that verifies a file's hash. Positional reads
// (ReadAt), which serve a SYNC chunk, are not counted.
type countingFS struct {
	*durable.MemFS
	mu    sync.Mutex
	opens map[string]int
	read  map[string]int64
}

func (c *countingFS) Open(name string) (durable.File, error) {
	f, err := c.MemFS.Open(name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.opens[path.Base(name)]++
	c.mu.Unlock()
	return &countingFile{File: f, fs: c, name: path.Base(name)}, nil
}

type countingFile struct {
	durable.File
	fs   *countingFS
	name string
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.mu.Lock()
	f.fs.read[f.name] += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

// TestInterleavedFetchersOpenEachBlobOnce: two fetchers on two
// connections pull two different images chunk by chunk, in lockstep.
// Each image must be opened, and its hash verified, once for its whole
// stream.
//
// With the bug, the server kept one cached blob for all connections:
// alternating fetchers evicted each other's image on every chunk, so
// each chunk re-read and re-hashed its whole image — one open and one
// hash pass per chunk instead of per blob.
func TestInterleavedFetchersOpenEachBlobOnce(t *testing.T) {
	fs := &countingFS{MemFS: durable.NewMemFS()}
	db, err := durable.Open("db", &durable.Options{Shards: 4, Seed: 42, NoBackground: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := int64(0); k < 2000; k++ {
		db.Put(k, k*7)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, images := committedFiles(t, fs.MemFS)
	var blobs [][]byte
	for _, img := range images {
		blobs = append(blobs, img)
	}
	blobs = blobs[:2]
	fs.mu.Lock()
	fs.opens, fs.read = map[string]int{}, map[string]int64{}
	fs.mu.Unlock()

	srv, addr := startTCP(t, db, Config{})
	defer srv.Close()
	var conns [2]*client.Conn
	for i := range conns {
		if conns[i], err = client.Dial(addr); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
	}
	const chunk = 1024
	var got [2][]byte
	chunks := 0
	for len(got[0]) < len(blobs[0]) || len(got[1]) < len(blobs[1]) {
		for i := range conns {
			if len(got[i]) == len(blobs[i]) {
				continue
			}
			if got[i], _, err = conns[i].SyncChunk(got[i], sha256.Sum256(blobs[i]), uint64(len(got[i])), chunk); err != nil {
				t.Fatal(err)
			}
			chunks++
		}
	}
	for i := range blobs {
		if !bytes.Equal(got[i], blobs[i]) {
			t.Fatalf("fetcher %d assembled bytes that are not its image", i)
		}
	}

	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(fs.opens) != 2 {
		t.Fatalf("%d files opened for %d chunks of two images: %v", len(fs.opens), chunks, fs.opens)
	}
	for name, n := range fs.opens {
		size, err := fs.Size("db/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 || fs.read[name] != size {
			t.Errorf("%s (%d bytes) was opened %d times and read %d bytes through for %d chunks, want 1 open and 1 hash pass", name, size, n, fs.read[name], chunks)
		}
	}
}
