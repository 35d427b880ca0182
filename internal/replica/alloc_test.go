//go:build !race

package replica

import (
	"crypto/sha256"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/shard"
)

// heapAllocated returns the bytes the process has allocated so far.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// openDisk opens a DB on the real filesystem under a fresh temp dir, so
// file contents never count as heap.
func openDisk(t *testing.T, shards int, seed uint64, replica bool) *durable.DB {
	t.Helper()
	db, err := durable.Open(t.TempDir(), &durable.Options{Shards: shards, Seed: seed, NoBackground: true, NoSweep: replica})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// serveLoopback serves db over a loopback TCP listener and returns its
// address.
func serveLoopback(t *testing.T, db *durable.DB) string {
	t.Helper()
	srv := server.New(db, server.Config{ReadTimeout: -1, SweepInterval: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return ln.Addr().String()
}

// TestReplicationCycleAllocBudget holds the heap cost of shipping a
// checkpoint to what it ships.
//
// A cycle is what the ckpt_sync workload runs: a batch that dirties
// every root shard, a checkpoint, one replica round that fetches the
// changed images and installs them. The only allocation that must grow
// with the bytes fetched is the replica's decoded store, about one byte
// per image byte, so a cycle may allocate at most 1.6 times what it
// fetched. Before image bytes streamed from the committed file into the
// install's one buffer, and unchanged tenants were carried over, the
// ratio was about 3.5: the server re-read each image whole into a fresh
// buffer, the replica fetched it into a second one, and every tenant
// was decoded again.
//
// A stream is one image of over 4 MiB pulled through SYNC into a buffer
// the caller sized, counting everything the process allocates
// meanwhile, server and client alike. Each chunk is read from the
// committed file straight into the connection's reply buffer, so once a
// first stream has sized the connection's chunk buffers (about 1 MiB on
// both ends together) the next costs an open reader, not the image:
// less than 1 MiB in all. A server that loaded the blob whole allocated
// the 4 MiB on its side alone, on every stream.
func TestReplicationCycleAllocBudget(t *testing.T) {
	t.Run("cycle", testCycleAllocBudget)
	t.Run("stream", testStreamAllocBudget)
}

func testCycleAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 160k keys")
	}
	const shards, keys, tenantKeys, batch, cycles = 8, 160_000, 20_000, 4_000, 4
	p := openDisk(t, shards, 7, false)
	defer p.Close()
	rng := rand.New(rand.NewSource(7))
	ops := make([]shard.Op, 0, keys)
	for k := int64(0); k < keys; k++ {
		ops = append(ops, shard.Op{Key: k, Val: rng.Int63()})
	}
	if _, err := p.ApplyBatch(ops, nil); err != nil {
		t.Fatal(err)
	}
	for _, ns := range []string{"acme", "brief"} {
		if _, err := p.NSApplyBatch(ns, ops[:tenantKeys], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	addr := serveLoopback(t, p)
	rdb := openDisk(t, shards, 99, true)
	defer rdb.Close()
	r, err := New(rdb, Config{Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	cycle := func() Summary {
		ops = ops[:0]
		for i := 0; i < batch; i++ {
			ops = append(ops, shard.Op{Key: rng.Int63n(keys), Val: rng.Int63(), Delete: i%4 == 0})
		}
		if _, err := p.ApplyBatch(ops, nil); err != nil {
			t.Fatal(err)
		}
		if err := p.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		sum, err := r.SyncOnce()
		if err != nil || !sum.Installed {
			t.Fatalf("sync round: %+v, %v", sum, err)
		}
		return sum
	}
	cycle() // the cold sync and the first warm round size every buffer
	cycle()
	var fetched int64
	a0 := heapAllocated()
	for i := 0; i < cycles; i++ {
		sum := cycle()
		if sum.ShardsFetched != shards {
			t.Fatalf("a cycle fetched %d images, want every one of the %d root shards", sum.ShardsFetched, shards)
		}
		fetched += sum.BytesFetched
	}
	alloc := heapAllocated() - a0
	ratio := float64(alloc) / float64(fetched)
	t.Logf("%d cycles: %d bytes fetched, %d allocated: %.2f bytes per byte fetched", cycles, fetched, alloc, ratio)
	if ratio > 1.6 {
		t.Fatalf("a replication cycle allocated %.2f bytes per image byte fetched, budget 1.6", ratio)
	}
}

func testStreamAllocBudget(t *testing.T) {
	p := openDisk(t, 2, 7, false)
	defer p.Close()
	items := make([]shard.Item, 200_000)
	for i := range items {
		items[i] = shard.Item{Key: int64(i) * 3, Val: int64(i)}
	}
	p.PutBatch(items)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The two images, read from disk: the smaller is measured, the larger
	// warms the connection up first.
	var imgs [][]byte
	names, err := durable.OS().List(p.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".img") {
			img, err := os.ReadFile(filepath.Join(p.Dir(), n))
			if err != nil {
				t.Fatal(err)
			}
			imgs = append(imgs, img)
		}
	}
	if len(imgs) != 2 {
		t.Fatalf("%d image files, want 2", len(imgs))
	}
	if len(imgs[0]) < len(imgs[1]) {
		imgs[0], imgs[1] = imgs[1], imgs[0]
	}
	if len(imgs[1]) < 4<<20 {
		t.Fatalf("the smaller image is %d bytes, want at least 4 MiB", len(imgs[1]))
	}
	c, err := client.Dial(serveLoopback(t, p))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// stream fetches one image into a buffer of its size and reports what
	// the process allocated meanwhile.
	stream := func(img []byte) uint64 {
		hash := sha256.Sum256(img)
		dst := make([]byte, 0, len(img))
		a0 := heapAllocated()
		for more := true; more; {
			if dst, more, err = c.SyncChunk(dst, hash, uint64(len(dst)), 0); err != nil {
				t.Fatal(err)
			}
		}
		alloc := heapAllocated() - a0
		if len(dst) != len(img) || sha256.Sum256(dst) != hash {
			t.Fatalf("streamed %d bytes that are not the %d-byte image", len(dst), len(img))
		}
		return alloc
	}
	cold := stream(imgs[0])
	alloc := stream(imgs[1])
	t.Logf("streaming a %d-byte image allocated %d bytes (%d on the cold connection, for a %d-byte image)", len(imgs[1]), alloc, cold, len(imgs[0]))
	if alloc >= 1<<20 {
		t.Fatalf("streaming a %d-byte image allocated %d bytes, budget 1 MiB", len(imgs[1]), alloc)
	}
}
