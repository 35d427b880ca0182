package server

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"net"
	"testing"

	"repro/client"
	"repro/internal/proto"
)

// TestSyncOpcodes drives SHARDHASH and SYNC over the wire: the
// advertised hashes must match the committed images, chunked fetches
// must reassemble to the exact bytes, and superseded hashes must be
// answered with ErrCodeStale.
func TestSyncOpcodes(t *testing.T) {
	db := newTestDB(t, 4)
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

	hseed, entries, _, err := c.SyncShardHashes("")
	if err != nil {
		t.Fatal(err)
	}
	if hseed != db.Store().RoutingSeed() {
		t.Fatalf("hseed over the wire %x, store says %x", hseed, db.Store().RoutingSeed())
	}
	wantSeed, wantEntries, err := db.ShardHashes("")
	if err != nil {
		t.Fatal(err)
	}
	if hseed != wantSeed || len(entries) != len(wantEntries) {
		t.Fatalf("wire descriptor (%x, %d shards) != durable (%x, %d shards)",
			hseed, len(entries), wantSeed, len(wantEntries))
	}

	var prevHash [32]byte
	for i, e := range entries {
		if e.Size != wantEntries[i].Size || e.Hash != wantEntries[i].Hash {
			t.Fatalf("shard %d descriptor drifted across the wire", i)
		}
		var img []byte
		chunks := 0
		for {
			// A tiny maxlen forces multi-chunk fetches.
			data, more, err := c.SyncShardChunk("", i, e.Hash, uint64(len(img)), 512)
			if err != nil {
				t.Fatalf("shard %d chunk at %d: %v", i, len(img), err)
			}
			img = append(img, data...)
			chunks++
			if !more {
				break
			}
		}
		if int64(len(img)) != e.Size {
			t.Fatalf("shard %d reassembled to %d bytes, want %d", i, len(img), e.Size)
		}
		if sha256.Sum256(img) != e.Hash {
			t.Fatalf("shard %d reassembled bytes do not hash to the advertised value", i)
		}
		if e.Size > 512 && chunks < 2 {
			t.Fatalf("shard %d (%d bytes) arrived in %d chunk(s) despite the 512-byte cap", i, e.Size, chunks)
		}
		want, err := db.ShardImage("", i, e.Hash)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, want) {
			t.Fatalf("shard %d wire bytes differ from committed image", i)
		}
		prevHash = e.Hash
	}

	// Move the checkpoint and ask for a superseded image.
	for k := int64(0); k < 200; k++ {
		db.Put(1_000_000+k, k)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, fresh, _, err := c.SyncShardHashes("")
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if fresh[i].Hash == prevHash {
			continue
		}
		_, _, err := c.SyncShardChunk("", i, prevHash, 0, 0)
		var re *proto.RemoteError
		if !errors.As(err, &re) || re.Code != proto.ErrCodeStale {
			t.Fatalf("superseded fetch of shard %d: %v, want ErrCodeStale", i, err)
		}
		break
	}

	st := srv.Stats()
	if st.Role != "primary" || st.SyncHashes < 2 || st.SyncChunks == 0 || st.SyncBytesOut == 0 {
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
	srv := New(db, Config{ReadTimeout: -1})
	cliEnd, srvEnd := net.Pipe()
	srv.ServeConn(srvEnd)
	defer srv.Close()
	c := client.NewConn(cliEnd)
	defer c.Close()

	_, entries, _, err := c.SyncShardHashes("")
	if err != nil {
		t.Fatal(err)
	}
	// Offset past the end of the image.
	_, _, err = c.SyncShardChunk("", 0, entries[0].Hash, uint64(entries[0].Size)+1, 0)
	var re *proto.RemoteError
	if !errors.As(err, &re) || re.Code != proto.ErrCodeBadFrame {
		t.Fatalf("offset past image: %v", err)
	}
	// Shard index out of range.
	if _, _, err = c.SyncShardChunk("", 99, entries[0].Hash, 0, 0); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	// The stream survived both refusals.
	if err := c.Ping([]byte("still alive")); err != nil {
		t.Fatal(err)
	}
}

// TestStatsRole checks the replica role surfaces in Stats.
func TestStatsRole(t *testing.T) {
	db := newTestDB(t, 4)
	defer db.Close()
	srv := New(db, Config{ReadOnly: true})
	defer srv.Close()
	if st := srv.Stats(); st.Role != "replica" {
		t.Fatalf("role = %q, want replica", st.Role)
	}
}
