package replica

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/durable"
	"repro/internal/proto"
)

// serveLyingPrimary answers one connection the way a hostile or broken
// primary might: a checkpoint stamp that never matches, a shard table
// whose every image claims to be 2^62 bytes, and a few bytes of junk
// for any SYNC fetch.
func serveLyingPrimary(nc net.Conn, shards int) {
	defer nc.Close()
	fr := proto.NewFrameReader(nc, proto.MaxPayload)
	for {
		f, err := fr.Next()
		if err != nil {
			return
		}
		var payload []byte
		switch f.Op {
		case proto.OpHealth:
			payload = proto.AppendHealth(nil, proto.Health{Epoch: 1, Hash: [32]byte{1}})
		case proto.OpShardHash:
			entries := make([]proto.ShardHash, shards)
			for i := range entries {
				entries[i] = proto.ShardHash{Size: 1 << 62, Hash: [32]byte{byte(i + 1)}}
			}
			payload = proto.AppendShardHashes(nil, 99, entries, nil)
		case proto.OpSync:
			payload = proto.AppendSyncChunk(nil, false, []byte("not an image"))
		}
		reply := proto.AppendFrame(nil, proto.Frame{Ver: f.Ver, Op: f.Op | proto.FlagReply, ID: f.ID, Payload: payload})
		if _, err := nc.Write(reply); err != nil {
			return
		}
	}
}

// TestLyingPrimaryCannotCrashReplica: the advertised image size is the
// peer's word, and the fetch path must not reserve memory on it. A
// primary advertising 2^62-byte images gets an ordinary failed round —
// an error, the verify-failure and error counters bumped, the local
// directory untouched — not a makeslice panic.
func TestLyingPrimaryCannotCrashReplica(t *testing.T) {
	const shards = 4
	r := newNode(t, durable.NewMemFS(), 5, shards, true)
	defer r.close()
	before := dirBytes(t, r.fs)

	rep, err := New(r.db, Config{Dial: func() (net.Conn, error) {
		cliEnd, srvEnd := net.Pipe()
		go serveLyingPrimary(srvEnd, shards)
		return cliEnd, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	sum, err := rep.SyncOnce()
	if err == nil {
		t.Fatalf("SyncOnce against a lying primary succeeded: %+v", sum)
	}
	if sum.Installed {
		t.Fatal("a round against a lying primary installed a checkpoint")
	}
	if got := rep.m.verifyFails.Value(); got != 1 {
		t.Errorf("verify failures = %d, want 1", got)
	}
	if got := rep.Stats().Errors; got != 1 {
		t.Errorf("round errors = %d, want 1", got)
	}
	after := dirBytes(t, r.fs)
	if len(after) != len(before) {
		t.Fatalf("directory went from %d files to %d", len(before), len(after))
	}
	for name, data := range before {
		if !bytes.Equal(after[name], data) {
			t.Fatalf("file %s changed across a failed round", name)
		}
	}
}
