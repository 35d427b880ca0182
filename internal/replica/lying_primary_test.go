package replica

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"net"
	"testing"

	"repro/internal/durable"
	"repro/internal/proto"
)

// lyingManifest is a well-formed manifest (docs: internal/durable
// manifest.go) whose every image claims to be 2^62 bytes.
func lyingManifest(shards int) []byte {
	b := []byte("HIDBMF03")
	b = binary.LittleEndian.AppendUint64(b, uint64(shards))
	b = binary.LittleEndian.AppendUint64(b, 99) // root routing seed
	b = binary.LittleEndian.AppendUint64(b, 1)  // one cell: the default keyspace,
	b = binary.LittleEndian.AppendUint64(b, 0)  // whose name is empty
	for i := 0; i < shards; i++ {
		b = binary.LittleEndian.AppendUint64(b, 1<<62)
		b = append(b, make([]byte, 31)...)
		b = append(b, byte(i+1))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// serveLyingPrimary answers one connection the way a hostile or broken
// primary might: a checkpoint stamp that never matches, an honestly
// served manifest whose every image claims to be 2^62 bytes, and a few
// bytes of junk for any image fetch.
func serveLyingPrimary(nc net.Conn, shards int) {
	defer nc.Close()
	man := lyingManifest(shards)
	fr := proto.NewFrameReader(nc, proto.MaxPayload)
	for {
		f, err := fr.Next()
		if err != nil {
			return
		}
		var payload []byte
		switch f.Op {
		case proto.OpHealth:
			payload = proto.AppendHealth(nil, proto.Health{Epoch: 1, Hash: sha256.Sum256(man)})
		case proto.OpSync:
			payload = proto.AppendSyncChunk(nil, false, []byte("not an image"))
			if hash, off, _, err := proto.DecodeSyncReq(f.Payload); err == nil && hash == sha256.Sum256(man) {
				payload = proto.AppendSyncChunk(nil, false, man[off:])
			}
		}
		reply := proto.AppendFrame(nil, proto.Frame{Ver: f.Ver, Op: f.Op | proto.FlagReply, ID: f.ID, Payload: payload})
		if _, err := nc.Write(reply); err != nil {
			return
		}
	}
}

// TestLyingPrimaryCannotCrashReplica: an image's size is the peer's
// word even inside a manifest that verifies, and neither the fetch path
// nor the local-file check may reserve memory on it. A primary whose
// manifest names 2^62-byte images gets an ordinary failed round —
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
