package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/expiry"
)

// FuzzDecodeManifest: manifests arrive from the network now, so the
// decoder must take any bytes without panicking or allocating on a
// count's word, and must accept canonical encodings only — whatever it
// accepts re-encodes to the identical bytes, so a manifest's hash names
// one checkpoint and an installed manifest is the file Open will read.
func FuzzDecodeManifest(f *testing.F) {
	fs := NewMemFS()
	db, err := Open("db", &Options{Shards: 4, Seed: 20160626, NoBackground: true, FS: fs, Clock: expiry.NewManual(1000)})
	if err != nil {
		f.Fatal(err)
	}
	goldenLoad(f, db)
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	golden := db.manBytes
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	// A header that lies about both counts, under a correct checksum.
	lying := append([]byte(nil), golden[:len(golden)-4]...)
	binary.LittleEndian.PutUint64(lying[8:], maxManifestShards)
	binary.LittleEndian.PutUint64(lying[24:], maxManifestCells)
	f.Add(binary.LittleEndian.AppendUint32(lying, crc32.ChecksumIEEE(lying)))

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeManifest(b)
		if err != nil {
			return
		}
		if got := m.encode(); !bytes.Equal(got, b) {
			t.Fatalf("accepted a %d-byte manifest that re-encodes to %d different bytes", len(b), len(got))
		}
	})
}

// TestDecodeManifestBoundsCounts: a count the remaining bytes cannot
// hold is refused before anything is sized by it (the decoder used to
// reserve 2.6 MB for this input's cell table, then find it truncated).
func TestDecodeManifestBoundsCounts(t *testing.T) {
	body := append([]byte(manifestMagic), make([]byte, 24+48)...)
	binary.LittleEndian.PutUint64(body[8:], 1)                 // one shard: 48 bytes per cell
	binary.LittleEndian.PutUint64(body[24:], maxManifestCells) // in bytes that hold one
	b := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := decodeManifest(b); err == nil {
		t.Fatal("manifest claiming 65536 cells in 48 bytes accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("refusing a lying cell count allocated %d bytes", got)
	}
}
