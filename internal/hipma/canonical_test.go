package hipma

import (
	"bytes"
	"testing"

	"repro/internal/xrand"
)

// sortedItems returns n items with strictly increasing keys.
func sortedItems(n int, seed uint64) []Item {
	rng := xrand.New(seed)
	items := make([]Item, n)
	key := int64(0)
	for i := range items {
		key += 1 + int64(rng.Intn(1000))
		items[i] = Item{Key: key, Val: int64(rng.Uint64())}
	}
	return items
}

// checkCanonical is the emitter's oracle: WriteCanonical must write
// byte for byte what a bulk load's WriteTo writes, CanonicalSize must
// be that length, and the bytes must load back into a PMA that passes
// its invariants and re-emits them.
func checkCanonical(t testing.TB, cfg Config, items []Item, seed uint64) {
	t.Helper()
	p, err := BulkLoadWithConfig(cfg, items, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if _, err := p.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	n, err := WriteCanonical(cfg, items, seed, &got)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(got.Len()) {
		t.Fatalf("n=%d seed=%d: WriteCanonical reported %d bytes, wrote %d", len(items), seed, n, got.Len())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("n=%d seed=%d cfg=%+v: emitted image (%d bytes) differs from the bulk load's (%d bytes)",
			len(items), seed, cfg, got.Len(), want.Len())
	}
	if size := CanonicalSize(cfg, len(items), seed); size != n {
		t.Fatalf("n=%d seed=%d: CanonicalSize %d, image is %d bytes", len(items), seed, size, n)
	}
	if size := ImageSize(cfg, p.Nhat()); size != n {
		t.Fatalf("n=%d seed=%d: ImageSize %d, image is %d bytes", len(items), seed, size, n)
	}
	q, err := DecodeImage(got.Bytes(), seed+1, nil)
	if err != nil {
		t.Fatalf("n=%d seed=%d: emitted image does not load: %v", len(items), seed, err)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatalf("n=%d seed=%d: loaded PMA: %v", len(items), seed, err)
	}
	var again bytes.Buffer
	if _, err := q.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), got.Bytes()) {
		t.Fatalf("n=%d seed=%d: image changed across load/store", len(items), seed)
	}
}

// TestWriteCanonicalMatchesBulkLoad sweeps the sizes where the layout
// changes character — empty, the dynamic-array fallback, either side of
// MinTreeNhat, and trees of growing height — under the default and a
// non-default configuration.
func TestWriteCanonicalMatchesBulkLoad(t *testing.T) {
	def := DefaultConfig()
	sizes := []int{0, 1, 2, 3, def.MinTreeNhat - 1, def.MinTreeNhat, def.MinTreeNhat + 1, 1000, 65_000, 200_000}
	seeds := 8
	if testing.Short() {
		sizes, seeds = sizes[:len(sizes)-1], 2
	}
	for _, cfg := range []Config{def, {C1: 0.3, CL: 3.5, MinTreeNhat: 300}} {
		for _, n := range sizes {
			items := sortedItems(n, uint64(n)+3)
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				checkCanonical(t, cfg, items, seed*0x9e3779b97f4a7c15)
			}
		}
	}
}

// TestWriteCanonicalRejectsBadConfig: the emitter validates its
// constants like every other constructor.
func TestWriteCanonicalRejectsBadConfig(t *testing.T) {
	if _, err := WriteCanonical(Config{C1: 2, CL: 2, MinTreeNhat: 128}, nil, 1, &bytes.Buffer{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func FuzzWriteCanonical(f *testing.F) {
	f.Add(uint16(0), uint64(1), uint8(50), uint8(20))
	f.Add(uint16(127), uint64(2), uint8(50), uint8(20))
	f.Add(uint16(129), uint64(3), uint8(99), uint8(20))
	f.Add(uint16(5000), uint64(4), uint8(10), uint8(45))
	f.Fuzz(func(t *testing.T, n uint16, seed uint64, c1, cl uint8) {
		cfg := Config{
			C1:          float64(1+c1%99) / 100, // (0, 1)
			CL:          2 + float64(cl%40)/10,  // [2, 6)
			MinTreeNhat: 128,
		}
		checkCanonical(t, cfg, sortedItems(int(n), seed^0x5bd1e995), seed)
	})
}

// TestDecodeImageChecksLengthFirst: the header fixes the length, so an
// image that disagrees with it — short, long, or claiming a size its
// bytes cannot back — is rejected before anything is allocated.
func TestDecodeImageChecksLengthFirst(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteCanonical(DefaultConfig(), sortedItems(500, 1), 9, &buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := DecodeImage(good[:len(good)-1], 1, nil); err == nil {
		t.Error("short image accepted")
	}
	if _, err := DecodeImage(append(append([]byte(nil), good...), 0), 1, nil); err == nil {
		t.Error("image with a trailing byte accepted")
	}
	// A header claiming 2^40 elements over a few hundred bytes: honouring
	// it would be a 16 TiB slot array, so returning at all is the proof.
	huge := append([]byte(nil), good[:headerLen+64]...)
	huge[32+5], huge[40+5] = 1, 1 // n and nhat each gain 2^40
	if _, err := DecodeImage(huge, 1, nil); err == nil {
		t.Error("hostile header accepted")
	}
	if _, err := ReadImage(bytes.NewReader(huge), 1, nil); err == nil {
		t.Error("hostile header accepted from a stream")
	}
}
