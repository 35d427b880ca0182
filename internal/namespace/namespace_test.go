package namespace

import (
	"strings"
	"testing"

	"repro/internal/expiry"
	"repro/internal/shard"
)

func TestValidateName(t *testing.T) {
	for _, ok := range []string{"a", "tenant-01", "acme/eu", strings.Repeat("x", MaxName)} {
		if err := ValidateName(ok); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", strings.Repeat("x", MaxName+1), "nul\x00byte"} {
		if err := ValidateName(bad); err == nil {
			t.Errorf("ValidateName(%q) accepted", bad)
		}
	}
}

func TestDeriveSeedDeterministicAndDistinct(t *testing.T) {
	const root = uint64(0xfeedface)
	if DeriveSeed(root, "acme") != DeriveSeed(root, "acme") {
		t.Fatal("derivation is not deterministic")
	}
	seen := map[uint64]string{}
	for _, name := range []string{"acme", "acme2", "acm", "a", "b", "tenant-00", "tenant-01"} {
		s := DeriveSeed(root, name)
		if prev, dup := seen[s]; dup {
			t.Fatalf("tenants %q and %q derive the same seed", prev, name)
		}
		seen[s] = name
	}
	// A different root seed must shift every tenant's seed: layouts are
	// not portable across databases.
	for _, name := range []string{"acme", "tenant-00"} {
		if DeriveSeed(root, name) == DeriveSeed(root+1, name) {
			t.Errorf("tenant %q derives the same seed under different roots", name)
		}
	}
}

func TestNewCellMirrorsConfigAndRoutesUnderDerivedSeed(t *testing.T) {
	cfg := shard.DefaultConfig(4)
	clock := expiry.NewManual(100)
	c, err := NewCell("acme", 42, cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	if c.Store.NumShards() != 4 {
		t.Errorf("cell has %d shards, want 4", c.Store.NumShards())
	}
	if c.Store.Clock() != clock {
		t.Error("cell store did not adopt the clock")
	}
	// The cell's routing seed must be a pure function of the derived
	// seed: an independently built store under the same derived seed
	// routes identically.
	ref, err := shard.NewWithConfig(cfg, DeriveSeed(42, "acme"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Store.RoutingSeed() != ref.RoutingSeed() {
		t.Error("cell routing seed is not a pure function of the derived seed")
	}
	// And two tenants must not share a routing seed (uncorrelated layouts).
	other, err := NewCell("globex", 42, cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	if other.Store.RoutingSeed() == c.Store.RoutingSeed() {
		t.Error("two tenants share a routing seed")
	}

	if _, err := NewCell("", 42, cfg, clock); err == nil {
		t.Error("NewCell accepted an empty name")
	}
}

func TestRegistryCanonicalOrderAndDrop(t *testing.T) {
	r := NewRegistry()
	cfg := shard.DefaultConfig(1)
	mk := func(name string) func() (*Cell, error) {
		return func() (*Cell, error) { return NewCell(name, 7, cfg, nil) }
	}
	// Insert in non-sorted order; Snapshot must come back byte-sorted,
	// independent of creation order (LISTNS canonical-order contract).
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := r.GetOrCreate(name, mk(name)); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Snapshot()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d cells, want %d", len(got), len(want))
	}
	for i, c := range got {
		if c.Name != want[i] {
			t.Fatalf("snapshot order %v, want %v", got, want)
		}
	}

	c1, _ := r.GetOrCreate("alpha", mk("alpha"))
	c2 := r.Get("alpha")
	if c1 != c2 {
		t.Error("GetOrCreate did not return the existing cell")
	}
	if r.Take("alpha") == nil || r.Take("alpha") != nil {
		t.Error("Drop existence reporting is wrong")
	}
	if r.Get("alpha") != nil {
		t.Error("dropped cell still resolvable")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}

	r.ReplaceAll(nil)
	if r.Len() != 0 {
		t.Error("ReplaceAll(nil) did not empty the registry")
	}
}
