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
	cfg := shard.DefaultConfig(1)
	mk := func(name string) *Cell {
		c, err := NewCell(name, 7, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	root := &Cell{Store: mk("root").Store}
	empty := NewSet([]*Cell{root})
	// Insert in non-sorted order; Cells must come back with the default
	// keyspace first and the tenants byte-sorted, independent of creation
	// order (LISTNS canonical-order contract).
	s := empty
	for _, name := range []string{"zeta", "alpha", "mid"} {
		s = s.With(mk(name))
	}
	got := s.Cells()
	want := []string{"", "alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("set has %d cells, want %d", len(got), len(want))
	}
	for i, c := range got {
		if c.Name != want[i] {
			t.Fatalf("cell %d is %q, want order %q", i, c.Name, want)
		}
	}
	if s.Get("") != root || got[0] != root {
		t.Error("the default keyspace's cell is not first and named \"\"")
	}

	// A set is a snapshot: its predecessors are untouched by With and
	// Without, and replacing a name keeps one cell under it.
	if len(empty.Cells()) != 1 || empty.Get("alpha") != nil {
		t.Error("With modified the set it was derived from")
	}
	alpha := s.Get("alpha")
	if again := s.With(alpha); len(again.Cells()) != 4 || again.Get("alpha") != alpha {
		t.Error("With of an existing name did not replace in place")
	}
	// Naming a live tenant by its bytes costs no string; an absent one
	// still gets its name.
	name := []byte("alpha")
	if n := testing.AllocsPerRun(100, func() {
		if s.Intern(name) != "alpha" {
			t.Error("Intern of a live tenant's name returned another string")
		}
	}); n != 0 {
		t.Errorf("Intern of a live tenant's name allocates %v times", n)
	}
	if got := s.Intern([]byte("nobody")); got != "nobody" {
		t.Errorf("Intern of an absent tenant's name = %q", got)
	}
	dropped := s.Without("alpha")
	if dropped.Get("alpha") != nil || len(dropped.Cells()) != 3 {
		t.Error("dropped cell still resolvable")
	}
	if s.Get("alpha") != alpha || len(s.Cells()) != 4 {
		t.Error("Without modified the set it was derived from")
	}
	if again := dropped.Without("alpha"); len(again.Cells()) != 3 {
		t.Error("dropping an absent tenant changed the set")
	}
	if keep := dropped.Without(""); keep.Get("") != root {
		t.Error("the default keyspace's cell was dropped")
	}
	if back := dropped.With(alpha); back.Get("alpha") != alpha || back.Cells()[1] != alpha {
		t.Error("undoing a drop did not restore the same cell in canonical position")
	}
}
