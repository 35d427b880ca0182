package durable

import "testing"

// TestCarryOverNeedsSameSeedAndCurrentVersions: Install keeps a live
// cell instead of decoding it again only when that cell already is what
// the new checkpoint says — and equal image hashes alone do not make it
// so.
//
// With the bug, an all-empty root whose images happen to be the same
// bytes under a foreign routing seed was kept, so the replica went on
// routing keys under its own seed rather than the primary's; and a
// tenant written locally on the replica since its last install was
// kept with the local write in it, so the install was no longer the
// primary's checkpoint.
func TestCarryOverNeedsSameSeedAndCurrentVersions(t *testing.T) {
	t.Run("foreign seed", func(t *testing.T) {
		p := openMem(t, NewMemFS(), "p", 7)
		defer p.Close()
		r := openMemReplica(t, NewMemFS(), "r", 99)
		defer r.Close()
		for i, e := range p.man.cells[0].shards {
			if e != r.man.cells[0].shards[i] {
				t.Fatalf("empty shard %d renders differently under the two seeds: the case this test is for does not arise", i)
			}
		}
		if err := r.Install(committedManifest(t, p), blobsOf(p)); err != nil {
			t.Fatal(err)
		}
		if got, want := r.Store().RoutingSeed(), p.Store().RoutingSeed(); got != want {
			t.Fatalf("after the install the replica routes under %#x, the primary under %#x", got, want)
		}
	})

	t.Run("local write", func(t *testing.T) {
		pfs, rfs := NewMemFS(), NewMemFS()
		p := openMem(t, pfs, "db", 7)
		defer p.Close()
		r := openMemReplica(t, rfs, "db", 99)
		defer r.Close()
		for k := int64(0); k < 500; k++ {
			p.Put(k, k)
		}
		if _, err := p.NSPut("acme", 1, 10); err != nil {
			t.Fatal(err)
		}
		install := func() {
			t.Helper()
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := r.Install(committedManifest(t, p), blobsOf(p)); err != nil {
				t.Fatal(err)
			}
		}
		install()

		// An unchanged tenant is carried over: the same cell, not a copy.
		acme := r.cell("acme")
		p.Put(1_000_001, 1)
		install()
		if r.cell("acme") != acme {
			t.Fatal("an install that left the tenant unchanged decoded it again")
		}

		// A local write moves the tenant's version but not its committed
		// images: the next install must replace it all the same.
		if _, err := r.NSPut("acme", 77, 7); err != nil {
			t.Fatal(err)
		}
		p.Put(1_000_002, 1)
		install()
		if _, ok := r.NSGet("acme", 77); ok {
			t.Fatal("a key written locally on the replica survived the install of a checkpoint without it")
		}
		if err := r.VerifyCanonical(); err != nil {
			t.Fatal(err)
		}
		sameDir(t, dirBytes(t, pfs, "db"), dirBytes(t, rfs, "db"))
	})
}
