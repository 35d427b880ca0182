package durable

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/shard"
)

// crashOpsA and crashOpsB are two deterministic mutation phases; the
// crash suite checkpoints between them and injects a fault at every
// step of the second checkpoint's commit sequence. Both phases write
// tenants as well as the default keyspace, and phase B empties tenant
// "brief" to zero keys — its cell must leave the manifest and its files
// the directory — so the one checkpoint loop is crash-tested over root
// and tenant cells alike.
func crashOpsA(db *DB) {
	items := make([]Item, 0, 400)
	for k := int64(0); k < 800; k += 2 {
		items = append(items, Item{Key: k, Val: k * 10})
	}
	db.PutBatch(items)
	for k := int64(0); k < 90; k++ {
		db.NSPut("acme", k, k*7) //nolint:errcheck // valid name
		db.NSPut("brief", k, -k) //nolint:errcheck // valid name
	}
}

func crashOpsB(db *DB) {
	for k := int64(0); k < 800; k += 6 {
		db.Delete(k)
	}
	for k := int64(1); k < 400; k += 3 {
		db.Put(k, -k)
	}
	for k := int64(0); k < 90; k++ {
		if k%4 == 0 {
			db.NSDelete("acme", k)
		}
		db.NSDelete("brief", k)
	}
	for k := int64(200); k < 230; k++ {
		db.NSPut("acme", k, k) //nolint:errcheck // valid name
	}
}

// keyspaces is a reference model: keyspace name ("": the default one)
// to contents. A tenant with no keys is absent.
type keyspaces map[string]map[int64]int64

func refA() keyspaces {
	ref := keyspaces{"": {}, "acme": {}, "brief": {}}
	for k := int64(0); k < 800; k += 2 {
		ref[""][k] = k * 10
	}
	for k := int64(0); k < 90; k++ {
		ref["acme"][k] = k * 7
		ref["brief"][k] = -k
	}
	return ref
}

func refB() keyspaces {
	ref := refA()
	for k := int64(0); k < 800; k += 6 {
		delete(ref[""], k)
	}
	for k := int64(1); k < 400; k += 3 {
		ref[""][k] = -k
	}
	for k := int64(0); k < 90; k += 4 {
		delete(ref["acme"], k)
	}
	for k := int64(200); k < 230; k++ {
		ref["acme"][k] = k
	}
	delete(ref, "brief")
	return ref
}

// dumpAll reads db's every keyspace back into a reference model.
func dumpAll(t *testing.T, db *DB) keyspaces {
	t.Helper()
	out := keyspaces{"": dump(t, db)}
	for _, c := range db.cells()[1:] {
		m := map[int64]int64{}
		c.Store.Ascend(func(it Item) bool { m[it.Key] = it.Val; return true })
		if len(m) > 0 {
			out[c.Name] = m
		}
	}
	return out
}

func sameKeyspaces(a, b keyspaces) bool {
	if len(a) != len(b) {
		return false
	}
	for ns, m := range a {
		if bm, ok := b[ns]; !ok || !sameContents(m, bm) {
			return false
		}
	}
	return true
}

// freshLoadSnapshot bulk-loads contents into a brand-new DB with the
// given seed and returns its directory bytes: the canonical on-disk
// form of those contents.
func freshLoadSnapshot(t *testing.T, shards int, seed uint64, contents keyspaces) map[string][]byte {
	t.Helper()
	fs := NewMemFS()
	db, err := Open("db", memOpts(fs, shards, seed))
	if err != nil {
		t.Fatal(err)
	}
	for ns, m := range contents {
		keys := make([]int64, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		ops := make([]shard.Op, 0, len(keys))
		for _, k := range keys {
			ops = append(ops, shard.Op{Key: k, Val: m[k]})
		}
		if _, err := db.NSApplyBatch(ns, ops, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dirSnapshot(t, fs, "db")
}

// TestCrashAtEveryCommitStep is the crash-injection harness the engine
// is specified against: for EVERY filesystem step of a checkpoint's
// commit sequence, fail-and-halt at that step, cut the power, recover,
// and require that
//
//  1. recovery lands on exactly the last complete checkpoint (the old
//     contents if the manifest swap did not commit, the new contents if
//     it did — never a mix, never an error),
//  2. the recovered directory is byte-identical to a fresh bulk load of
//     the same contents (history independence survives crashes), and
//  3. the recovered DB checkpoints cleanly afterwards.
func TestCrashAtEveryCommitStep(t *testing.T) {
	const shards = 8
	const seed = 7

	contentsA, contentsB := refA(), refB()
	wantA := freshLoadSnapshot(t, shards, seed, contentsA)
	wantB := freshLoadSnapshot(t, shards, seed, contentsB)

	// Baseline run: count the steps in the phase-B checkpoint.
	fs := NewMemFS()
	db, err := Open("db", memOpts(fs, shards, seed))
	if err != nil {
		t.Fatal(err)
	}
	crashOpsA(db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crashOpsB(db)
	opsBefore := fs.Ops()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	totalSteps := fs.Ops() - opsBefore
	if totalSteps < 10 {
		t.Fatalf("implausibly short commit sequence: %d steps", totalSteps)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dirSnapshot(t, fs, "db"); !sameSnapshot(got, wantB) {
		t.Fatal("baseline checkpoint is not canonical vs fresh bulk load")
	}

	for step := 1; step <= totalSteps; step++ {
		t.Run(fmt.Sprintf("step%03d", step), func(t *testing.T) {
			fs := NewMemFS()
			db, err := Open("db", memOpts(fs, shards, seed))
			if err != nil {
				t.Fatal(err)
			}
			crashOpsA(db)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			crashOpsB(db)
			fs.FailAfter(step)
			cpErr := db.Checkpoint()

			// Power cut, then recovery on the durable remains.
			crashed := fs.Crash()
			db2, err := Open("db", &Options{Seed: 999, NoBackground: true, FS: crashed})
			if err != nil {
				t.Fatalf("recovery failed after fault at step %d: %v", step, err)
			}
			got := dumpAll(t, db2)
			want, wantDir, label := contentsA, wantA, "pre-checkpoint"
			if cpErr == nil {
				// The commit point was passed (faults can only land in
				// the best-effort sweep): the new state must be durable.
				want, wantDir, label = contentsB, wantB, "post-checkpoint"
			}
			if !sameKeyspaces(got, want) {
				t.Fatalf("fault at step %d: recovered %d default-keyspace keys in %d keyspaces, want the %s contents (%d keys in %d keyspaces)",
					step, len(got[""]), len(got), label, len(want[""]), len(want))
			}
			if err := db2.Store().CheckInvariants(); err != nil {
				t.Fatalf("fault at step %d: recovered store corrupt: %v", step, err)
			}

			// Recovery must also have restored byte-level canonicality:
			// the directory (after Open's debris sweep) must equal a
			// fresh bulk load of the same contents, and the next
			// checkpoint must be a clean no-op on it.
			if err := db2.Checkpoint(); err != nil {
				t.Fatalf("fault at step %d: post-recovery checkpoint: %v", step, err)
			}
			if err := db2.VerifyCanonical(); err != nil {
				t.Fatalf("fault at step %d: %v", step, err)
			}
			if gotDir := dirSnapshot(t, crashed, "db"); !sameSnapshot(gotDir, wantDir) {
				t.Fatalf("fault at step %d: recovered directory diverges from fresh bulk load of %s contents",
					step, label)
			}
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashDuringCreate injects faults into the very first commit (the
// initial empty checkpoint Open performs when creating a database):
// recovery must always land on either "no database" (reopen creates a
// fresh empty one) or a complete empty checkpoint — never an error.
func TestCrashDuringCreate(t *testing.T) {
	// Baseline: count the create sequence's steps.
	fs := NewMemFS()
	if _, err := Open("db", memOpts(fs, 4, 3)); err != nil {
		t.Fatal(err)
	}
	total := fs.Ops()

	for step := 1; step <= total; step++ {
		fs := NewMemFS()
		fs.FailAfter(step)
		if _, err := Open("db", memOpts(fs, 4, 3)); err == nil {
			t.Fatalf("step %d: Open succeeded despite an injected fault", step)
		} else if !errors.Is(err, ErrInjected) {
			t.Fatalf("step %d: Open failed with %v, want an injected fault", step, err)
		}
		crashed := fs.Crash()
		db, err := Open("db", memOpts(crashed, 4, 3))
		if err != nil {
			t.Fatalf("step %d: reopen after crashed create failed: %v", step, err)
		}
		if db.Len() != 0 {
			t.Fatalf("step %d: fresh DB has %d keys", step, db.Len())
		}
		db.Put(1, 1)
		if err := db.Close(); err != nil {
			t.Fatalf("step %d: close after recovery: %v", step, err)
		}
	}
}
