package durable_test

import (
	"fmt"
	"strings"
	"syscall"
	"testing"

	"repro/internal/durable"
	"repro/internal/foretest"
)

// TestFailedCheckpointOrphanSurvivesNoopRetry: a checkpoint fails after
// publishing an image, and the write it would have committed is undone
// before the retry, so the retry finds nothing to commit. The directory
// must still end up holding exactly the committed checkpoint's files.
//
// With the bug, the nothing-changed return skipped the sweep: the
// orphan shard-…-0004-….img holding v's 8 bytes outlived the retry and
// Close — no commit ever named it, VerifyCanonical passed, and only the
// next Open wiped it. Where the fault hit after the MANIFEST rename, a
// sweep by the in-memory manifest alone would instead wipe the image
// the on-disk MANIFEST names, and the directory would no longer open.
func TestFailedCheckpointOrphanSurvivesNoopRetry(t *testing.T) {
	const secret = int64(0x5EC4E7_0FF1C1A1)
	faults := []struct {
		name string
		kind string
		n    int
	}{
		{"dir fsync before the manifest", "syncdir", 1},
		{"manifest rename", "rename", 2}, // the image's rename is the first
		{"dir fsync after the manifest rename", "syncdir", 2},
	}
	for _, f := range faults {
		for errName, errno := range map[string]syscall.Errno{"EIO": syscall.EIO, "ENOSPC": syscall.ENOSPC} {
			t.Run(fmt.Sprintf("%s/%s", f.name, errName), func(t *testing.T) {
				fs := durable.NewMemFS()
				db, err := durable.Open("db", &durable.Options{Shards: 8, Seed: 3, NoBackground: true, FS: fs})
				if err != nil {
					t.Fatal(err)
				}
				for k := int64(0); k < 1000; k++ {
					db.Put(k, k*7)
				}
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}

				db.Put(5000, secret)
				fs.FailOnce(f.kind, f.n, errno)
				if err := db.Checkpoint(); err == nil {
					t.Fatal("the checkpoint under the fault succeeded")
				}
				db.Delete(5000) // back to the committed contents
				if err := db.Checkpoint(); err != nil {
					t.Fatalf("the retry: %v", err)
				}

				for _, hit := range foretest.ScanDir(t, fs, "db", foretest.Int64Needles("v", secret)) {
					t.Errorf("orphan left by the failed checkpoint: %s", hit)
				}
				names, err := fs.List("db")
				if err != nil {
					t.Fatal(err)
				}
				if len(names) != 9 {
					t.Errorf("directory holds %d files, want MANIFEST and 8 images: %s", len(names), strings.Join(names, " "))
				}
				if err := db.VerifyCanonical(); err != nil {
					t.Error(err)
				}
				// What the next process loads — with the page cache intact, or
				// after a power cut — is the committed checkpoint.
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				for view, vfs := range map[string]*durable.MemFS{"reopen": fs, "power cut": fs.Crash()} {
					re, err := durable.Open("db", &durable.Options{NoBackground: true, FS: vfs})
					if err != nil {
						t.Fatalf("%s: the directory no longer opens: %v", view, err)
					}
					if _, ok := re.Get(5000); ok || re.Len() != 1000 {
						t.Errorf("%s: recovered %d keys, key 5000 present: %v; want the committed 1000", view, re.Len(), ok)
					}
					re.Abandon()
				}
			})
		}
	}
}
