package main

import (
	"testing"

	"repro/internal/durable"
)

func TestCountingFS(t *testing.T) {
	fs := newCountingFS(durable.NewMemFS())
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("d/a", "d/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	w, err := fs.OpenWrite("d/b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before := fs.counts()
	if err := fs.Remove("d/b"); err != nil {
		t.Fatal(err)
	}
	want := fsCounts{BytesWritten: 8, Syncs: 2, Renames: 1, Removes: 1}
	if got := fs.counts(); got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
	if d := fs.counts().sub(before); d != (fsCounts{Removes: 1}) {
		t.Fatalf("delta = %+v, want one remove", d)
	}
}

// A real checkpoint through the wrapper must count what MemFS saw.
func TestCountingFSUnderDB(t *testing.T) {
	mem := durable.NewMemFS()
	fs := newCountingFS(mem)
	db, err := durable.Open("db", &durable.Options{Shards: 2, NoBackground: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 100; k++ {
		db.Put(k, k)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Abandon()
	got, ops := fs.counts(), mem.OpCounts()
	if int(got.Syncs) != ops["sync"]+ops["syncdir"] || int(got.Renames) != ops["rename"] || int(got.Removes) != ops["remove"] {
		t.Fatalf("wrapper %+v disagrees with MemFS %v", got, ops)
	}
	if got.BytesWritten == 0 {
		t.Fatal("no bytes counted for a checkpoint")
	}
}
