// hidb operates on durable history-independent database directories
// (the antipersist.DB format: one canonical image file per shard plus a
// checksummed MANIFEST; no write-ahead log, ever).
//
// Usage:
//
//	hidb init   -dir D [-shards N] [-seed S]      create an empty database
//	hidb put    -dir D -key K -val V              upsert one key
//	hidb get    -dir D -key K                     look up one key
//	hidb del    -dir D -key K                     delete one key
//	hidb len    -dir D                            key count and shard layout
//	hidb load   -dir D -n N [-seed S]             bulk-load N synthetic keys
//	hidb verify -dir D                            prove the directory is canonical
//
// Every command opens the directory through full recovery (manifest
// checksum, per-shard hashes, structural invariants) and closes it
// through a final checkpoint, so the on-disk state is always a complete
// commit.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	antipersist "repro"
	"repro/internal/xrand"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hidb <init|put|get|del|len|load|verify> -dir DIR [flags]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dir := fs.String("dir", "", "database directory (required)")
	shards := fs.Int("shards", 8, "shard count for a new database (power of two)")
	seed := fs.Uint64("seed", 42, "seed for a new database / synthetic workload")
	key := fs.Int64("key", 0, "key operand")
	val := fs.Int64("val", 0, "value operand")
	n := fs.Int("n", 1<<16, "number of synthetic keys to load")
	fs.Parse(args)
	if *dir == "" {
		usage()
	}

	// Open recovers an existing database and ignores -shards/-seed for
	// it, so init must report which of the two actually happened.
	_, statErr := os.Stat(*dir + "/MANIFEST")
	preexisting := statErr == nil

	switch cmd {
	case "init", "put", "get", "del", "len", "load", "verify":
	default:
		usage()
	}
	// Commands want deterministic on-disk state the moment they exit, so
	// checkpointing stays explicit.
	db, err := antipersist.Open(*dir, &antipersist.DBOptions{Shards: *shards, Seed: *seed, NoBackground: true})
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "init":
		if preexisting {
			fmt.Printf("opened existing %s: %d shards, %d keys (-shards/-seed ignored)\n",
				*dir, db.Store().NumShards(), db.Len())
		} else {
			fmt.Printf("created %s: %d shards, %d keys\n", *dir, db.Store().NumShards(), db.Len())
		}
	case "put":
		inserted := db.Put(*key, *val)
		fmt.Printf("put %d=%d (inserted=%v)\n", *key, *val, inserted)
	case "get":
		v, ok := db.Get(*key)
		if !ok {
			fmt.Printf("%d: not found\n", *key)
		} else {
			fmt.Printf("%d=%d\n", *key, v)
		}
	case "del":
		fmt.Printf("del %d (present=%v)\n", *key, db.Delete(*key))
	case "len":
		s := db.Store()
		fmt.Printf("%d keys in %d shards\n", db.Len(), s.NumShards())
		for i := 0; i < s.NumShards(); i++ {
			fmt.Printf("  shard %2d: %6d keys (version %d)\n", i, s.ShardLen(i), s.ShardVersion(i))
		}
	case "load":
		rng := xrand.New(*seed + 1)
		items := make([]antipersist.Item, *n)
		for i := range items {
			items[i] = antipersist.Item{Key: int64(rng.Intn(4 * *n)), Val: int64(i)}
		}
		t0 := time.Now()
		inserted := db.PutBatch(items)
		loadDur := time.Since(t0)
		t0 = time.Now()
		if err := db.Checkpoint(); err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %d items (%d new) in %v, checkpoint in %v\n",
			*n, inserted, loadDur.Round(time.Millisecond), time.Since(t0).Round(time.Millisecond))
	case "verify":
		if err := db.Checkpoint(); err != nil {
			fatal(err)
		}
		if err := db.VerifyCanonical(); err != nil {
			fatal(err)
		}
		fmt.Printf("canonical: OK (%d keys, %d shards; every image byte is a pure function of contents+seed)\n",
			db.Len(), db.Store().NumShards())
	}

	if err := db.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hidb:", err)
	os.Exit(1)
}
