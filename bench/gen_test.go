package main

import (
	"reflect"
	"testing"

	antipersist "repro"
	"repro/internal/server"
)

// Every workload at -check size, gated and traced.
func testConfigs(seed uint64) (out []config) {
	for _, w := range workloads {
		out = append(out, newConfig(w.name, seed, runSeconds, 100, 100), newConfig(w.name, seed, runSeconds, 100, 1000))
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for i, cfg := range testConfigs(7) {
		a := streamHash(cfg.generator(), cfg.plan())
		if b := streamHash(cfg.generator(), cfg.plan()); a != b {
			t.Errorf("%s: two generations from seed 7 differ", cfg.workload)
		}
		other := testConfigs(8)[i]
		if c := streamHash(other.generator(), other.plan()); a == c {
			t.Errorf("%s: seeds 7 and 8 give the same op stream", cfg.workload)
		}
	}
}

// The model is only exact if no two concurrent workers ever touch the
// same key: worker w must stay inside partition w, in every key space.
func TestWorkerPartitionsDisjoint(t *testing.T) {
	for _, name := range []string{"net_read", "net_write"} {
		cfg := newConfig(name, 3, runSeconds, 100, 100)
		g := cfg.generator()
		spec := cfg.plan()[0]
		if spec.workers != partitions {
			t.Fatalf("%s: saturated phase has %d workers, want %d", name, spec.workers, partitions)
		}
		owner := map[[2]uint32]int{}
		for w, s := range g.chunk(spec, 0, nil) {
			if len(s) == 0 {
				t.Fatalf("%s: worker %d has no ops", name, w)
			}
			for _, o := range s {
				if int(o.idx)%partitions != w {
					t.Fatalf("%s: worker %d drew index %d of partition %d", name, w, o.idx, o.idx%partitions)
				}
				k := [2]uint32{uint32(o.ks), o.idx}
				if prev, seen := owner[k]; seen && prev != w {
					t.Fatalf("%s: key space %d index %d used by workers %d and %d", name, o.ks, o.idx, prev, w)
				}
				owner[k] = w
			}
		}
	}
}

// The lists a stream picks live and dead keys from must track the
// model through every put and delete.
func TestModelListsStayConsistent(t *testing.T) {
	cfg := newConfig("net_write", 5, runSeconds, 100, 100)
	g := cfg.generator()
	for n, spec := range cfg.plan() {
		g.chunk(spec, n, nil)
	}
	for ksi, k := range g.ks {
		live := 0
		for p := range k.lists {
			for state, list := range k.lists[p] {
				for pos, idx := range list {
					if k.live[idx] != (state == 1) || int(k.pos[idx]) != pos || int(idx)%partitions != p {
						t.Fatalf("key space %d: index %d misfiled in partition %d list %d at %d", ksi, idx, p, state, pos)
					}
				}
			}
			live += len(k.lists[p][1])
		}
		if live != k.liveKeys {
			t.Fatalf("key space %d: lists hold %d live keys, count says %d", ksi, live, k.liveKeys)
		}
	}
}

// The program under test must see generated ops only. Its whole
// configuration is built by dbOptions and serverConfig, which take no
// argument: no seed and no workload name can reach it.
func TestProgramConfigCarriesNoSeedOrWorkload(t *testing.T) {
	e := &env{dir: t.TempDir(), fs: newCountingFS(nil)}
	norm := func(o *antipersist.DBOptions) antipersist.DBOptions {
		c := *o
		c.Clock = nil // a fresh Manual clock each time, always at clockEpoch
		return c
	}
	if oa, ob := norm(e.dbOptions()), norm(e.dbOptions()); !reflect.DeepEqual(oa, ob) {
		t.Fatalf("store options differ between two calls: %+v against %+v", oa, ob)
	}
	if o := norm(e.dbOptions()); o.Seed != dbSeed || o.Shards != dbShards || !o.NoBackground || o.Metrics != nil {
		t.Fatalf("store options %+v: want the constants, no background checkpointer, no metrics", o)
	}
	if got := e.dbOptions().Clock.Now(); got != clockEpoch {
		t.Fatalf("store clock at %d, want the constant %d", got, clockEpoch)
	}
	if !reflect.DeepEqual(serverConfig, server.Config{SweepInterval: -1}) {
		t.Fatalf("server config %+v: want only the sweeper switched off", serverConfig)
	}
}
