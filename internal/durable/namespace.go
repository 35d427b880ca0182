package durable

// Namespace surface: per-tenant cells beside the default keyspace, each
// routed under a seed derived one-way from the database's routing seed
// and the tenant name. A tenant's cell is the same type as the default
// keyspace's and goes through the same engine loops — canonical
// images, seed-and-content-addressed file names, one manifest commit
// point — so the paper's guarantee lifts from keys to whole tenants:
// after DropNamespace + Checkpoint, the directory is byte-identical to
// one where the tenant never existed. Every NS method also accepts ""
// and then addresses the default keyspace.

import (
	"repro/internal/namespace"
	"repro/internal/shard"
)

// NamespaceStat is one live namespace in a listing: the tenant name
// and its live key count. Listings are always byte-sorted by name.
type NamespaceStat struct {
	Name string
	Keys int
}

// cellOrCreate returns the cell called ns, creating a tenant's
// (mirroring the default keyspace's shard count and dictionary
// constants) if it does not exist yet.
func (db *DB) cellOrCreate(ns string) (*namespace.Cell, error) {
	if c := db.cell(ns); c != nil {
		return c, nil
	}
	db.liveMu.Lock()
	defer db.liveMu.Unlock()
	live := db.live.Load()
	if c := live.Get(ns); c != nil {
		return c, nil
	}
	s := live.Cells()[0].Store
	cfg := shard.Config{Shards: s.NumShards(), PMA: s.PMAConfig()}
	c, err := namespace.NewCell(ns, s.RoutingSeed(), cfg, db.opts.Clock)
	if err != nil {
		return nil, err
	}
	db.live.Store(live.With(c))
	return c, nil
}

// InternNS returns the tenant name spelled by the bytes of name as a
// string, without allocating when that tenant is live: the server names
// a tenant once per request, and almost always one that exists.
func (db *DB) InternNS(name []byte) string { return db.live.Load().Intern(name) }

// takeCell removes the tenant called ns from the live set and returns
// its cell (nil if absent; the default keyspace is no tenant).
func (db *DB) takeCell(ns string) *namespace.Cell {
	if ns == "" {
		return nil
	}
	db.liveMu.Lock()
	defer db.liveMu.Unlock()
	live := db.live.Load()
	c := live.Get(ns)
	if c != nil {
		db.live.Store(live.Without(ns))
	}
	return c
}

// putCell is takeCell's undo: c is live again, its committed images
// intact.
func (db *DB) putCell(c *namespace.Cell) {
	db.liveMu.Lock()
	defer db.liveMu.Unlock()
	db.live.Store(db.live.Load().With(c))
}

// NSPut upserts key in the named tenant's cell, creating the cell on
// first write, and reports whether the key was newly inserted.
func (db *DB) NSPut(ns string, key, val int64) (bool, error) {
	return db.NSPutTTL(ns, key, val, 0)
}

// NSPutTTL is NSPut with an absolute expiry epoch (0: never expires).
func (db *DB) NSPutTTL(ns string, key, val, exp int64) (bool, error) {
	c, err := db.cellOrCreate(ns)
	if err != nil {
		return false, err
	}
	inserted := c.Store.PutTTL(key, val, exp)
	db.noteDirty(1)
	return inserted, nil
}

// NSGet returns the value for key in the named tenant's cell. A
// missing tenant reads as empty.
func (db *DB) NSGet(ns string, key int64) (int64, bool) {
	val, _, ok := db.NSGetTTL(ns, key)
	return val, ok
}

// NSGetTTL returns the value and recorded expiry for key in the named
// tenant's cell.
func (db *DB) NSGetTTL(ns string, key int64) (val, exp int64, ok bool) {
	if c := db.cell(ns); c != nil {
		return c.Store.GetTTL(key)
	}
	return 0, 0, false
}

// NSHas reports whether the named tenant holds key.
func (db *DB) NSHas(ns string, key int64) bool {
	c := db.cell(ns)
	return c != nil && c.Store.Has(key)
}

// NSDelete removes key from the named tenant's cell and reports
// whether it was present.
func (db *DB) NSDelete(ns string, key int64) bool {
	c := db.cell(ns)
	if c == nil {
		return false
	}
	deleted := c.Store.Delete(key)
	db.noteDirty(1)
	return deleted
}

// NSLen returns the named tenant's live key count (0 if absent).
func (db *DB) NSLen(ns string) int {
	if c := db.cell(ns); c != nil {
		return c.Store.Len()
	}
	return 0
}

// DropNamespace removes the named tenant's cell from the live store
// and reports whether it existed. The erasure completes at the next
// checkpoint: the new manifest omits the tenant, the sweep zero-wipes
// and unlinks its image files, and the manifest rewrite retires the
// only byte surface that ever held the name. Callers that need the
// erasure durable now — and drop-undone-on-failure semantics — use
// DropNamespaceSync instead.
func (db *DB) DropNamespace(ns string) bool {
	existed := db.takeCell(ns) != nil
	if existed {
		db.noteDirty(1)
	}
	return existed
}

// DropNamespaceSync drops the named tenant AND commits the erasure in
// one call: on a true return the new manifest omits the tenant and its
// image files are wiped and unlinked — the erasure is already durable.
// If the checkpoint fails, the cell is restored to the live store
// before the error returns, so a failed drop is not observable (and a
// retry performs the full drop again). If the tenant is absent from
// the live store but the last committed manifest still lists it — a
// prior DropNamespace whose checkpoint was deferred, or failed — the
// erasure is still pending, so a checkpoint is committed and true
// returned: the tenant was durably there, and now it durably is not.
//
// tid/psid carry the trace identity of the DROPNS request that demanded
// the barrier (see CheckpointTraced): the erasure's checkpoint span
// joins trace tid under span psid. Zero ids mean untraced.
//
// Callers must serialize this with writers that could recreate the
// tenant (the server's coalescer does): a cell created between the
// drop and a failing checkpoint's restore would be replaced by the
// restored one.
func (db *DB) DropNamespaceSync(ns string, tid, psid uint64) (bool, error) {
	if db.closed.Load() {
		return false, ErrClosed
	}
	c := db.takeCell(ns)
	if c == nil && !db.nsInManifest(ns) {
		return false, nil
	}
	if err := db.checkpoint(tid, psid); err != nil {
		if c != nil {
			db.putCell(c)
		}
		return false, err
	}
	return true, nil
}

// nsInManifest reports whether the last committed manifest lists ns.
func (db *DB) nsInManifest(ns string) bool {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	return db.man != nil && db.man.cell(ns) != nil
}

// Namespaces lists the live tenants — byte-sorted by name, live key
// counts, cells with no live keys omitted (a created-then-emptied
// tenant is indistinguishable from one that never existed, in listings
// as on disk).
func (db *DB) Namespaces() []NamespaceStat {
	cells := db.cells()[1:]
	out := make([]NamespaceStat, 0, len(cells))
	for _, c := range cells {
		if n := c.Store.Len(); n > 0 {
			out = append(out, NamespaceStat{Name: c.Name, Keys: n})
		}
	}
	return out
}

// NamespaceCount returns the number of live tenants with at least one
// live key.
func (db *DB) NamespaceCount() int { return len(db.Namespaces()) }
