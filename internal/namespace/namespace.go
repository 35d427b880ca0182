// Package namespace provides the multi-tenant layer's cell model: each
// tenant gets its own (dictionary, expiry-index) store — a cell —
// routed under a seed derived one-way from the database's persisted
// routing seed and the tenant's name.
//
// The derivation is the tenant-granularity version of the paper's
// anti-persistence argument. Because a cell's canonical images are a
// pure function of (cell contents, derived seed), and the derived seed
// is a pure function of (root seed, tenant name):
//
//   - two databases with the same root seed and the same per-tenant
//     contents commit byte-identical directories, whatever tenant
//     creation/write/drop histories produced them;
//   - a dropped tenant's cell files are exactly a set the next
//     checkpoint no longer references, so the standard sweep wipes
//     them and the directory becomes byte-identical to one where the
//     tenant never existed;
//   - tenants cannot correlate each other's layout: the derivation is
//     HMAC-SHA256, so no tenant can compute (or verify a guess of)
//     another tenant's routing seed from its own.
//
// The derived seed — not the name — addresses the cell's files on
// disk, so tenant names never appear in the directory listing; the
// only place a name is persisted is the manifest, which the drop
// checkpoint atomically replaces.
package namespace

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/expiry"
	"repro/internal/shard"
)

// MaxName bounds tenant-name length in bytes. It keeps names inside
// one wire frame alongside their payload and bounds manifest growth.
const MaxName = 128

// derivationSalt versions the seed derivation: changing the scheme
// means changing the salt, so old and new derivations can never
// silently collide.
const derivationSalt = "hidb/ns/v1"

// ValidateName reports whether name is a legal tenant name: 1 to
// MaxName bytes, no NUL (NUL would let a name embed the file-blob
// separators forensic scans rely on, and no legitimate tenant name
// contains it).
func ValidateName(name string) error {
	if len(name) == 0 {
		return fmt.Errorf("namespace: empty name")
	}
	if len(name) > MaxName {
		return fmt.Errorf("namespace: name is %d bytes, max %d", len(name), MaxName)
	}
	if strings.IndexByte(name, 0) >= 0 {
		return fmt.Errorf("namespace: name contains NUL")
	}
	return nil
}

// DeriveSeed derives the tenant's store-construction seed from the
// database's persisted routing seed and the tenant name, HKDF-style:
// extract a PRK from the root seed under a fixed salt, then expand it
// with the tenant name. The output is uniform in the name and one-way
// in both inputs: the seed reveals neither the root seed nor anything
// about other tenants' seeds.
func DeriveSeed(rootHseed uint64, name string) uint64 {
	var root [8]byte
	binary.BigEndian.PutUint64(root[:], rootHseed)
	ext := hmac.New(sha256.New, []byte(derivationSalt))
	ext.Write(root[:])
	prk := ext.Sum(nil)
	exp := hmac.New(sha256.New, prk)
	exp.Write([]byte(name))
	exp.Write([]byte{0x01})
	okm := exp.Sum(nil)
	return binary.BigEndian.Uint64(okm[:8])
}

// Cell is one keyspace's store — the (data dictionary, expiry index)
// pair, sharded — plus the checkpoint bookkeeping the durable layer
// keeps per cell. The default keyspace is the cell named ""; every
// other cell is a tenant's, routed under its derived seed.
type Cell struct {
	// Name is the tenant name ("": the default keyspace). It is wire
	// and manifest state only — never part of a file name or an image
	// byte. The routing seed that addresses the cell's files is the
	// store's RoutingSeed().
	Name string
	// Store holds the keyspace's contents.
	Store *shard.Store
	// CPVersions[i] is shard i's version counter at the moment its
	// committed image was snapshotted (nil: never committed);
	// Store.ShardVersion(i) == CPVersions[i] means the on-disk image is
	// current. Owned by the durable layer's checkpoint lock.
	CPVersions []uint64
	// Committed records whether THIS cell incarnation's entry has ever
	// landed in a committed manifest. The checkpoint engine may reuse a
	// prior manifest entry for a version-clean shard only when it is
	// set: a freshly (re)created cell shares its name — and therefore
	// its manifest slot — with any dropped predecessor, and its zeroed
	// version floors would otherwise match the predecessor's entry and
	// resurrect dropped data. Owned by the durable layer's checkpoint
	// lock.
	Committed bool
}

// MarkCommitted records that the cell's entry just landed in a
// committed manifest with every shard image current: the version
// floors are set to the shards' present versions. The caller holds the
// durable layer's checkpoint lock, or has not yet published the cell.
func (c *Cell) MarkCommitted() {
	c.Committed = true
	c.CPVersions = make([]uint64, c.Store.NumShards())
	for i := range c.CPVersions {
		c.CPVersions[i] = c.Store.ShardVersion(i)
	}
}

// PhysicalLen returns the number of entries physically resident in the
// cell, dead-but-unswept ones included — what a checkpoint would
// commit, as opposed to what a read would see.
func (c *Cell) PhysicalLen() int {
	n := 0
	for i := 0; i < c.Store.NumShards(); i++ {
		n += c.Store.ShardLen(i)
	}
	return n
}

// NewCell builds an empty cell for name under the given root routing
// seed, mirroring the default store's shard count and dictionary
// constants so per-tenant images stay structurally canonical.
func NewCell(name string, rootHseed uint64, cfg shard.Config, clock expiry.Clock) (*Cell, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	st, err := shard.NewWithConfig(cfg, DeriveSeed(rootHseed, name), nil)
	if err != nil {
		return nil, fmt.Errorf("namespace: cell %q: %w", name, err)
	}
	st.SetClock(clock)
	return &Cell{Name: name, Store: st}, nil
}

// Registry is the live set of cells, keyed by tenant name. All methods
// are safe for concurrent use. Listing order is always byte-sorted by
// name — canonical, never creation order, so nothing about the order
// tenants arrived in is observable anywhere a listing flows.
type Registry struct {
	mu    sync.RWMutex
	cells map[string]*Cell
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{cells: map[string]*Cell{}}
}

// Get returns the named cell, or nil.
func (r *Registry) Get(name string) *Cell {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cells[name]
}

// GetOrCreate returns the named cell, building it with mk under the
// write lock if absent. Exactly one builder runs per missing name.
func (r *Registry) GetOrCreate(name string, mk func() (*Cell, error)) (*Cell, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.cells[name]; c != nil {
		return c, nil
	}
	c, err := mk()
	if err != nil {
		return nil, err
	}
	r.cells[name] = c
	return c, nil
}

// Put installs (or replaces) a cell — the undo of a Take.
func (r *Registry) Put(c *Cell) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells[c.Name] = c
}

// Take removes and returns the named cell (nil if absent). The cell's
// committed files are reclaimed by the next checkpoint's sweep; the
// registry owns only the in-memory state. A caller that must undo a
// drop whose erasure checkpoint failed hands the same cell back to
// Put, CPVersions and committed-state bookkeeping intact.
func (r *Registry) Take(name string) *Cell {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.cells[name]
	delete(r.cells, name)
	return c
}

// Len returns the number of live cells.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.cells)
}

// Snapshot returns the cells byte-sorted by name.
func (r *Registry) Snapshot() []*Cell {
	r.mu.RLock()
	out := make([]*Cell, 0, len(r.cells))
	for _, c := range r.cells {
		out = append(out, c)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ReplaceAll swaps the entire cell set — the checkpoint-install path,
// where a replica adopts the primary's committed tenant set wholesale.
func (r *Registry) ReplaceAll(cells []*Cell) {
	next := make(map[string]*Cell, len(cells))
	for _, c := range cells {
		next[c.Name] = c
	}
	r.mu.Lock()
	r.cells = next
	r.mu.Unlock()
}
