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
	"slices"
	"strings"

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

// Image names one committed shard image file: its size and SHA-256. The
// hash is the image's whole identity — its file name, its address on
// the wire, and what a replica compares.
type Image struct {
	Size int64
	Hash [32]byte
}

// ShardImage is what the durable layer last committed for one shard of a
// cell: the image, and the shard version it was rendered at. OK is false
// until this cell's own image for the shard has landed in a committed
// manifest; Store.ShardVersion(i) == Version then means the on-disk
// image is current.
type ShardImage struct {
	Image   Image
	Version uint64
	OK      bool
}

// Cell is one keyspace's store — the (data dictionary, expiry index)
// pair, sharded — plus the committed images the durable layer keeps per
// shard. The default keyspace is the cell named ""; every other cell is
// a tenant's, routed under its derived seed.
type Cell struct {
	// Name is the tenant name ("": the default keyspace). It is wire
	// and manifest state only — never part of a file name or an image
	// byte. The routing seed that addresses the cell's files is the
	// store's RoutingSeed().
	Name string
	// Store holds the keyspace's contents.
	Store *shard.Store
	// Images[i] is shard i's committed image. The record belongs to this
	// cell, not to its name: a tenant recreated after a drop starts with
	// none, so the dropped incarnation's manifest entry — filed under
	// the same name — can never be taken for its own. Owned by the
	// durable layer's checkpoint lock.
	Images []ShardImage
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
	return &Cell{Name: name, Store: st, Images: make([]ShardImage, st.NumShards())}, nil
}

// Set is an immutable snapshot of a database's live keyspaces: the
// default keyspace's cell first, then the tenants' byte-sorted by name —
// canonical, never creation order, so nothing about the order tenants
// arrived in is observable anywhere a listing flows. A Set is never
// modified once built, so any number of readers may hold one while With
// and Without derive its successors.
type Set struct {
	cells  []*Cell
	byName map[string]*Cell
}

// NewSet returns the set holding cells: the default keyspace's cell
// first, then the tenants' in any order. It keeps (and sorts) the slice.
func NewSet(cells []*Cell) *Set {
	slices.SortFunc(cells[1:], func(a, b *Cell) int { return strings.Compare(a.Name, b.Name) })
	s := &Set{cells: cells, byName: make(map[string]*Cell, len(cells))}
	for _, c := range cells {
		s.byName[c.Name] = c
	}
	return s
}

// Cells returns every cell in canonical order, the default keyspace's
// first. The slice is the snapshot's own and must not be modified.
func (s *Set) Cells() []*Cell { return s.cells }

// Get returns the cell called name ("": the default keyspace), or nil.
func (s *Set) Get(name string) *Cell { return s.byName[name] }

// Intern returns name as a string: the set's own copy when it holds a
// cell called that — so naming an existing tenant allocates nothing —
// and a fresh string otherwise.
func (s *Set) Intern(name []byte) string {
	if c := s.byName[string(name)]; c != nil {
		return c.Name
	}
	return string(name)
}

// With returns the set with tenant cell c added, replacing any cell of
// the same name.
func (s *Set) With(c *Cell) *Set {
	return NewSet(append(s.without(c.Name), c))
}

// Without returns the set with the tenant called name removed. The
// cell's committed files are reclaimed by the next checkpoint's sweep;
// a caller that must undo a drop whose erasure checkpoint failed hands
// the same cell back to With, its committed images intact.
func (s *Set) Without(name string) *Set {
	return NewSet(s.without(name))
}

// without copies the cells except the tenant called name — never the
// default keyspace's, which every set holds — leaving room for one more.
func (s *Set) without(name string) []*Cell {
	out := make([]*Cell, 0, len(s.cells)+1)
	for i, c := range s.cells {
		if i == 0 || c.Name != name {
			out = append(out, c)
		}
	}
	return out
}
