package client

// Namespace operations: per-tenant keyspaces addressed by name. Every
// method mirrors its default-keyspace counterpart scoped to one
// tenant; DropNS is the tenant-erasure barrier — when it returns true,
// the server has already committed a checkpoint with no trace of the
// tenant (see docs/PROTOCOL.md, "Namespaces").

import (
	"errors"

	"repro/internal/proto"
)

// ErrQuota is wrapped into the error an NSPut gets back when the
// tenant is at the server's per-tenant key quota (server code
// ErrCodeQuota). Check it with errors.Is; the connection stays usable.
var ErrQuota = errors.New("client: namespace is at its key quota")

// nsReqMax is the largest namespaced point-op request payload — an
// NSPUT naming a tenant of maximal length — and so the size of the stack
// array each of them is built in.
const nsReqMax = 2 + proto.MaxNSName + 24

// NSStat re-exports one LISTNS entry: a tenant name and its live key
// count. Listings are byte-sorted by name — canonical order, never
// creation order.
type NSStat = proto.NSStat

// NSPut upserts the value for key in the named tenant's keyspace
// (creating the tenant on first write) and reports whether the key was
// newly inserted.
func (c *Conn) NSPut(ns string, key, val int64) (inserted bool, err error) {
	return c.NSPutTTL(ns, key, val, 0)
}

// NSPutTTL is NSPut with an absolute expiry epoch (unix seconds; 0:
// never expires). A tenant at the server's per-tenant quota refuses
// inserts of new keys with an error satisfying errors.Is(err,
// ErrQuota); upserts of existing keys always pass.
func (c *Conn) NSPutTTL(ns string, key, val, exp int64) (inserted bool, err error) {
	var b [nsReqMax]byte
	return c.putTTL(proto.OpNSPut, proto.AppendNSKeyValExp(b[:0], ns, key, val, exp), exp)
}

// NSGet returns the value stored for key in the named tenant's
// keyspace. An absent tenant reads exactly like an absent key.
func (c *Conn) NSGet(ns string, key int64) (val int64, ok bool, err error) {
	val, _, ok, err = c.NSGetTTL(ns, key)
	return val, ok, err
}

// NSGetTTL returns the value and recorded absolute expiry (0: none)
// for key in the named tenant's keyspace, and whether the key is live.
func (c *Conn) NSGetTTL(ns string, key int64) (val, exp int64, ok bool, err error) {
	var b [nsReqMax]byte
	return c.getTTL(proto.OpNSGet, proto.AppendNSKey(b[:0], ns, key))
}

// NSDelete removes key from the named tenant's keyspace and reports
// whether it was present.
func (c *Conn) NSDelete(ns string, key int64) (deleted bool, err error) {
	var b [nsReqMax]byte
	return c.callBool(proto.OpNSDel, proto.AppendNSKey(b[:0], ns, key))
}

// DropNS erases the named tenant and reports whether it existed. This
// is a durability barrier with an erasure guarantee: a true return
// means the server has dropped the tenant's cell, committed a
// checkpoint whose manifest omits it, and zero-wiped and unlinked its
// image files — the on-disk state is byte-identical to one where the
// tenant never existed. Dropping an absent tenant returns false and
// commits nothing.
func (c *Conn) DropNS(ns string) (existed bool, err error) {
	var b [nsReqMax]byte
	return c.callBool(proto.OpDropNS, proto.AppendNSName(b[:0], ns))
}

// ListNS returns the server's per-tenant key quota (0: unlimited) and
// the live tenants with their live key counts, byte-sorted by name.
// Tenants with no live keys are not listed.
func (c *Conn) ListNS() (quota uint64, tenants []NSStat, err error) {
	r, err := c.call(proto.OpListNS, nil)
	if err != nil {
		return 0, nil, err
	}
	quota, tenants, err = proto.DecodeNSList(r.reply) // names are copied into fresh strings
	c.release(r)
	return quota, tenants, err
}

// NSPut upserts the value for key in the named tenant's keyspace on one
// pool connection and reports whether it was newly inserted.
func (cl *Client) NSPut(ns string, key, val int64) (ok bool, err error) {
	err = cl.do(func(c *Conn) (e error) { ok, e = c.NSPut(ns, key, val); return })
	return ok, err
}

// NSPutTTL is NSPut with an absolute expiry epoch (0: never expires).
func (cl *Client) NSPutTTL(ns string, key, val, exp int64) (ok bool, err error) {
	err = cl.do(func(c *Conn) (e error) { ok, e = c.NSPutTTL(ns, key, val, exp); return })
	return ok, err
}

// NSGet returns the value stored for key in the named tenant's
// keyspace and whether it exists.
func (cl *Client) NSGet(ns string, key int64) (val int64, ok bool, err error) {
	err = cl.do(func(c *Conn) (e error) { val, ok, e = c.NSGet(ns, key); return })
	return val, ok, err
}

// NSGetTTL returns the value and recorded absolute expiry (0: none)
// for key in the named tenant's keyspace, and whether the key is live.
func (cl *Client) NSGetTTL(ns string, key int64) (val, exp int64, ok bool, err error) {
	err = cl.do(func(c *Conn) (e error) { val, exp, ok, e = c.NSGetTTL(ns, key); return })
	return val, exp, ok, err
}

// NSDelete removes key from the named tenant's keyspace and reports
// whether it was present.
func (cl *Client) NSDelete(ns string, key int64) (ok bool, err error) {
	err = cl.do(func(c *Conn) (e error) { ok, e = c.NSDelete(ns, key); return })
	return ok, err
}

// DropNS erases the named tenant; see Conn.DropNS for the durability
// and erasure guarantee a true return carries.
func (cl *Client) DropNS(ns string) (existed bool, err error) {
	err = cl.do(func(c *Conn) (e error) { existed, e = c.DropNS(ns); return })
	return existed, err
}

// ListNS returns the server's per-tenant quota and the live tenants
// with their key counts, byte-sorted by name.
func (cl *Client) ListNS() (quota uint64, tenants []NSStat, err error) {
	err = cl.do(func(c *Conn) (e error) { quota, tenants, e = c.ListNS(); return })
	return quota, tenants, err
}
