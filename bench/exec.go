package main

import (
	"fmt"
	"math"

	"repro/client"
	"repro/internal/durable"
	"repro/internal/shard"
)

// tenantNames[ks] is the tenant of key space ks; 0 is the default key
// space and has none.
var tenantNames = [1 + numTenants]string{"", "tenant-a", "tenant-b", "tenant-c", "tenant-d"}

// mismatch describes a reply that differs from the model's. It is built
// only on failure, so a correct run allocates nothing here.
func mismatch(o *op, val int64, ok bool, err error) string {
	if err != nil {
		return fmt.Sprintf("%s ks=%d idx=%d: %v", opNames[o.kind], o.ks, o.idx, err)
	}
	return fmt.Sprintf("%s ks=%d idx=%d: got (%d, %v), model says (%d, %v)", opNames[o.kind], o.ks, o.idx, val, ok, o.val, o.ok)
}

func wantExp(o *op) int64 {
	if o.ok && o.ttl {
		return farFuture
	}
	return 0
}

// callNet issues o through the network client and checks the reply; it
// returns "" when the reply is the model's.
func callNet(cl *client.Client, o *op) string {
	key, ns := keyOf(o.idx), tenantNames[o.ks]
	var (
		val int64
		ok  bool
		err error
	)
	switch o.kind {
	case opGet:
		val, ok, err = cl.Get(key)
	case opGetTTL:
		var exp int64
		if val, exp, ok, err = cl.GetTTL(key); err == nil && ok && exp != wantExp(o) {
			err = fmt.Errorf("expiry %d, model says %d", exp, wantExp(o))
		}
	case opNSGet:
		val, ok, err = cl.NSGet(ns, key)
	case opPut:
		ok, err = cl.Put(key, o.val)
	case opPutTTL:
		ok, err = cl.PutTTL(key, o.val, farFuture)
	case opDel:
		ok, err = cl.Delete(key)
	case opNSPut:
		ok, err = cl.NSPut(ns, key, o.val)
	case opNSDel:
		ok, err = cl.NSDelete(ns, key)
	default:
		err = fmt.Errorf("not a network op")
	}
	return verdict(o, val, ok, err)
}

// verdict holds a reply to the model's: a scan or a batch by its
// checksum, a point read by flag and value, a write by its flag.
func verdict(o *op, val int64, ok bool, err error) string {
	wrong := err != nil
	switch {
	case wrong:
	case o.kind == opRange || o.kind == opGetBatch:
		wrong = val != o.val
	case o.kind <= opNSGet:
		wrong = ok != o.ok || (ok && val != o.val)
	default:
		wrong = ok != o.ok
	}
	if wrong {
		return mismatch(o, val, ok, err)
	}
	return ""
}

// itemsSum is the checksum of a scan's reply, as expect computes it
// from the model.
func itemsSum(items []shard.Item) int64 {
	h := uint64(0)
	for _, it := range items {
		h = fold(fold(h, it.Key), it.Val)
	}
	return int64(fold(h, int64(len(items))))
}

// dbScratch holds the buffers callDB reuses between calls.
type dbScratch struct {
	items []shard.Item
	keys  []int64
}

// callDB issues o against an embedded database and checks the result.
func callDB(db *durable.DB, o *op, sc *dbScratch, universe int) string {
	key, ns := keyOf(o.idx), tenantNames[o.ks]
	var (
		val int64
		ok  bool
		err error
	)
	switch o.kind {
	case opGet:
		val, ok = db.Get(key)
	case opGetTTL:
		var exp int64
		if val, exp, ok = db.GetTTL(key); ok && exp != wantExp(o) {
			err = fmt.Errorf("expiry %d, model says %d", exp, wantExp(o))
		}
	case opNSGet:
		val, ok = db.NSGet(ns, key)
	case opPut:
		ok = db.Put(key, o.val)
	case opPutTTL:
		ok = db.PutTTL(key, o.val, farFuture)
	case opDel:
		ok = db.Delete(key)
	case opNSPut:
		ok, err = db.NSPut(ns, key, o.val)
	case opNSDel:
		ok = db.NSDelete(ns, key)
	case opRange:
		sc.items, _ = db.RangeN(key, math.MaxInt64, rangeItems, sc.items[:0])
		val = itemsSum(sc.items)
	case opGetBatch:
		sc.keys = sc.keys[:0]
		for j := 0; j < batchKeys; j++ {
			sc.keys = append(sc.keys, keyOf(batchIdx(o.idx, j, universe)))
		}
		vals, found := db.GetBatch(sc.keys)
		h := uint64(0)
		for j := range vals {
			h = fold(fold(h, int64(b2i(found[j]))), vals[j])
		}
		val = int64(h)
	}
	return verdict(o, val, ok, err)
}
