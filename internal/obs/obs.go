// Package obs is the stack's observability layer: a dependency-free
// metrics kit — atomic counters and gauges, lock-free fixed-log-bucket
// latency/size histograms, and a named-metric registry with a
// Prometheus-style text exposition handler — plus a sampled slow-op
// structured log (slowlog.go).
//
// Two constraints shape the package:
//
//   - Hot-path cost. Recording into any metric is a handful of atomic
//     adds and allocates nothing, so the server's dispatch loop, the
//     write coalescer, and the client's request path can record every
//     operation without disturbing the allocation counts the gated
//     benchmark (bench/, BENCHMARK.json) holds. Scraping is the slow
//     side: a snapshot walks the buckets with atomic loads.
//
//   - Forensic cleanliness. This database erases operation history
//     from its persistent state (see ARCHITECTURE.md); telemetry that
//     is written to disk or scraped to a monitoring system must not
//     quietly become the history the design erases. Nothing in this
//     package can carry key or value bytes: metrics are named numbers,
//     and the slow-op log's record type has no payload-carrying field
//     by construction. docs/OBSERVABILITY.md states the contract; the
//     forensic tests grep scraped output to enforce it.
//
// Every constructor is nil-registry safe: calling Counter, Gauge, or
// Histogram on a nil *Registry returns a live, unregistered metric, so
// instrumented code records unconditionally and never branches on
// "is observability enabled".
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (callers must keep counters monotone: n is unsigned).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Unit tells the exposition handler how to scale a histogram's raw
// int64 observations.
type Unit int

const (
	// UnitNone: dimensionless (batch sizes, item counts).
	UnitNone Unit = iota
	// UnitSeconds: observations are nanoseconds, exposed as seconds.
	UnitSeconds
	// UnitBytes: observations are bytes, exposed as bytes.
	UnitBytes
)

// NumBuckets is the fixed bucket count of every Histogram: bucket i
// holds observations v with 2^i <= v < 2^(i+1) (bucket 0 also takes
// v <= 1), so the range spans 1ns..~18min for latencies and
// 1B..~1TiB for sizes. Fixed log bucketing keeps Observe lock-free
// and allocation-free: the bucket index is one bit-length instruction.
const NumBuckets = 40

// Histogram is a lock-free fixed-log-bucket histogram. Observe is a
// few atomic adds and never allocates; quantiles are derived from a
// Snapshot by whoever scrapes it.
type Histogram struct {
	unit    Unit
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
	// ex, when armed by EnableExemplars, holds the last linked trace id
	// and raw observation per bucket (pairs: [2i] id, [2i+1] value).
	// Exemplars are fed by an explicit Exemplar call — never by Observe,
	// which stays exemplar-blind and allocation-free either way.
	ex atomic.Pointer[[2 * NumBuckets]atomic.Uint64]
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v)) - 1 // 2^i <= v
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// Observe records one value. Negative values clamp to zero. It is safe
// for any number of concurrent callers and performs no allocation:
// one bucket add, one sum add, one count add, and a CAS-loop max.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(uint64(v))
	h.count.Add(1)
	for {
		old := h.max.Load()
		if uint64(v) <= old || h.max.CompareAndSwap(old, uint64(v)) {
			return
		}
	}
}

// ObserveSince records the elapsed nanoseconds since t0 — the common
// call in latency instrumentation.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(int64(time.Since(t0))) }

// EnableExemplars arms per-bucket exemplar storage: once armed,
// Exemplar calls link buckets to trace ids and the text exposition
// appends an OpenMetrics-style exemplar to populated bucket lines.
// Unarmed histograms (the default) carry no storage and render exactly
// as before. Call before the histogram sees concurrent traffic.
func (h *Histogram) EnableExemplars() {
	if h.ex.Load() == nil {
		h.ex.Store(new([2 * NumBuckets]atomic.Uint64))
	}
}

// Exemplar links the bucket covering observation v to trace id tid —
// the last kept trace per bucket wins. The id and value are stored as
// two independent atomics (a torn pair across concurrent calls can mix
// two valid exemplars; both halves are still real observations). No-op
// when exemplars are not armed or tid is zero, so callers can feed
// unconditionally from the kept-trace branch.
func (h *Histogram) Exemplar(v int64, tid uint64) {
	p := h.ex.Load()
	if p == nil || tid == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	i := 2 * bucketOf(v)
	p[i].Store(tid)
	p[i+1].Store(uint64(v))
}

// Unit returns the histogram's exposition unit.
func (h *Histogram) Unit() Unit { return h.unit }

// HistSnapshot is a point-in-time copy of a histogram's state, read
// with atomic loads (the copy may straddle concurrent Observes; each
// individual field is coherent).
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [NumBuckets]uint64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) of the recorded
// distribution in the histogram's raw unit (nanoseconds for
// UnitSeconds histograms), interpolating linearly inside the covering
// bucket. With no observations it returns 0. The estimate's error is
// bounded by the 2x bucket width — exactly the resolution the fixed
// log bucketing trades for a lock-free hot path.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	cum := float64(0)
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= target {
			lo, hi := bucketBounds(i)
			frac := (target - cum) / float64(n)
			v := lo + frac*(hi-lo)
			if m := float64(s.Max); v > m {
				v = m // never report past the observed max
			}
			return v
		}
		cum = next
	}
	return float64(s.Max)
}

// bucketBounds returns bucket i's value range [lo, hi).
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 2
	}
	return float64(uint64(1) << uint(i)), float64(uint64(1) << uint(i+1))
}

// Kind is a registered metric's type, as exposed by the handler.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// entry is one registered metric instance: a family name, an optional
// single label pair (the per-opcode / per-phase axis), and exactly one
// live metric or read-function.
type entry struct {
	name     string // family name, e.g. "hidb_server_op_seconds"
	labelKey string // "" for unlabeled metrics
	labelVal string
	help     string
	kind     Kind
	c        *Counter
	g        *Gauge
	h        *Histogram
	cfn      func() uint64  // counter func (reads an external atomic)
	gfn      func() float64 // gauge func
}

// Registry is a named-metric registry. Metrics are registered once and
// live for the registry's lifetime; registering a name (plus label)
// again returns the existing metric, so components that are constructed
// several times in one process (e.g. a bench harness hosting a primary
// and replicas) share instances instead of colliding. A nil *Registry
// is valid everywhere and registers nothing.
type Registry struct {
	mu    sync.Mutex
	order []*entry
	byKey map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*entry{}}
}

func key(name, lk, lv string) string { return name + "\x00" + lk + "\x00" + lv }

// lookup returns the existing entry for (name, label) or inserts e.
// Re-registering with a different kind panics: that is a programming
// error the doc-lockstep test would otherwise mask.
func (r *Registry) lookup(e *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(e.name, e.labelKey, e.labelVal)
	if prev, ok := r.byKey[k]; ok {
		if prev.kind != e.kind {
			panic("obs: metric " + e.name + " re-registered with a different kind")
		}
		return prev
	}
	r.byKey[k] = e
	r.order = append(r.order, e)
	return e
}

// Counter registers (or returns the existing) counter name.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return &Counter{}
	}
	e := r.lookup(&entry{name: name, help: help, kind: KindCounter, c: &Counter{}})
	return e.c
}

// Gauge registers (or returns the existing) gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	e := r.lookup(&entry{name: name, help: help, kind: KindGauge, g: &Gauge{}})
	return e.g
}

// Histogram registers (or returns the existing) histogram name.
func (r *Registry) Histogram(name, help string, unit Unit) *Histogram {
	if r == nil {
		return &Histogram{unit: unit}
	}
	e := r.lookup(&entry{name: name, help: help, kind: KindHistogram, h: &Histogram{unit: unit}})
	return e.h
}

// HistogramL registers a labeled histogram instance in family name —
// the per-opcode / per-phase axis. Instances of one family share the
// family's HELP/TYPE block in the exposition.
func (r *Registry) HistogramL(name, labelKey, labelVal, help string, unit Unit) *Histogram {
	if r == nil {
		return &Histogram{unit: unit}
	}
	e := r.lookup(&entry{name: name, labelKey: labelKey, labelVal: labelVal,
		help: help, kind: KindHistogram, h: &Histogram{unit: unit}})
	return e.h
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — the bridge for counters that already exist as atomics
// elsewhere (server stats, durable's checkpoint count) without double
// counting on the hot path. No-op on a nil registry; a name already
// registered keeps its first function.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	r.lookup(&entry{name: name, help: help, kind: KindCounter, cfn: fn})
}

// GaugeFunc is CounterFunc for instantaneous values.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.lookup(&entry{name: name, help: help, kind: KindGauge, gfn: fn})
}

// Family describes one registered metric family.
type Family struct {
	Name string
	Kind Kind
	Help string
}

// Families returns every registered family once, in registration
// order (labeled instances of one family collapse to one element).
// This is the authoritative catalog the doc-lockstep test checks
// against docs/OBSERVABILITY.md.
func (r *Registry) Families() []Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]bool{}
	var out []Family
	for _, e := range r.order {
		if seen[e.name] {
			continue
		}
		seen[e.name] = true
		out = append(out, Family{Name: e.name, Kind: e.kind, Help: e.help})
	}
	return out
}

// snapshotEntries copies the entry list so exposition can run without
// holding the lock across value reads (value reads are atomic; func
// metrics may take their own locks).
func (r *Registry) snapshotEntries() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, len(r.order))
	copy(out, r.order)
	return out
}
