package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Times are nanoseconds since the tracer was made.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"` // 0: a root
	Name   string `json:"name"`   // layer.call, e.g. client.GET or durable.Checkpoint
	Worker int    `json:"worker"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends. Each worker appends
// to its own buffer, so recording takes no lock.
type tracer struct {
	origin time.Time
	nextID atomic.Uint32
	mu     sync.Mutex
	bufs   []*spanBuf
}

type spanBuf struct {
	t      *tracer
	worker int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// buf returns a fresh buffer for one worker goroutine.
func (t *tracer) buf(worker int) *spanBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{t: t, worker: worker}
	t.bufs = append(t.bufs, b)
	return b
}

// add records a finished call.
func (b *spanBuf) add(parent uint32, name string, start time.Time, dur time.Duration) {
	b.spans = append(b.spans, span{b.t.nextID.Add(1), parent, name, b.worker, int64(start.Sub(b.t.origin)), int64(dur)})
}

// begin opens a span that will have children and returns its place in
// the buffer and its id; end closes it.
func (b *spanBuf) begin(parent uint32, name string) (at int, id uint32) {
	id = b.t.nextID.Add(1)
	b.spans = append(b.spans, span{ID: id, Parent: parent, Name: name, Worker: b.worker, Start: int64(time.Since(b.t.origin))})
	return len(b.spans) - 1, id
}

func (b *spanBuf) end(at int) {
	b.spans[at].Dur = int64(time.Since(b.t.origin)) - b.spans[at].Start
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) (n int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString("[\n")
	for _, b := range t.bufs {
		for i := range b.spans {
			if n > 0 {
				w.WriteString(",")
			}
			if err := enc.Encode(&b.spans[i]); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
