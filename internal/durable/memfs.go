package durable

import (
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"
)

// ErrInjected is returned by every MemFS mutating operation once an
// injected fault point has been reached: the simulated machine has
// halted, and nothing mutates the (volatile or durable) state again
// until Crash().
var ErrInjected = errors.New("durable: injected fault")

// MemFS is an in-memory FS with an explicit crash model, the harness
// behind the crash-injection suite. It distinguishes volatile state
// (what the running process sees) from durable state (what survives a
// power cut):
//
//   - Write changes only a file's volatile content.
//   - File.Sync makes that file's current content durable.
//   - Create, Rename and Remove change only the volatile directory;
//     SyncDir makes the current directory entries durable.
//
// Crash() discards everything volatile and returns a new MemFS holding
// only the durable view — durable directory entries, each resolving to
// the content its inode last had at File.Sync time. This is the
// standard pessimistic POSIX model: an unsynced write may vanish, a
// renamed file may reappear under its old name, in any combination, if
// the directory was not fsynced.
//
// FailAfter(n) arms fault injection: the n-th subsequent mutating
// operation (Create, Write, Sync, Rename, Remove, SyncDir) and every
// one after it fail with ErrInjected, simulating a halt mid-sequence.
// Read-side operations keep working so the failure is observable.
// FailOnce(kind, n, err) is the transient fault instead: the n-th
// operation of one kind fails with err, and the disk works again.
type MemFS struct {
	mu      sync.Mutex
	entries map[string]*memInode // volatile directory: path -> inode
	durable map[string]*memInode // durable directory entries
	dirs    map[string]bool

	ops     int // mutating operations performed
	failAt  int // fail the failAt-th mutating op from arming; 0 = disarmed
	failed  bool
	once    transient
	removed []Removal
	counts  map[string]int
	held    int64 // bytes allocated for file content: see HeapBytes
}

// transient is an armed FailOnce: the left-th next operation of kind
// fails with err (left == 0: disarmed).
type transient struct {
	kind string
	left int
	err  error
}

// Removal records one Remove for test inspection: the file's name and
// whether its content had been overwritten with zeros first (the
// secure-wipe contract).
type Removal struct {
	Name  string
	Wiped bool
}

type memInode struct {
	content []byte // volatile content
	synced  []byte // content as of the last File.Sync (nil: never synced)
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{
		entries: map[string]*memInode{},
		durable: map[string]*memInode{},
		dirs:    map[string]bool{},
		counts:  map[string]int{},
	}
}

// FailAfter arms fault injection: counting from now, the n-th mutating
// operation and all later ones fail with ErrInjected. n <= 0 disarms.
func (m *MemFS) FailAfter(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		m.failAt = 0
		return
	}
	m.failAt = m.ops + n
}

// FailOnce arms a transient fault: counting from now, the n-th mutating
// operation of the given kind ("create", "write", "sync", "rename",
// "remove", "syncdir") fails once with err — syscall.EIO or
// syscall.ENOSPC, say — changing nothing, and every later operation
// succeeds again. Unlike FailAfter the machine does not halt, so
// whatever the failed attempt left behind is still there for the next
// call to cope with. n <= 0 disarms.
func (m *MemFS) FailOnce(kind string, n int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.once = transient{kind: kind, left: max(n, 0), err: err}
}

// Heal disarms fault injection and clears the sticky failed state, so
// the simulated disk works again. Unlike Crash, nothing is lost: tests
// use it for transient-fault scenarios — an erasure checkpoint fails,
// the caller observes the error, and a retry against the healed disk
// must complete.
func (m *MemFS) Heal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failAt = 0
	m.failed = false
	m.once = transient{}
}

// Ops returns the number of mutating operations performed so far.
func (m *MemFS) Ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// OpCounts returns per-kind mutating-operation counts ("create",
// "write", "sync", "rename", "remove", "syncdir").
func (m *MemFS) OpCounts() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int, len(m.counts))
	for k, v := range m.counts {
		out[k] = v
	}
	return out
}

// HeapBytes returns the bytes MemFS itself has allocated, cumulatively,
// to hold file content: every growth of a file's volatile content plus
// the copy each File.Sync takes. An allocation measurement over a MemFS
// subtracts the delta to leave what the engine allocated.
func (m *MemFS) HeapBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.held
}

// Removals returns every Remove performed, in order.
func (m *MemFS) Removals() []Removal {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Removal(nil), m.removed...)
}

// Crash simulates a power cut: it returns a fresh MemFS holding only
// the durable state. The receiver remains valid but frozen in its
// pre-crash (volatile) view; use the returned FS for recovery.
func (m *MemFS) Crash() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := NewMemFS()
	for d := range m.dirs {
		next.dirs[d] = true
	}
	for name, ino := range m.durable {
		if ino.synced == nil {
			// Entry is durable but its content never reached the disk:
			// the file survives as empty, the worst legal outcome.
			next.entries[name] = &memInode{content: nil, synced: nil}
		} else {
			c := append([]byte(nil), ino.synced...)
			next.entries[name] = &memInode{content: c, synced: append([]byte(nil), c...)}
		}
		next.durable[name] = next.entries[name]
	}
	return next
}

// step charges one mutating operation and reports whether it must fail.
// Caller holds m.mu.
func (m *MemFS) step(kind string) error {
	m.ops++
	m.counts[kind]++
	if m.failed || (m.failAt > 0 && m.ops >= m.failAt) {
		m.failed = true
		return fmt.Errorf("%w (%s, op %d)", ErrInjected, kind, m.ops)
	}
	if m.once.left > 0 && m.once.kind == kind {
		if m.once.left--; m.once.left == 0 {
			return fmt.Errorf("durable: injected transient fault (%s, op %d): %w", kind, m.ops, m.once.err)
		}
	}
	return nil
}

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[path.Clean(dir)] = true
	return nil
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("create"); err != nil {
		return nil, err
	}
	// A fresh inode: if the old name was durable, the durable directory
	// keeps pointing at the old inode until the next SyncDir.
	ino := &memInode{}
	m.entries[path.Clean(name)] = ino
	return &memFile{fs: m, ino: ino, writable: true}, nil
}

func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.entries[path.Clean(name)]
	if !ok {
		return nil, fmt.Errorf("durable: open %s: file does not exist", name)
	}
	return &memFile{fs: m, ino: ino}, nil
}

func (m *MemFS) OpenWrite(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.entries[path.Clean(name)]
	if !ok {
		return nil, fmt.Errorf("durable: openwrite %s: file does not exist", name)
	}
	return &memFile{fs: m, ino: ino, writable: true}, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("rename"); err != nil {
		return err
	}
	on, nn := path.Clean(oldname), path.Clean(newname)
	ino, ok := m.entries[on]
	if !ok {
		return fmt.Errorf("durable: rename %s: file does not exist", oldname)
	}
	m.entries[nn] = ino
	delete(m.entries, on)
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("remove"); err != nil {
		return err
	}
	n := path.Clean(name)
	ino, ok := m.entries[n]
	if !ok {
		return fmt.Errorf("durable: remove %s: file does not exist", name)
	}
	wiped := true
	for _, b := range ino.content {
		if b != 0 {
			wiped = false
			break
		}
	}
	m.removed = append(m.removed, Removal{Name: path.Base(n), Wiped: wiped})
	delete(m.entries, n)
	return nil
}

func (m *MemFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := path.Clean(dir) + "/"
	var names []string
	for p := range m.entries {
		if strings.HasPrefix(p, prefix) && !strings.Contains(p[len(prefix):], "/") {
			names = append(names, p[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.entries[path.Clean(name)]
	if !ok {
		return 0, fmt.Errorf("durable: size %s: file does not exist", name)
	}
	return int64(len(ino.content)), nil
}

func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("syncdir"); err != nil {
		return err
	}
	// One flat namespace per MemFS: persist the entries under dir.
	prefix := path.Clean(dir) + "/"
	for p := range m.durable {
		if strings.HasPrefix(p, prefix) {
			delete(m.durable, p)
		}
	}
	for p, ino := range m.entries {
		if strings.HasPrefix(p, prefix) {
			m.durable[p] = ino
		}
	}
	return nil
}

// memFile is a cursor over a memInode.
type memFile struct {
	fs       *MemFS
	ino      *memInode
	pos      int
	writable bool
	closed   bool
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, errors.New("durable: read on closed file")
	}
	if f.pos >= len(f.ino.content) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.content[f.pos:])
	f.pos += n
	return n, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, errors.New("durable: read on closed file")
	}
	if off < 0 {
		return 0, errors.New("durable: read at a negative offset")
	}
	if off >= int64(len(f.ino.content)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.content[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed || !f.writable {
		return 0, errors.New("durable: write on closed or read-only file")
	}
	if err := f.fs.step("write"); err != nil {
		return 0, err
	}
	before := cap(f.ino.content)
	for len(f.ino.content) < f.pos {
		f.ino.content = append(f.ino.content, 0)
	}
	n := copy(f.ino.content[f.pos:], p)
	f.ino.content = append(f.ino.content, p[n:]...)
	if c := cap(f.ino.content); c != before {
		f.fs.held += int64(c)
	}
	f.pos += len(p)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return errors.New("durable: sync on closed file")
	}
	if err := f.fs.step("sync"); err != nil {
		return err
	}
	f.ino.synced = append([]byte(nil), f.ino.content...)
	f.fs.held += int64(cap(f.ino.synced))
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.closed = true
	return nil
}
