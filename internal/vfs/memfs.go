package vfs

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Convenience flag combinations used throughout the repo.
const (
	ReadOnlyFlag    = os.O_RDONLY
	CreateTruncFlag = os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	ReadWriteFlag   = os.O_RDWR | os.O_CREATE
)

// MemFS is an in-memory FS. It is safe for concurrent use and has no
// directory hierarchy: paths are opaque keys (as with object stores), which
// matches how the GNS resolves whole path names.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memNode
	// NowFunc supplies modification times; defaults to time.Now. The
	// testbed points it at the simulated clock.
	NowFunc func() time.Time
}

type memNode struct {
	mu    sync.Mutex
	data  []byte
	mtime time.Time
}

// grow lengthens data to end bytes, the new ones reading as zeros; the
// caller holds mu and end exceeds len(data). Within capacity the slice is
// resliced and the gap cleared, since a Truncate shrink leaves stale bytes
// there. Past it the capacity at least doubles, so a file written
// sequentially allocates about 2n bytes in all, not a copy of the whole
// file per extending write. The doubling is explicit because append grows
// a large slice by about 1.25x, which allocates about 5n.
func (n *memNode) grow(end int64) {
	if end <= int64(cap(n.data)) {
		old := len(n.data)
		n.data = n.data[:end]
		clear(n.data[old:])
		return
	}
	grown := make([]byte, end, max(end, 2*int64(cap(n.data))))
	copy(grown, n.data)
	n.data = grown
}

// NewMemFS returns an empty MemFS.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memNode), NowFunc: time.Now}
}

func (m *MemFS) now() time.Time {
	if m.NowFunc != nil {
		return m.NowFunc()
	}
	return time.Now()
}

// OpenFile implements FS.
func (m *MemFS) OpenFile(name string, flag int, _ fs.FileMode) (File, error) {
	if name == "" {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrInvalid}
	}
	m.mu.Lock()
	node, exists := m.files[name]
	if !exists {
		if flag&os.O_CREATE == 0 {
			m.mu.Unlock()
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		node = &memNode{mtime: m.now()}
		m.files[name] = node
	} else if flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0 {
		m.mu.Unlock()
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	}
	m.mu.Unlock()

	node.mu.Lock()
	if flag&os.O_TRUNC != 0 {
		node.data = nil
		node.mtime = m.now()
	}
	node.mu.Unlock()

	f := &memFile{fs: m, node: node, name: name, flag: flag}
	if flag&os.O_APPEND != 0 {
		node.mu.Lock()
		f.pos = int64(len(node.data))
		node.mu.Unlock()
	}
	return f, nil
}

// Stat implements FS.
func (m *MemFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	node, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	node.mu.Lock()
	defer node.mu.Unlock()
	return fileInfo{name: name, size: int64(len(node.data)), mtime: node.mtime}, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// List implements FS.
func (m *MemFS) List(prefix string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// memFile is an open handle onto a memNode.
type memFile struct {
	fs     *MemFS
	node   *memNode
	name   string
	flag   int
	mu     sync.Mutex
	pos    int64
	closed bool
}

func (f *memFile) readable() bool {
	acc := f.flag & (os.O_RDONLY | os.O_WRONLY | os.O_RDWR)
	return acc == os.O_RDONLY || acc == os.O_RDWR
}

func (f *memFile) writable() bool {
	acc := f.flag & (os.O_RDONLY | os.O_WRONLY | os.O_RDWR)
	return acc == os.O_WRONLY || acc == os.O_RDWR
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	if !f.readable() {
		return 0, &fs.PathError{Op: "read", Path: f.name, Err: fs.ErrPermission}
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if f.pos >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, fs.ErrClosed
	}
	f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative ReadAt offset %d", off)
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	if !f.writable() {
		return 0, &fs.PathError{Op: "write", Path: f.name, Err: fs.ErrPermission}
	}
	n := f.writeAtLocked(p, f.pos)
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	if !f.writable() {
		return 0, &fs.PathError{Op: "write", Path: f.name, Err: fs.ErrPermission}
	}
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative WriteAt offset %d", off)
	}
	return f.writeAtLocked(p, off), nil
}

func (f *memFile) writeAtLocked(p []byte, off int64) int {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(f.node.data)) {
		f.node.grow(end)
	}
	copy(f.node.data[off:end], p)
	f.node.mtime = f.fs.now()
	return len(p)
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		f.node.mu.Lock()
		base = int64(len(f.node.data))
		f.node.mu.Unlock()
	default:
		return 0, fmt.Errorf("vfs: bad whence %d", whence)
	}
	npos := base + offset
	if npos < 0 {
		return 0, fmt.Errorf("vfs: negative seek position %d", npos)
	}
	f.pos = npos
	return npos, nil
}

func (f *memFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	if !f.writable() {
		return &fs.PathError{Op: "truncate", Path: f.name, Err: fs.ErrPermission}
	}
	if size < 0 {
		return fmt.Errorf("vfs: negative truncate size %d", size)
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if size <= int64(len(f.node.data)) {
		f.node.data = f.node.data[:size]
	} else {
		f.node.grow(size)
	}
	f.node.mtime = f.fs.now()
	return nil
}

func (f *memFile) Stat() (fs.FileInfo, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	return fileInfo{name: f.name, size: int64(len(f.node.data)), mtime: f.node.mtime}, nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.closed = true
	return nil
}
