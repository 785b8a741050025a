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
	// CreateFlag opens for writing in place: the old bytes stay until
	// overwritten or truncated away.
	CreateFlag    = os.O_WRONLY | os.O_CREATE
	ReadWriteFlag = os.O_RDWR | os.O_CREATE
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

// pageSize is the unit MemFS stores a file in.
const pageSize = 64 << 10

// memNode is a file's content: fixed pages, of which a nil one (a hole) reads
// as zeros, and the size. Extending a file allocates only the pages it newly
// touches and moves no byte already written. Every byte a page holds past
// the size is zero, so a later extension reads zeros there.
type memNode struct {
	mu    sync.Mutex
	pages [][]byte  // page i holds bytes [i*pageSize, (i+1)*pageSize)
	page0 [1][]byte // backs pages while the file has one page: no slice to allocate
	size  int64
	mtime time.Time
}

// page returns page i, allocated and at least need bytes long. Every page is
// allocated whole except the first, which doubles while it holds less than a
// quarter page, so a small file costs about its size and a large one less
// than half a page more. A page never shrinks, and what lies between its
// length and capacity was never written, so lengthening it in place exposes
// zeros.
func (n *memNode) page(i, need int) []byte {
	pg := n.pages[i]
	switch {
	case len(pg) >= need:
	case i > 0:
		pg = make([]byte, pageSize)
	case cap(pg) >= need:
		pg = pg[:need]
	default:
		c := max(need, 2*cap(pg))
		if c > pageSize/4 {
			c = pageSize
		}
		grown := make([]byte, need, c)
		copy(grown, pg)
		pg = grown
	}
	n.pages[i] = pg
	return pg
}

// resize makes the file size bytes long. Growing only adds holes; shrinking
// drops the pages past the end and clears the tail of the new last page.
func (n *memNode) resize(size int64) {
	np := int((size + pageSize - 1) / pageSize)
	if n.pages == nil {
		n.pages = n.page0[:0]
	}
	for len(n.pages) < np {
		n.pages = append(n.pages, nil)
	}
	if size < n.size {
		clear(n.pages[np:])
		n.pages = n.pages[:np]
		if off := int(size % pageSize); off > 0 {
			if last := n.pages[np-1]; off < len(last) {
				clear(last[off:])
			}
		}
	}
	n.size = size
}

// readAt copies the file's bytes at off into p and reports how many there
// were.
func (n *memNode) readAt(p []byte, off int64) int {
	if off >= n.size {
		return 0
	}
	p = p[:min(int64(len(p)), n.size-off)]
	total := len(p)
	for len(p) > 0 {
		i, po := int(off/pageSize), int(off%pageSize)
		c := min(len(p), pageSize-po)
		got := 0
		if pg := n.pages[i]; po < len(pg) {
			got = copy(p[:c], pg[po:])
		}
		clear(p[got:c])
		p, off = p[c:], off+int64(c)
	}
	return total
}

// writeAt stores p at off, extending the file if it ends past the size.
func (n *memNode) writeAt(p []byte, off int64) {
	if end := off + int64(len(p)); end > n.size {
		n.resize(end)
	}
	for len(p) > 0 {
		i, po := int(off/pageSize), int(off%pageSize)
		c := min(len(p), pageSize-po)
		copy(n.page(i, po+c)[po:], p[:c])
		p, off = p[c:], off+int64(c)
	}
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
		node.resize(0)
		node.mtime = m.now()
	}
	node.mu.Unlock()

	f := &memFile{fs: m, node: node, name: name, flag: flag}
	if flag&os.O_APPEND != 0 {
		node.mu.Lock()
		f.pos = node.size
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
	return fileInfo{name: name, size: node.size, mtime: node.mtime}, nil
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
	if f.pos >= f.node.size {
		return 0, io.EOF
	}
	n := f.node.readAt(p, f.pos)
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
	if off >= f.node.size {
		return 0, io.EOF
	}
	n := f.node.readAt(p, off)
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
	f.node.writeAt(p, off)
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
		base = f.node.size
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
	f.node.resize(size)
	f.node.mtime = f.fs.now()
	return nil
}

func (f *memFile) Stat() (fs.FileInfo, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	return fileInfo{name: f.name, size: f.node.size, mtime: f.node.mtime}, nil
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
