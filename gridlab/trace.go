package main

import (
	"bufio"
	"encoding/json"
	"io/fs"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/vfs"
)

// Tracing from outside. The benchmark owns no line of the program under
// test, so spans are recorded around the calls *into* each layer, at the
// seams core.Config already injects — Dialer, gns.Resolver, vfs.FS — and
// around the FM's own Open/Read/Write/Close:
//
//	op -> core.open | core.io | core.close -> gns.resolve | dial | conn_wait | vfs.call
//
// One client runs one op at a time, so a seam call belongs to whichever
// FM call is in progress on that client: parentage needs no context
// plumbing through the program.

// Span names.
const (
	spOp = iota
	spCoreOpen
	spCoreIO
	spCoreClose
	spGNSResolve
	spDial
	spConnWait
	spVFSCall
	numSpanNames
)

var spanNames = [numSpanNames]string{"op", "core.open", "core.io", "core.close", "gns.resolve", "dial", "conn_wait", "vfs.call"}

// span is one recorded interval. It holds no pointers, so a few million of
// them cost the garbage collector nothing to keep.
type span struct {
	id, parent uint32 // 1-based index into the tracer; parent 0 = none
	op         uint32 // shared by all spans of one operation; 0 = outside any op
	start, end int64  // ns since the tracer's epoch
	bytes      int32  // payload (core.io), wire (conn_wait) or file (vfs.call) bytes
	name       uint8
	svc        uint8 // service layer of a dial / conn_wait; svcGNS for gns.resolve
	client     uint8
	write      bool // conn_wait / core.io / vfs.call: the call was a write
}

func (s span) dur() int64 { return s.end - s.start }

const spanChunk = 1 << 15

// tracer is the in-memory span store of one run, shared by its clients.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	chunks [][]span
	n      uint32
	nextOp uint32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add stores s, assigns its id and returns it.
func (t *tracer) add(s span) uint32 {
	t.mu.Lock()
	if int(t.n)%spanChunk == 0 {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
	}
	t.n++
	s.id = t.n
	c := len(t.chunks) - 1
	t.chunks[c] = append(t.chunks[c], s)
	t.mu.Unlock()
	return s.id
}

// finish stamps the end (and byte count) of an open span.
func (t *tracer) finish(id uint32, end int64, bytes int) {
	t.mu.Lock()
	s := &t.chunks[(id-1)/spanChunk][(id-1)%spanChunk]
	s.end = end
	s.bytes = int32(bytes)
	t.mu.Unlock()
}

// all returns every span in id order. Call it after the clients stopped.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, t.n)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// clientTrace is one client's view of the tracer: which op it is in and
// which span is the innermost in progress. The seams read both from any
// goroutine (ack loops, stripe workers); only the client's own goroutine
// changes them.
type clientTrace struct {
	t      *tracer
	client uint8
	op     atomic.Uint32
	cur    atomic.Uint32
}

// token closes a span opened by begin.
type token struct{ id, prev uint32 }

// begin opens a span nested in the client's current one and makes it
// current. A nil clientTrace (an untraced client) records nothing.
func (ct *clientTrace) begin(name, svc uint8, write bool) token {
	if ct == nil {
		return token{}
	}
	if name == spOp {
		ct.t.mu.Lock()
		ct.t.nextOp++
		op := ct.t.nextOp
		ct.t.mu.Unlock()
		ct.op.Store(op)
	}
	id := ct.t.add(span{parent: ct.cur.Load(), op: ct.op.Load(), start: ct.t.now(),
		name: name, svc: svc, client: ct.client, write: write})
	return token{id: id, prev: ct.cur.Swap(id)}
}

// opID reports the op in progress (0 for an untraced client).
func (ct *clientTrace) opID() uint32 {
	if ct == nil {
		return 0
	}
	return ct.op.Load()
}

// end closes the span and restores its parent as current.
func (ct *clientTrace) end(tk token, bytes int) {
	if ct == nil {
		return
	}
	ct.t.finish(tk.id, ct.t.now(), bytes)
	ct.cur.Store(tk.prev)
	if tk.prev == 0 {
		ct.op.Store(0)
	}
}

// leafStart captures what a leaf span must remember from before the call
// it times: the clock, and the op and parent current at that moment.
type leafStart struct {
	at         int64
	op, parent uint32
}

func (ct *clientTrace) leafStart() leafStart {
	return leafStart{at: ct.t.now(), op: ct.op.Load(), parent: ct.cur.Load()}
}

// leaf records a completed childless span.
func (ct *clientTrace) leaf(ls leafStart, name, svc uint8, bytes int, write bool) {
	ct.t.add(span{parent: ls.parent, op: ls.op, start: ls.at, end: ct.t.now(),
		bytes: int32(bytes), name: name, svc: svc, client: ct.client, write: write})
}

// ---------------------------------------------------------------------------
// Seams. Each wrapper returns exactly what the wrapped value returns — bytes,
// counts and errors — and only adds a span around the call.

// tracedDialer times dials and hands out connections that time their reads
// and writes, all charged to the service the address belongs to.
type tracedDialer struct {
	inner core.Dialer
	ct    *clientTrace
	svcOf map[string]int
}

func (d *tracedDialer) Dial(addr string) (net.Conn, error) {
	svc := uint8(d.svcOf[addr])
	ls := d.ct.leafStart()
	conn, err := d.inner.Dial(addr)
	d.ct.leaf(ls, spDial, svc, 0, false)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: conn, ct: d.ct, svc: svc}, nil
}

// tracedConn records the time a client spends inside the socket calls of
// one connection: for a read, chiefly waiting for the server's reply.
type tracedConn struct {
	net.Conn
	ct  *clientTrace
	svc uint8
}

func (c *tracedConn) Read(p []byte) (int, error) {
	ls := c.ct.leafStart()
	n, err := c.Conn.Read(p)
	c.ct.leaf(ls, spConnWait, c.svc, n, false)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	ls := c.ct.leafStart()
	n, err := c.Conn.Write(p)
	c.ct.leaf(ls, spConnWait, c.svc, n, true)
	return n, err
}

// tracedResolver times the FM's GNS resolves. The resolve span becomes
// current, so the GNS client's own dials and waits nest under it.
type tracedResolver struct {
	inner gns.Resolver
	ct    *clientTrace
}

func (r *tracedResolver) Resolve(machine, path string) (gns.Mapping, error) {
	tk := r.ct.begin(spGNSResolve, svcGNS, false)
	m, err := r.inner.Resolve(machine, path)
	r.ct.end(tk, 0)
	return m, err
}

func (r *tracedResolver) Watch(machine, path string, since uint64, timeoutMS int64) (gns.Mapping, bool, error) {
	return r.inner.Watch(machine, path, since, timeoutMS)
}

// tracedFS times every call into the client-local file system.
type tracedFS struct {
	inner vfs.FS
	ct    *clientTrace
}

func (f *tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	ls := f.ct.leafStart()
	file, err := f.inner.OpenFile(name, flag, perm)
	f.ct.leaf(ls, spVFSCall, 0, 0, false)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, ct: f.ct}, nil
}

func (f *tracedFS) Stat(name string) (fs.FileInfo, error) {
	ls := f.ct.leafStart()
	fi, err := f.inner.Stat(name)
	f.ct.leaf(ls, spVFSCall, 0, 0, false)
	return fi, err
}

func (f *tracedFS) Remove(name string) error {
	ls := f.ct.leafStart()
	err := f.inner.Remove(name)
	f.ct.leaf(ls, spVFSCall, 0, 0, true)
	return err
}

func (f *tracedFS) List(prefix string) ([]string, error) {
	ls := f.ct.leafStart()
	names, err := f.inner.List(prefix)
	f.ct.leaf(ls, spVFSCall, 0, 0, false)
	return names, err
}

// tracedFile times the data and durability calls of one local file; the
// metadata calls (Name, Seek, Stat, Truncate) pass through untimed.
type tracedFile struct {
	vfs.File
	ct *clientTrace
}

func (f *tracedFile) Read(p []byte) (int, error) {
	ls := f.ct.leafStart()
	n, err := f.File.Read(p)
	f.ct.leaf(ls, spVFSCall, 0, n, false)
	return n, err
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	ls := f.ct.leafStart()
	n, err := f.File.ReadAt(p, off)
	f.ct.leaf(ls, spVFSCall, 0, n, false)
	return n, err
}

func (f *tracedFile) Write(p []byte) (int, error) {
	ls := f.ct.leafStart()
	n, err := f.File.Write(p)
	f.ct.leaf(ls, spVFSCall, 0, n, true)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	ls := f.ct.leafStart()
	n, err := f.File.WriteAt(p, off)
	f.ct.leaf(ls, spVFSCall, 0, n, true)
	return n, err
}

func (f *tracedFile) Sync() error {
	ls := f.ct.leafStart()
	err := f.File.Sync()
	f.ct.leaf(ls, spVFSCall, 0, 0, true)
	return err
}

func (f *tracedFile) Close() error {
	ls := f.ct.leafStart()
	err := f.File.Close()
	f.ct.leaf(ls, spVFSCall, 0, 0, false)
	return err
}

// ---------------------------------------------------------------------------
// Self time.

// selfTimes splits one op's wall time among its spans. spans[0] must be the
// op's root and the rest its descendants, parents before children (id
// order). Each instant of the root's interval is charged to the deepest
// span in progress at that instant — a span's self time is its duration
// minus what its children cover — and when several equally deep spans
// overlap (striped streams, an ack loop beside a write) they share the
// instant equally. Children are clipped to the root's interval and spans
// whose parent is not in the set hang off the root, so the returned self
// times always sum to the root's duration exactly.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	if len(spans) == 0 {
		return self
	}
	root := spans[0]
	index := make(map[uint32]int, len(spans))
	depth := make([]int, len(spans))
	for i, s := range spans {
		index[s.id] = i
		if i == 0 {
			continue
		}
		depth[i] = 1
		if p, ok := index[s.parent]; ok {
			depth[i] = depth[p] + 1
		}
	}
	type edge struct {
		at    int64
		idx   int
		start bool
	}
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		lo, hi := max(s.start, root.start), min(s.end, root.end)
		if hi > lo {
			edges = append(edges, edge{lo, i, true}, edge{hi, i, false})
		}
	}
	// Ends sort before starts at the same instant, so back-to-back spans
	// never count as overlapping.
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return !edges[a].start && edges[b].start
	})
	var active []int
	prev := root.start
	for _, e := range edges {
		if seg := e.at - prev; seg > 0 && len(active) > 0 {
			deepest, n := -1, 0
			for _, i := range active {
				switch {
				case depth[i] > deepest:
					deepest, n = depth[i], 1
				case depth[i] == deepest:
					n++
				}
			}
			share, rest := seg/int64(n), seg%int64(n)
			for _, i := range active {
				if depth[i] == deepest {
					self[i] += share
					if rest > 0 {
						self[i]++
						rest--
					}
				}
			}
		}
		prev = e.at
		if e.start {
			active = append(active, e.idx)
			continue
		}
		for k, i := range active {
			if i == e.idx {
				active = append(active[:k], active[k+1:]...)
				break
			}
		}
	}
	return self
}

// writeSpans dumps spans as JSON lines: one object per span with its name,
// service, client, op, id, parent and interval in nanoseconds.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		err = enc.Encode(struct {
			Name    string `json:"name"`
			Svc     string `json:"svc"`
			Client  uint8  `json:"client"`
			Op      uint32 `json:"op"`
			ID      uint32 `json:"id"`
			Parent  uint32 `json:"parent"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
			Bytes   int32  `json:"bytes"`
			Write   bool   `json:"write"`
		}{spanNames[s.name], svcNames[s.svc], s.client, s.op, s.id, s.parent, s.start, s.end, s.bytes, s.write})
		if err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
