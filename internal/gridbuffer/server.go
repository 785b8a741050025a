package gridbuffer

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"griddles/internal/admit"
	"griddles/internal/obs"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
	"griddles/internal/wire"
)

// Protocol message types. Both transports carry these frames: the binary one
// as they are, the SOAP one inside envelopes (internal/soap).
const (
	msgAttach         = 1
	msgAttachResp     = 2
	msgPut            = 3
	msgPutResp        = 4
	msgCloseWrite     = 7
	msgCloseWriteResp = 8
	msgDetach         = 9
	msgDetachResp     = 10
	msgDrop           = 11
	msgDropResp       = 12
	// 5 and 6 are reserved: they were the single-block GET and its answer,
	// which no reader has sent since GET-WIN. 13 and 14 are reserved too:
	// they were PUT-BATCH and its acknowledgement, which no writer has sent
	// since plain PUTs coalesce in the connection buffer. The server answers
	// all four like any unknown type.
	//
	// A windowed GET asks for a run of blocks and receives one response frame
	// per block, so a reader keeps N requests outstanding without N frames.
	msgGetWin     = 15
	msgGetWinResp = 16
	msgError      = rpc.MsgError
)

// Roles in an Attach request.
const (
	roleWriter = 0
	roleReader = 1
)

// Registry owns the named buffers of one Grid Buffer service instance.
type Registry struct {
	clock   simclock.Clock
	cacheFS vfs.FS

	mu        sync.RWMutex
	obs       *obs.Observer
	buffers   map[string]*Buffer
	pools     map[int]*sync.Pool // block payloads by block size, shared by every buffer
	defShards int                // applied when creating options leave Shards zero
	stopped   bool               // the server stopped: no buffer is made again

	windowDepth atomic.Pointer[obs.Histogram]
	flushBlocks atomic.Pointer[obs.Histogram]
}

// NewRegistry returns an empty Registry. cacheFS (may be nil) hosts cache
// files for buffers that enable them — on a testbed machine this is the
// machine's disk-cost-accounted file system.
func NewRegistry(clock simclock.Clock, cacheFS vfs.FS) *Registry {
	r := &Registry{clock: clock, cacheFS: cacheFS, buffers: make(map[string]*Buffer), pools: make(map[int]*sync.Pool)}
	r.setInstruments(nil)
	return r
}

// SetObserver routes metrics of all buffers — current and future — to o;
// nil discards them.
func (r *Registry) SetObserver(o *obs.Observer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = o
	r.setInstruments(o)
	for _, b := range r.buffers {
		b.SetObserver(o)
	}
}

func (r *Registry) setInstruments(o *obs.Observer) {
	r.windowDepth.Store(o.Histogram("buf.window.depth"))
	r.flushBlocks.Store(o.Histogram(obs.Key("buf.flush.blocks", "side", "server")))
}

// SetDefaultShards sets the block-table shard count applied to buffers
// whose creating options leave Shards zero (the usual case: clients rarely
// override it). Zero restores DefaultShards.
func (r *Registry) SetDefaultShards(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.defShards = n
}

// Bounds on the options an attach may ask for, which arrive from the network
// on both transports: a block must fit in one wire frame beside its PUT
// header, and the shard table — allocated whole when the buffer is made — is
// bounded far above anything in the tree (DefaultShards).
const (
	maxBlockSize = wire.MaxFrame - 64<<10
	maxShards    = 1 << 10
)

// GetOrCreate returns the buffer named key, creating it with opts on first
// use. Options of later attachers are ignored: the first attach wins, which
// is safe because writer and readers receive the same GNS mapping. Options
// out of range are refused, and no buffer is made; so is every buffer once
// the server has stopped.
func (r *Registry) GetOrCreate(key string, opts Options) (*Buffer, error) {
	if opts.BlockSize > maxBlockSize {
		return nil, fmt.Errorf("gridbuffer: block size %d exceeds limit %d", opts.BlockSize, maxBlockSize)
	}
	if opts.Shards > maxShards {
		return nil, fmt.Errorf("gridbuffer: %d shards exceeds limit %d", opts.Shards, maxShards)
	}
	r.mu.RLock()
	b, ok := r.buffers[key]
	r.mu.RUnlock()
	if ok {
		return b, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.buffers[key]; ok {
		return b, nil
	}
	if r.stopped {
		return nil, errors.New("gridbuffer: service stopped")
	}
	if opts.Cache && opts.CacheFS == nil {
		opts.CacheFS = r.cacheFS
	}
	if opts.Shards == 0 {
		opts.Shards = r.defShards
	}
	b = NewBuffer(r.clock, key, opts)
	// One pool per block size for the whole service: a finished stream's
	// payloads (Drop recycles them) serve the next stream instead of being
	// stranded in a pool nobody will use again.
	bs := b.BlockSize()
	if r.pools[bs] == nil {
		r.pools[bs] = b.pool
	}
	b.pool = r.pools[bs]
	if r.obs != nil {
		b.SetObserver(r.obs)
	}
	r.buffers[key] = b
	return b, nil
}

// Lookup returns the buffer named key, if present.
func (r *Registry) Lookup(key string) (*Buffer, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.buffers[key]
	return b, ok
}

// Drop removes and aborts the buffer named key, and removes its metrics
// from the observer's registry: keys are unbounded over a service's life.
func (r *Registry) Drop(key string) {
	r.mu.Lock()
	b, ok := r.buffers[key]
	delete(r.buffers, key)
	if ok {
		// Under r.mu, so a buffer re-created under the same key registers
		// its metrics after these are gone.
		r.obs.Registry().Remove(b.ins.Load().names...)
	}
	r.mu.Unlock()
	if ok {
		b.Drop()
	}
}

// stop drops every buffer, in key order, and refuses new ones from then on,
// so no handler can park on a buffer made after the drop.
func (r *Registry) stop() {
	r.mu.Lock()
	r.stopped = true
	keys := slices.Sorted(maps.Keys(r.buffers))
	r.mu.Unlock()
	for _, key := range keys {
		r.Drop(key)
	}
}

// Len reports the number of live buffers.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.buffers)
}

// Server exposes a Registry over the framed binary protocol.
type Server struct {
	reg    *Registry
	clock  simclock.Clock
	adm    *admit.Controller
	codecs []string
}

// NewServer returns a Server for reg.
func NewServer(reg *Registry, clock simclock.Clock) *Server {
	return &Server{reg: reg, clock: clock}
}

// Registry returns the served registry.
func (s *Server) Registry() *Registry { return s.reg }

// SetAdmission installs an admission controller; nil (the default) admits
// everything, preserving the unprotected server's behaviour bit for bit.
//
// Buffer admission is per stream, not per request: a connection's first
// Attach acquires one Bulk slot that is held until the connection closes.
// Mid-stream requests (put, get, acks) are never shed — shedding them would
// tear holes in the keep-until-ack replay protocol — so overload is pushed
// to stream setup, where a shed composes cleanly with the client's
// attach-level retry.
func (s *Server) SetAdmission(c *admit.Controller) { s.adm = c }

// SetCodecs restricts the block codecs this server will negotiate (the
// daemon's -codecs flag). Empty (the default) accepts everything this build
// supports; raw is always available regardless.
func (s *Server) SetCodecs(names []string) { s.codecs = names }

// connBufSize is the size of both buffers on every Grid Buffer connection,
// at either end: 15 PUT or GET-WIN response frames at the paper's 4096-byte
// block, and what a loopback or LAN socket moves in one call anyway. It is
// part of the protocol — where a socket write ends — not a tuning knob: the
// flush-before-block rule counts on a read buffer that holds many PUTs.
const connBufSize = 64 << 10

// Serve accepts connections until l is closed, each served by ServeConn.
// Admission is per stream: rpc.Serve holds the connection bound, and a
// connection's first Attach takes the stream's Bulk slot (see SetAdmission).
// Closing l also drops every buffer in the registry for good: a handler
// parked waiting for a block or for room never reads its connection again,
// so rpc.Serve closing the connection alone would not end it.
func (s *Server) Serve(l net.Listener) {
	rpc.Serve(rpc.OnClose(l, s.reg.stop), s.clock, "gridbuffer-conn", s.adm, s.ServeConn)
}

// ServeConn serves one connection with the shared request loop (see
// rpc.ServeConn), which answers every request already read before it
// flushes, until the peer goes away. It is the one dispatch of both
// transports: Serve runs it on binary connections, and soap.Serve on each
// SOAP request's frames.
func (s *Server) ServeConn(conn net.Conn) {
	c := &connState{srv: s, conn: conn}
	defer c.release()
	rpc.ServeConn(conn, nil, rpc.Handler{
		Buffers:  rpc.Buffers{Size: connBufSize, Flushes: s.reg.flushBlocks.Load()},
		Dispatch: c.dispatch,
	})
}

// connState is what a connection remembers between frames.
type connState struct {
	srv  *Server
	conn net.Conn
	// admitted releases the stream slot this connection's first Attach
	// took; nil until then.
	admitted func()
	// served is the serving end of the connection, made from what the first
	// request's Dispatch was handed; st points at it from then on.
	st     *rpc.Stream
	served rpc.Stream
	cs     rpc.StreamCodec
	// key and buf are what this connection's Attach resolved. Requests for
	// key use buf rather than looking the key up again, so a request still
	// in flight when the buffer is dropped (a reader's parting Detach) can
	// never land on a successor buffer created under the same key.
	key string
	buf *Buffer
}

func (c *connState) release() {
	if c.admitted != nil {
		c.admitted()
	}
}

// lookup returns the buffer a request for key addresses: the attached one,
// or — on connections that never attached, such as a connection-per-call
// writer's or reader's — whatever the registry holds now.
func (c *connState) lookup(key string) (*Buffer, error) {
	if c.buf != nil && key == c.key {
		return c.buf, nil
	}
	if b, ok := c.srv.reg.Lookup(key); ok {
		return b, nil
	}
	return nil, fmt.Errorf("gridbuffer: no buffer %q", key)
}

func decodeOptions(d *wire.Decoder) Options {
	var o Options
	o.BlockSize = int(d.U32())
	o.Capacity = int(d.U32())
	o.Cache = d.Bool()
	o.CachePath = d.String()
	o.Readers = int(d.U32())
	o.Shards = int(d.U32())
	return o
}

func encodeOptions(e *wire.Encoder, o Options) {
	e.U32(uint32(o.BlockSize))
	e.U32(uint32(o.Capacity))
	e.Bool(o.Cache)
	e.String(o.CachePath)
	e.U32(uint32(o.Readers))
	e.U32(uint32(o.Shards))
}

// maxWindowBlocks bounds the block count a windowed GET may ask for,
// protecting the server from a hostile count field.
const maxWindowBlocks = 4096

// getWinReq is a decoded windowed-GET frame: blocks [first, first+count)
// for readerID, acknowledging everything below ackBelow.
type getWinReq struct {
	key      string
	readerID int
	first    int64
	count    int
	ackBelow int64
}

func encodeGetWin(e *wire.Encoder, r getWinReq) {
	e.String(r.key)
	e.I64(int64(r.readerID))
	e.I64(r.first)
	e.U32(uint32(r.count))
	e.I64(r.ackBelow)
}

func decodeGetWin(d *wire.Decoder) (getWinReq, error) {
	var r getWinReq
	r.key = d.String()
	r.readerID = int(d.I64())
	r.first = d.I64()
	r.count = int(d.U32())
	r.ackBelow = d.I64()
	if err := d.Err(); err != nil {
		return r, err
	}
	if r.count < 0 || r.count > maxWindowBlocks {
		return r, fmt.Errorf("gridbuffer: get window of %d blocks exceeds limit %d", r.count, maxWindowBlocks)
	}
	return r, nil
}

func (c *connState) dispatch(w io.Writer, r *bufio.Reader, typ uint8, payload []byte) error {
	if c.st == nil {
		c.served = rpc.Over("gridbuffer", w, r)
		c.st = &c.served
	}
	st, cs, reg := c.st, &c.cs, c.srv.reg
	if typ == msgAttach && c.admitted == nil {
		rel, err := c.srv.adm.Acquire(admit.TenantOf(c.conn), admit.Bulk)
		if err != nil {
			// Answer with the shed (or a plain error frame when err is not
			// one), leaving the connection usable.
			var shed *admit.ShedError
			if errors.As(err, &shed) {
				return st.Frame(admit.MsgShed, admit.EncodeShed(shed))
			}
			return writeError(st, err)
		}
		c.admitted = rel
	}
	d := wire.NewDecoder(payload)
	switch typ {
	case msgAttach:
		key := d.String()
		role := d.U8()
		opts := decodeOptions(d)
		// prev is the reader ID of an earlier attach this request resumes
		// (-1 for a first attach), so a reconnected reader keeps its
		// identity in broadcast accounting.
		prev := int(d.I64())
		// A codec-capable client appends the codec it wants; a request
		// that ends at prev means a raw stream.
		reqCodec := ""
		if d.Err() == nil && d.Remaining() > 0 {
			reqCodec = d.String()
		}
		if err := d.Err(); err != nil {
			return writeError(st, err)
		}
		b, err := reg.GetOrCreate(key, opts)
		if err != nil {
			return writeError(st, err)
		}
		c.key, c.buf = key, b
		readerID := -1
		if role == roleReader {
			readerID = b.Reattach(prev)
		}
		e := wire.NewEncoder()
		e.I64(int64(readerID)).U32(uint32(b.BlockSize()))
		if reqCodec != "" {
			chosen := wire.NegotiateCodec(reqCodec, c.srv.codecs)
			codec, err := wire.ForName(chosen)
			if err != nil {
				return writeError(st, err)
			}
			cs.Block = codec
			e.String(chosen)
		}
		return st.Frame(msgAttachResp, e.Bytes())

	case msgPut:
		key := d.Bytes32()
		idx := d.I64()
		data := d.Bytes32()
		if err := d.Err(); err != nil {
			return writeError(st, err)
		}
		data, derr := cs.Decode(data)
		if derr != nil {
			return writeError(st, derr)
		}
		// The attached buffer is found by comparing the key's bytes, which
		// makes no string of them; only a connection that never attached
		// pays for one.
		b := c.buf
		if b == nil || string(key) != c.key {
			var err error
			if b, err = c.lookup(string(key)); err != nil {
				return writeError(st, err)
			}
		}
		if err := b.put(idx, data, c.flushHeld); err != nil {
			return writeError(st, err)
		}
		return st.Frame(msgPutResp)

	case msgGetWin:
		req, err := decodeGetWin(d)
		if err != nil {
			return writeError(st, err)
		}
		b, err := c.lookup(req.key)
		if err != nil {
			return writeError(st, err)
		}
		if req.ackBelow > 0 {
			b.AckBelow(req.readerID, req.ackBelow)
		}
		reg.windowDepth.Load().Observe(int64(req.count))
		// One response frame per block. Responses queue while the blocks are
		// there to be had and are flushed before a read that has to wait for
		// the writer: a reader that is behind gets many blocks per socket
		// write, a reader that has caught up gets each block as it lands, and
		// the blocking read of block k still overlaps the delivery of blocks
		// < k. The block payload is written vectored, straight from the
		// resident block (or the connection's compression arena) — no
		// per-block copy, no per-block allocation. The block is pinned while
		// it is framed, so nothing recycles its memory meanwhile, and the
		// shard lock is not held: a frame that fills the connection buffer
		// writes to the socket.
		e := wire.NewEncoder()
		for i := 0; i < req.count; i++ {
			idx := req.first + int64(i)
			if !b.Ready(idx) {
				if err := st.Flush(); err != nil {
					return err
				}
			}
			blk, data, eof, err := b.pin(req.readerID, idx, false)
			if err != nil {
				return writeError(st, err)
			}
			out, err := cs.Encode(data)
			if err == nil {
				e.Reset()
				e.I64(idx).Bool(eof).U32(uint32(len(out)))
				err = st.Frame(msgGetWinResp, e.Bytes(), out)
			}
			b.release(blk)
			if err != nil {
				return err
			}
		}
		return nil

	case msgCloseWrite:
		key := d.String()
		total := d.I64()
		if err := d.Err(); err != nil {
			return writeError(st, err)
		}
		b, err := c.lookup(key)
		if err != nil {
			return writeError(st, err)
		}
		if err := b.CloseWrite(total); err != nil {
			return writeError(st, err)
		}
		return st.Frame(msgCloseWriteResp)

	case msgDetach:
		key := d.String()
		readerID := int(d.I64())
		if err := d.Err(); err != nil {
			return writeError(st, err)
		}
		if b, err := c.lookup(key); err == nil {
			b.Detach(readerID)
		}
		return st.Frame(msgDetachResp)

	case msgDrop:
		key := d.String()
		if err := d.Err(); err != nil {
			return writeError(st, err)
		}
		reg.Drop(key)
		return st.Frame(msgDropResp)

	default:
		return writeError(st, fmt.Errorf("gridbuffer: unknown message type %d", typ))
	}
}

// flushHeld sends the answers the connection is holding; a put about to
// stall on capacity calls it so the writer is not left waiting for
// acknowledgements queued behind the stall. A failed flush resurfaces at the
// connection's next write.
func (c *connState) flushHeld() { _ = c.st.Flush() }

func writeError(st *rpc.Stream, err error) error {
	return st.Frame(msgError, wire.NewEncoder().String(err.Error()).Bytes())
}
