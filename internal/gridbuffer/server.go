package gridbuffer

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"griddles/internal/admit"
	"griddles/internal/obs"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
	"griddles/internal/wire"
)

// Protocol message types (binary transport; internal/soap carries the same
// operations in SOAP envelopes).
const (
	msgAttach         = 1
	msgAttachResp     = 2
	msgPut            = 3
	msgPutResp        = 4
	msgGet            = 5
	msgGetResp        = 6
	msgCloseWrite     = 7
	msgCloseWriteResp = 8
	msgDetach         = 9
	msgDetachResp     = 10
	msgDrop           = 11
	msgDropResp       = 12
	// 13 and 14 are reserved: they were PUT-BATCH and its acknowledgement,
	// which no writer has sent since plain PUTs coalesce in the connection
	// buffer. The server answers them like any unknown type.
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

// GetOrCreate returns the buffer named key, creating it with opts on first
// use. Options of later attachers are ignored: the first attach wins, which
// is safe because writer and readers receive the same GNS mapping.
func (r *Registry) GetOrCreate(key string, opts Options) *Buffer {
	r.mu.RLock()
	b, ok := r.buffers[key]
	r.mu.RUnlock()
	if ok {
		return b
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.buffers[key]; ok {
		return b
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
	return b
}

// Lookup returns the buffer named key, if present.
func (r *Registry) Lookup(key string) (*Buffer, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.buffers[key]
	return b, ok
}

// Drop removes and aborts the buffer named key.
func (r *Registry) Drop(key string) {
	r.mu.Lock()
	b, ok := r.buffers[key]
	delete(r.buffers, key)
	r.mu.Unlock()
	if ok {
		b.Drop()
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

// Serve accepts connections until l is closed (see rpc.Serve). The request
// loop is this package's own: admission is per stream, taken at the first
// Attach, and answers leave when the next read would block (see handle).
func (s *Server) Serve(l net.Listener) {
	rpc.Serve(l, s.clock, "gridbuffer-conn", s.adm, s.handle)
}

// connState is what a connection remembers between frames.
type connState struct {
	fw *frameWriter
	cs rpc.StreamCodec
	// key and buf are what this connection's Attach resolved. Requests for
	// key use buf rather than looking the key up again, so a request still
	// in flight when the buffer is dropped (a reader's parting Detach) can
	// never land on a successor buffer created under the same key.
	key string
	buf *Buffer
}

// lookup returns the buffer a request for key addresses: the attached one,
// or — on connections that never attached, such as a connection-per-call
// writer's — whatever the registry holds now.
func (st *connState) lookup(reg *Registry, key string) (*Buffer, error) {
	if st.buf != nil && key == st.key {
		return st.buf, nil
	}
	if b, ok := reg.Lookup(key); ok {
		return b, nil
	}
	return nil, fmt.Errorf("gridbuffer: no buffer %q", key)
}

func (s *Server) handle(conn net.Conn) {
	// admitted is the stream slot taken by this connection's first Attach,
	// released when the connection goes away.
	var admitted func()
	br := readBufPool.Get().(*bufio.Reader)
	bw := writeBufPool.Get().(*bufio.Writer)
	br.Reset(conn)
	bw.Reset(conn)
	defer func() {
		conn.Close()
		if admitted != nil {
			admitted()
		}
		br.Reset(nil)
		bw.Reset(nil)
		readBufPool.Put(br)
		writeBufPool.Put(bw)
	}()
	tenant := admit.TenantOf(conn)
	st := &connState{fw: &frameWriter{bw: bw, hist: s.reg.flushBlocks.Load()}}
	var frameBuf []byte
	for {
		// Answer every request already in the read buffer before sending any
		// answer: the flush happens only when the next read would block.
		if !wire.FrameBuffered(br) {
			if err := st.fw.flush(); err != nil {
				return
			}
		}
		typ, payload, err := wire.ReadFrameInto(br, &frameBuf)
		if err != nil {
			return
		}
		if typ == msgAttach && admitted == nil {
			rel, aerr := s.adm.Acquire(tenant, admit.Bulk)
			if aerr != nil {
				// Answer with the shed (or a plain error frame when aerr is not
				// one), leaving the connection usable.
				var shed *admit.ShedError
				if errors.As(aerr, &shed) {
					err = st.fw.frame(admit.MsgShed, admit.EncodeShed(shed))
				} else {
					err = writeError(st.fw, aerr)
				}
				if err != nil {
					return
				}
				continue
			}
			admitted = rel
		}
		if err := s.dispatch(st, typ, payload); err != nil {
			return
		}
	}
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

func (s *Server) dispatch(st *connState, typ uint8, payload []byte) error {
	w, cs := st.fw, &st.cs
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
			return writeError(w, err)
		}
		b := s.reg.GetOrCreate(key, opts)
		st.key, st.buf = key, b
		readerID := -1
		if role == roleReader {
			readerID = b.Reattach(prev)
		}
		e := wire.NewEncoder()
		e.I64(int64(readerID)).U32(uint32(b.BlockSize()))
		if reqCodec != "" {
			chosen := wire.NegotiateCodec(reqCodec, s.codecs)
			codec, err := wire.ForName(chosen)
			if err != nil {
				return writeError(w, err)
			}
			cs.Block = codec
			e.String(chosen)
		}
		return w.frame(msgAttachResp, e.Bytes())

	case msgPut:
		key := d.String()
		idx := d.I64()
		data := d.Bytes32()
		if err := d.Err(); err != nil {
			return writeError(w, err)
		}
		data, derr := cs.Decode(data)
		if derr != nil {
			return writeError(w, derr)
		}
		b, err := st.lookup(s.reg, key)
		if err != nil {
			return writeError(w, err)
		}
		if err := b.put(idx, data, st.flushHeld); err != nil {
			return writeError(w, err)
		}
		return w.frame(msgPutResp)

	case msgGet:
		key := d.String()
		readerID := int(d.I64())
		idx := d.I64()
		// ackBelow acknowledges safe receipt of every block < ackBelow; the
		// requested block itself stays resident until a later ack, so a
		// response lost on the wire can be re-requested after reconnect.
		ackBelow := d.I64()
		if err := d.Err(); err != nil {
			return writeError(w, err)
		}
		b, err := st.lookup(s.reg, key)
		if err != nil {
			return writeError(w, err)
		}
		if ackBelow > 0 {
			b.AckBelow(readerID, ackBelow)
		}
		if err := st.flushUnlessReady(b, idx); err != nil {
			return err
		}
		data, eof, err := b.GetKeep(readerID, idx)
		if err != nil {
			return writeError(w, err)
		}
		out, err := cs.Encode(data)
		if err == nil {
			e := wire.NewEncoder()
			e.Bool(eof).U32(uint32(len(out)))
			err = w.frame(msgGetResp, e.Bytes(), out)
		}
		b.Recycle(data)
		return err

	case msgGetWin:
		req, err := decodeGetWin(d)
		if err != nil {
			return writeError(w, err)
		}
		b, err := st.lookup(s.reg, req.key)
		if err != nil {
			return writeError(w, err)
		}
		if req.ackBelow > 0 {
			b.AckBelow(req.readerID, req.ackBelow)
		}
		s.reg.windowDepth.Load().Observe(int64(req.count))
		// One response frame per block. Responses queue while the blocks are
		// there to be had and are flushed before a read that has to wait for
		// the writer: a reader that is behind gets many blocks per socket
		// write, a reader that has caught up gets each block as it lands, and
		// the blocking read of block k still overlaps the delivery of blocks
		// < k. The block payload is written vectored, straight from the
		// buffer (or the connection's compression arena) — no per-block
		// assembly copy, no per-block allocation.
		e := wire.NewEncoder()
		for i := 0; i < req.count; i++ {
			idx := req.first + int64(i)
			if err := st.flushUnlessReady(b, idx); err != nil {
				return err
			}
			data, eof, err := b.GetKeep(req.readerID, idx)
			if err != nil {
				return writeError(w, err)
			}
			out, err := cs.Encode(data)
			if err == nil {
				e.Reset()
				e.I64(idx).Bool(eof).U32(uint32(len(out)))
				err = w.frame(msgGetWinResp, e.Bytes(), out)
			}
			b.Recycle(data)
			if err != nil {
				return err
			}
		}
		return nil

	case msgCloseWrite:
		key := d.String()
		total := d.I64()
		if err := d.Err(); err != nil {
			return writeError(w, err)
		}
		b, err := st.lookup(s.reg, key)
		if err != nil {
			return writeError(w, err)
		}
		if err := b.CloseWrite(total); err != nil {
			return writeError(w, err)
		}
		return w.frame(msgCloseWriteResp)

	case msgDetach:
		key := d.String()
		readerID := int(d.I64())
		if err := d.Err(); err != nil {
			return writeError(w, err)
		}
		if b, err := st.lookup(s.reg, key); err == nil {
			b.Detach(readerID)
		}
		return w.frame(msgDetachResp)

	case msgDrop:
		key := d.String()
		if err := d.Err(); err != nil {
			return writeError(w, err)
		}
		s.reg.Drop(key)
		return w.frame(msgDropResp)

	default:
		return writeError(w, fmt.Errorf("gridbuffer: unknown message type %d", typ))
	}
}

// flushHeld sends the responses the connection is holding; a put about to
// stall on capacity calls it so the writer is not left waiting for
// acknowledgements queued behind the stall. A failed flush resurfaces at the
// connection's next write.
func (st *connState) flushHeld() { _ = st.fw.flush() }

// flushUnlessReady sends the held responses if a read of block idx would
// have to wait for the writer.
func (st *connState) flushUnlessReady(b *Buffer, idx int64) error {
	if b.Ready(idx) {
		return nil
	}
	return st.fw.flush()
}

func writeError(fw *frameWriter, err error) error {
	return fw.frame(msgError, wire.NewEncoder().String(err.Error()).Bytes())
}
