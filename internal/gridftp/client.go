package gridftp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
	"griddles/internal/wire"
	"griddles/internal/xdr"
)

// Dialer opens connections to service addresses.
type Dialer = rpc.Dialer

// errStaleHandle signals that a remote handle belongs to a connection the
// client has since dropped; the server-side handle died with it. The retry
// path reopens the file on the fresh connection and re-issues the request.
var errStaleHandle = errors.New("gridftp: stale handle")

// Client talks to one remote file server. Request/response operations share
// one persistent connection; bulk Fetch/Put transfers use dedicated
// connections so they can stream without blocking block IO.
//
// With a retry policy set (SetRetry), every operation survives transport
// faults: the shared connection is redialed, stale handles are transparently
// reopened, and interrupted Fetch streams resume from the last byte
// delivered. Server-reported errors ("no such file") are never retried.
type Client struct {
	dialer Dialer
	addr   string
	clock  simclock.Clock
	// Cached instruments (discard instruments until SetObserver), so the
	// per-Read hit/miss accounting is one atomic add, not a registry lookup.
	readaheadHit  *obs.Counter
	readaheadMiss *obs.Counter
	copyinBytes   *obs.Counter
	copyoutBytes  *obs.Counter
	copyStreams   *obs.Histogram
	writeFlush    *obs.Counter
	writeCoalesce *obs.Counter

	// codecName is the stream codec requested for bulk Fetch/Put transfers
	// ("" or "raw" = no negotiation frame at all, byte-identical wire).
	codecName string
	// schemas maps remote paths to their registered record layout for
	// columnar encoding.
	schemaMu sync.RWMutex
	schemas  map[string]schemaEntry

	o              *obs.Observer
	codecRawBytes  *obs.Counter
	codecWireBytes *obs.Counter

	// rc is the shared connection. A RemoteFile remembers the dial
	// generation its handle was opened under; a mismatch means the handle is
	// stale.
	rc *rpc.Conn
}

// NewClient returns a Client for the file service at addr.
func NewClient(dialer Dialer, addr string, clock simclock.Clock) *Client {
	c := &Client{dialer: dialer, addr: addr, clock: clock, rc: rpc.NewConn("gridftp", dialer, addr, clock)}
	c.SetObserver(nil)
	return c
}

// SetObserver routes this client's metrics (read-ahead hit rate, copy
// traffic, parallel-stream use) to o; nil discards them. Call before
// issuing requests; the File Multiplexer sets it on every pooled client it
// creates.
func (c *Client) SetObserver(o *obs.Observer) {
	c.o = o
	c.codecRawBytes = o.Counter("wire.codec.raw.bytes")
	c.codecWireBytes = o.Counter("wire.codec.wire.bytes")
	c.readaheadHit = o.Counter("ftp.readahead.hit.total")
	c.readaheadMiss = o.Counter("ftp.readahead.miss.total")
	c.copyinBytes = o.Counter("ftp.copyin.bytes")
	c.copyoutBytes = o.Counter("ftp.copyout.bytes")
	c.copyStreams = o.Histogram("ftp.copy.streams")
	c.writeFlush = o.Counter("ftp.write.flush.total")
	c.writeCoalesce = o.Counter("ftp.write.coalesce.total")
}

// SetRetry installs the resilience policy.
func (c *Client) SetRetry(p retry.Policy) { c.rc.Retry = p }

// SetCodec requests a stream codec for bulk Fetch/Put transfers. "" or
// "raw" (the default) sends no negotiation frame at all, so the wire bytes
// are those of a peer that knows no codecs; any other codec is proposed to
// the server at stream open and transparently dropped to raw when the peer
// does not speak it.
func (c *Client) SetCodec(name string) { c.codecName = name }

// Codec reports the codec SetCodec configured.
func (c *Client) Codec() string { return c.codecName }

type schemaEntry struct {
	schema xdr.Schema
	order  binary.ByteOrder
}

// RegisterSchema declares the fixed record layout of a remote path (and
// the byte order its bytes are in), enabling the columnar transform on
// codec-negotiated transfers of that path. Paths without a schema still
// compress; they just skip the columnar reorder.
func (c *Client) RegisterSchema(remotePath string, s xdr.Schema, order binary.ByteOrder) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, err := orderToCode(order); err != nil {
		return err
	}
	c.schemaMu.Lock()
	defer c.schemaMu.Unlock()
	if c.schemas == nil {
		c.schemas = make(map[string]schemaEntry)
	}
	c.schemas[remotePath] = schemaEntry{schema: s, order: order}
	return nil
}

func (c *Client) schemaFor(path string) (*xdr.Schema, binary.ByteOrder) {
	c.schemaMu.RLock()
	defer c.schemaMu.RUnlock()
	if e, ok := c.schemas[path]; ok {
		s := e.schema
		return &s, e.order
	}
	return nil, nil
}

// negotiate runs the capability exchange on a dedicated bulk connection; an
// upload queues the frame (it leaves alone, in one write), a download sends it
// as it sends its request. It returns nil (raw) when no codec is configured,
// when the server answers raw, or when an old server rejects the unknown
// message type and keeps the connection — the transparent-fallback path
// proven by the mixed-version tests.
func (c *Client) negotiate(s *rpc.Stream, path string, upload bool) (*rpc.StreamCodec, error) {
	if c.codecName == "" || c.codecName == wire.CodecRaw {
		return nil, nil
	}
	schema, order := c.schemaFor(path)
	payload, err := encodeNegotiate(c.codecName, schema, order)
	if err != nil {
		return nil, err
	}
	if upload {
		err = wire.WriteFrame(s.Queue(), msgNegotiate, payload)
	} else {
		err = s.Request(msgNegotiate, payload)
	}
	if err != nil {
		return nil, err
	}
	_, resp, err := s.Reply(msgNegotiateResp)
	var old *rpc.ServerError
	if errors.As(err, &old) {
		c.noteNegotiate(wire.CodecRaw, "old-peer")
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	chosen := d.String()
	columnar := d.Bool()
	if err := d.Err(); err != nil {
		return nil, retry.Permanent(err)
	}
	codec, err := wire.ForName(chosen)
	if err != nil {
		return nil, retry.Permanent(fmt.Errorf("gridftp: server chose %w", err))
	}
	if codec == nil {
		c.noteNegotiate(wire.CodecRaw, "server-raw")
		return nil, nil
	}
	sc := &rpc.StreamCodec{Block: codec, Raw: c.codecRawBytes, Wire: c.codecWireBytes}
	if columnar && schema != nil {
		sc.Schema, sc.Order = schema, order
	}
	c.noteNegotiate(chosen, "negotiated")
	return sc, nil
}

func (c *Client) noteNegotiate(codec, how string) {
	c.o.Counter(obs.Key("wire.codec.negotiate.total", "codec", codec, "how", how)).Inc()
}

// Addr reports the server address.
func (c *Client) Addr() string { return c.addr }

// Close releases the shared connection (open remote handles die with it).
func (c *Client) Close() error { return c.rc.Close() }

// handleTrip is a round trip for handle-scoped requests: it fails with
// errStaleHandle when the shared connection is no longer the one the handle
// was opened on. The payload parts are written without joining them; the
// reply lands in *into (nil: a fresh payload), as rpc.Conn.CallLocked says.
func (c *Client) handleTrip(into *[]byte, gen uint64, reqType uint8, payload ...[]byte) (uint8, []byte, error) {
	c.rc.Lock()
	defer c.rc.Unlock()
	if err := c.rc.DialLocked(); err != nil {
		return 0, nil, err
	}
	if c.rc.GenLocked() != gen {
		return 0, nil, errStaleHandle
	}
	return c.rc.CallLocked(into, reqType, payload...)
}

// Stat reports whether path exists on the server and its size.
func (c *Client) Stat(path string) (size int64, exists bool, err error) {
	resp, err := c.rc.Do("gridftp.stat", msgStat, msgStatResp, wire.NewEncoder().String(path).Bytes())
	if err != nil {
		return 0, false, err
	}
	d := wire.NewDecoder(resp)
	exists = d.Bool()
	size = d.I64()
	if err := d.Err(); err != nil {
		return 0, false, err
	}
	return size, exists, nil
}

// Open opens path on the server with os-style flags and returns a handle
// supporting block-granular remote IO — the paper's "proxy file server"
// access mode.
func (c *Client) Open(path string, flag int) (*RemoteFile, error) {
	f := &RemoteFile{c: c, name: path, flag: flag, ReadAhead: rpc.WindowMax}
	err := c.rc.Retry.Do("gridftp.open", func(int) error { return f.ensureHandle() })
	if err != nil {
		return nil, err
	}
	return f, nil
}

// The two transfers of the data channel (see rpc.Stream): what the server
// sends for a fetch and what the client sends for a put.
var (
	fetchFrames = rpc.Frames{Verb: "fetch", Hdr: msgFetchHdr, Data: msgFetchData, End: msgFetchEnd}
	putFrames   = rpc.Frames{Verb: "put", Hdr: msgPut, Data: msgPutData, End: msgPutEnd}
)

// open dials a dedicated connection for one bulk transfer, a one-shot
// exchange: the caller closes it before it returns, which hands its buffers
// back.
func (c *Client) open() (*rpc.Stream, error) {
	return rpc.OpenOnce("gridftp", rpc.Buffers{}, c.dialer, c.addr, c.clock, c.rc.Retry.Timeout())
}

// Fetch streams [off, off+length) of path into w over a dedicated
// connection; length < 0 means the rest of the file. It returns the byte
// count transferred. With a retry policy set, a broken stream resumes from
// the last byte written to w (w only ever sees each byte once).
func (c *Client) Fetch(path string, off, length int64, w io.Writer) (int64, error) {
	return rpc.Resume(c.rc.Retry, "gridftp.fetch", length, func(done, remaining int64) (int64, error) {
		s, err := c.open()
		if err != nil {
			return 0, err
		}
		defer s.Close()
		sc, err := c.negotiate(s, path, false)
		if err != nil {
			return 0, err
		}
		_, resp, err := s.Call(msgFetch, wire.NewEncoder().String(path).I64(off+done).I64(remaining).Bytes(), msgFetchHdr)
		if err != nil {
			return 0, err
		}
		return s.Recv(fetchFrames, wire.NewDecoder(resp).I64(), w, sc)
	})
}

// Put streams r to path on the server over a dedicated connection,
// creating or truncating it. It returns the byte count transferred. With a
// retry policy set, a broken transfer restarts from the beginning when r is
// an io.Seeker (the server truncates on each attempt, so no byte is
// duplicated); a non-seekable source fails permanently once bytes have been
// consumed.
func (c *Client) Put(path string, r io.Reader) (int64, error) {
	return rpc.Replay(c.rc.Retry, "gridftp.put", path, r, func(r *rpc.Source) (int64, error) {
		s, err := c.open()
		if err != nil {
			return 0, err
		}
		defer s.Close()
		sc, err := c.negotiate(s, path, true)
		if err != nil {
			return 0, err
		}
		if err := s.Send(putFrames, wire.NewEncoder().String(path).Bytes(), r, streamChunk, sc); err != nil {
			return 0, err
		}
		_, resp, err := s.Reply(msgPutResp)
		if err != nil {
			return 0, err
		}
		d := wire.NewDecoder(resp)
		total := d.I64()
		return total, retry.Permanent(d.Err())
	})
}

// RemoteFile is an open handle on the server, with sequential read-ahead and
// its mirror image on the write side: small sequential writes gather in one
// contiguous dirty run that crosses the wire as a single block (see WriteAt).
// Like an os.File position, a handle is for one goroutine at a time.
type RemoteFile struct {
	c      *Client
	handle uint64 // 0 = not yet opened (server handles start at 1)
	gen    uint64 // client conn generation the handle was opened under
	name   string
	flag   int
	size   int64
	pos    int64

	// ReadAhead caps the read-ahead window: a Read that misses it asks for
	// the window's next length (rpc.NextWindow: 64 KiB, doubling while reads
	// stay sequential) but no more than ReadAhead, and never less than the
	// caller's own length. Larger windows hide latency (the paper's GridFTP
	// observation); the default is the rule's own cap, 256 KiB, and 1 turns
	// read-ahead off.
	ReadAhead int

	// reply is the handle's reply buffer: a read up to the window cap lands
	// in it, and the window aliases it. Whatever reads into it drops the
	// window first (see readRemote).
	reply  []byte
	buf    []byte // read-ahead window: file bytes from bufOff
	bufOff int64
	ahead  int  // length the last refill asked for, before the caps
	eof    bool // server reported EOF at the end of buf
	closed bool

	// run holds written bytes the server has not been sent yet: one
	// contiguous range starting at file offset runOff, at most streamChunk
	// long. It is emptied only once the server acknowledged it, so a retry
	// after a reconnect replays it whole.
	run    []byte
	runOff int64
}

// Name reports the remote path.
func (f *RemoteFile) Name() string { return f.name }

// Size reports the file size observed at Open.
func (f *RemoteFile) Size() int64 { return f.size }

// ensureHandle (re)opens the remote handle on the client's current shared
// connection when the handle is unset or stale.
func (f *RemoteFile) ensureHandle() error {
	rc := f.c.rc
	rc.Lock()
	defer rc.Unlock()
	if err := rc.DialLocked(); err != nil {
		return err
	}
	if f.handle != 0 && f.gen == rc.GenLocked() {
		return nil
	}
	flag := f.flag
	if f.handle != 0 {
		// A reopen after reconnect must not retruncate what earlier attempts
		// already wrote through this handle.
		flag &^= os.O_TRUNC | os.O_EXCL
	}
	e := wire.NewEncoder().String(f.name).U32(uint32(flag))
	typ, resp, err := rc.CallLocked(nil, msgOpen, e.Bytes())
	if err != nil {
		return err
	}
	if typ != msgOpenResp {
		return retry.Permanent(fmt.Errorf("gridftp: unexpected reply %d", typ))
	}
	d := wire.NewDecoder(resp)
	h := d.U64()
	size := d.I64()
	if err := d.Err(); err != nil {
		return retry.Permanent(err)
	}
	f.handle, f.gen = h, rc.GenLocked()
	if size > f.size {
		f.size = size
	}
	return nil
}

// ReadAt implements io.ReaderAt with one round trip per call. It sends the
// dirty run first (the read barrier), so the handle always reads its own
// writes, and drops the read-ahead window, whose buffer the reply reuses.
func (f *RemoteFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, errors.New("gridftp: file closed")
	}
	f.invalidate()
	data, eof, err := f.readRemote(off, len(p))
	if err != nil {
		return 0, err
	}
	n := copy(p, data)
	if eof && (n < len(p) || n == 0) {
		return n, io.EOF
	}
	return n, nil
}

// readRemote is one msgRead round trip for up to n bytes at off, after the
// dirty run: the bytes, aliasing the reply, and whether the server reported
// EOF. A read up to the window cap lands in the handle's reply buffer, so the
// caller must have dropped the window first; a larger one gets a fresh
// payload, so the handle keeps no buffer larger than the cap.
func (f *RemoteFile) readRemote(off int64, n int) (data []byte, eof bool, err error) {
	if err := f.flushRun(); err != nil {
		return nil, false, err
	}
	into := &f.reply
	if n > rpc.WindowMax {
		into = nil
	}
	err = f.c.rc.Retry.Do("gridftp.read", func(int) error {
		if err := f.ensureHandle(); err != nil {
			return err
		}
		e := wire.NewEncoder().U64(f.handle).I64(off).U32(uint32(n))
		typ, resp, err := f.c.handleTrip(into, f.gen, msgRead, e.Bytes())
		if err != nil {
			return err
		}
		if typ != msgReadResp {
			return retry.Permanent(fmt.Errorf("gridftp: unexpected reply %d", typ))
		}
		d := wire.NewDecoder(resp)
		eof = d.Bool()
		data = d.Bytes32()
		return retry.Permanent(d.Err())
	})
	return data, eof, err
}

// Read implements io.Reader with read-ahead: a Read the window cannot answer
// refills it with one round trip, for the window's next length even when the
// caller asks for less (see ReadAhead).
func (f *RemoteFile) Read(p []byte) (int, error) {
	if f.closed {
		return 0, errors.New("gridftp: file closed")
	}
	end := f.bufOff + int64(len(f.buf))
	if f.pos >= f.bufOff && f.pos < end {
		f.c.readaheadHit.Inc()
		n := copy(p, f.buf[f.pos-f.bufOff:])
		f.pos += int64(n)
		return n, nil
	}
	f.c.readaheadMiss.Inc()
	// Past the end of a window the server already flagged as final.
	if f.eof && f.pos >= end {
		return 0, io.EOF
	}
	f.ahead = rpc.NextWindow(f.ahead, f.pos == end && len(f.buf) > 0)
	want := max(min(f.ahead, f.ReadAhead), len(p), 1)
	// The refill overwrites the buffer the old window lives in, so the old
	// window is gone from here on, whether the refill succeeds or not.
	f.invalidate()
	data, eof, err := f.readRemote(f.pos, want)
	if err != nil {
		return 0, err
	}
	f.buf, f.bufOff = data, f.pos
	f.eof = eof && len(data) < want
	if len(data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, data)
	f.pos += int64(n)
	return n, nil
}

// WriteAt implements io.WriterAt. Writes coalesce the way reads read ahead:
// a write shorter than streamChunk that starts exactly where the dirty run
// ends, and fits, only appends to it. The run leaves as one msgWrite — from
// this goroutine, through the retry path — when it is full, when a write
// arrives that cannot extend it, at a read through this handle, or at Close;
// a write of streamChunk or more goes out directly. Sends are in call order,
// so the newest write wins on the server as it does locally. A failed send
// is reported by the call that made it, and the run it could not deliver
// stays for the next of those occasions to send again. The handle's size and
// read-ahead state update immediately, so Seek(END) and reads through this
// handle see the write.
func (f *RemoteFile) WriteAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, errors.New("gridftp: file closed")
	}
	if len(f.run) > 0 && (off != f.runOff+int64(len(f.run)) || len(f.run)+len(p) > streamChunk) {
		if err := f.flushRun(); err != nil {
			return 0, err
		}
	}
	switch {
	case len(p) >= streamChunk: // the run is empty by now
		if err := f.writeAtRemote(p, off); err != nil {
			return 0, err
		}
	case len(f.run) > 0:
		f.c.writeCoalesce.Inc()
		f.run = append(f.run, p...)
	default:
		if f.run == nil {
			f.run = make([]byte, 0, streamChunk)
		}
		f.runOff = off
		f.run = append(f.run, p...)
	}
	if end := off + int64(len(p)); end > f.size {
		f.size = end
	}
	f.invalidate()
	if len(f.run) == streamChunk {
		if err := f.flushRun(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// flushRun sends the dirty run, if any, and empties it once acknowledged.
func (f *RemoteFile) flushRun() error {
	if len(f.run) == 0 {
		return nil
	}
	if err := f.writeAtRemote(f.run, f.runOff); err != nil {
		return err
	}
	f.run = f.run[:0]
	f.c.writeFlush.Inc()
	return nil
}

// writeAtRemote performs one write round trip, header and data as separate
// frame parts so the data is not copied into an Encoder first.
func (f *RemoteFile) writeAtRemote(p []byte, off int64) error {
	return f.c.rc.Retry.Do("gridftp.write", func(int) error {
		if err := f.ensureHandle(); err != nil {
			return err
		}
		hdr := wire.NewEncoder().U64(f.handle).I64(off).U32(uint32(len(p)))
		typ, resp, err := f.c.handleTrip(nil, f.gen, msgWrite, hdr.Bytes(), p)
		if err != nil {
			return err
		}
		if typ != msgWriteResp {
			return retry.Permanent(fmt.Errorf("gridftp: unexpected reply %d", typ))
		}
		d := wire.NewDecoder(resp)
		n := int(d.U32())
		if err := d.Err(); err != nil {
			return retry.Permanent(err)
		}
		if n != len(p) {
			return retry.Permanent(fmt.Errorf("gridftp: short remote write: %d of %d bytes", n, len(p)))
		}
		return nil
	})
}

// Write implements io.Writer at the sequential position.
func (f *RemoteFile) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// Seek implements io.Seeker against the size observed at Open (or grown by
// writes through this handle).
func (f *RemoteFile) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = f.size
	default:
		return 0, fmt.Errorf("gridftp: bad whence %d", whence)
	}
	npos := base + offset
	if npos < 0 {
		return 0, errors.New("gridftp: negative seek")
	}
	f.pos = npos
	return npos, nil
}

// invalidate discards the read-ahead window: after a write, and before
// anything reads into the reply buffer the window aliases.
func (f *RemoteFile) invalidate() {
	f.buf, f.bufOff, f.eof = nil, 0, false
}

// Close sends the dirty run and releases the server-side handle; it is the
// durability point, and a run it cannot deliver is its error. A handle whose
// connection already died needs no release — the server drops its
// per-connection handle table — so Close reports success in that case.
func (f *RemoteFile) Close() error {
	if f.closed {
		return nil
	}
	flushErr := f.flushRun()
	f.closed = true
	rc := f.c.rc
	rc.Lock()
	defer rc.Unlock()
	if f.handle == 0 || rc.GenLocked() != f.gen {
		return flushErr
	}
	typ, _, err := rc.CallLocked(nil, msgClose, wire.NewEncoder().U64(f.handle).Bytes())
	if err != nil {
		if f.c.rc.Retry.Enabled() && !retry.IsPermanent(err) {
			return flushErr // transport died, and the handle with it
		}
		return err
	}
	if typ != msgCloseResp {
		return fmt.Errorf("gridftp: unexpected reply %d", typ)
	}
	return flushErr
}

// CopyIn pulls remotePath from the server into localPath on fsys using the
// given number of parallel stripe streams (1 = plain single-stream copy).
// It returns the number of bytes copied.
//
// The copy overwrites localPath in place and, once every byte has landed,
// cuts it to the byte count delivered: truncating to zero first and writing
// again costs a file system such as ext4 block freeing and reallocation on
// every stage-in (DESIGN.md §30). The cut is to what arrived, not to the
// Stat size, since the remote may change between the two. A failed copy
// leaves localPath holding old and new bytes; the caller treats it as
// unstaged.
func (c *Client) CopyIn(remotePath string, fsys vfs.FS, localPath string, streams int) (int64, error) {
	if streams < 1 {
		streams = 1
	}
	size, exists, err := c.Stat(remotePath)
	if err != nil {
		return 0, err
	}
	if !exists {
		return 0, fmt.Errorf("gridftp: %s: no such remote file", remotePath)
	}
	dst, err := fsys.OpenFile(localPath, vfs.CreateFlag, 0o644)
	if err != nil {
		return 0, err
	}
	defer dst.Close()
	var n int64
	switch {
	case size == 0:
	case streams == 1 || size < int64(streams)*streamChunk:
		c.copyStreams.Observe(1)
		n, err = c.Fetch(remotePath, 0, -1, &sectionWriter{f: dst, off: 0})
		c.copyinBytes.Add(n)
	default:
		n, err = c.fetchStripes(remotePath, size, streams, dst)
	}
	if err != nil {
		return n, err
	}
	return n, dst.Truncate(n)
}

// fetchStripes copies the size bytes of remotePath into dst over streams
// parallel Fetch streams, one contiguous stripe each.
func (c *Client) fetchStripes(remotePath string, size int64, streams int, dst io.WriterAt) (int64, error) {
	c.copyStreams.Observe(int64(streams))
	stripe := (size + int64(streams) - 1) / int64(streams)
	wg := simclock.NewWaitGroup(c.clock)
	errs := make([]error, streams)
	var total int64
	totals := make([]int64, streams)
	for i := 0; i < streams; i++ {
		i := i
		off := int64(i) * stripe
		length := stripe
		if off+length > size {
			length = size - off
		}
		if length <= 0 {
			continue
		}
		wg.Add(1)
		c.clock.Go("gridftp-stripe", func() {
			defer wg.Done()
			n, err := c.Fetch(remotePath, off, length, &sectionWriter{f: dst, off: off})
			totals[i], errs[i] = n, err
		})
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("gridftp: stripe %d: %w", i, err)
		}
		total += totals[i]
	}
	c.copyinBytes.Add(total)
	return total, nil
}

// CopyOut pushes localPath from fsys to remotePath on the server.
func (c *Client) CopyOut(fsys vfs.FS, localPath, remotePath string) (int64, error) {
	src, err := fsys.OpenFile(localPath, vfs.ReadOnlyFlag, 0)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	n, err := c.Put(remotePath, src)
	c.copyoutBytes.Add(n)
	return n, err
}

// sectionWriter adapts WriteAt to io.Writer at a running offset.
type sectionWriter struct {
	f   io.WriterAt
	off int64
}

func (s *sectionWriter) Write(p []byte) (int, error) {
	n, err := s.f.WriteAt(p, s.off)
	s.off += int64(n)
	return n, err
}
