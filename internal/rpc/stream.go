package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/simclock"
	"griddles/internal/wire"
	"griddles/internal/xdr"
)

// Stream is the data-channel sibling of Conn: one connection given over to a
// single exchange — a one-shot call, or a bulk transfer of the shape
// header, data frames, end frame — so it can stream for as long as it likes
// without holding up the pooled connection's request/response traffic. A
// client dials one with Open and closes it when the exchange is over, or has
// a Channels keep it for the next; a server wraps the connection ServeConn
// already runs with Over. Send and Recv are the two halves of a transfer and
// run at either end: a client's upload and a server's download are the same
// Send, a client's download and a server's upload the same Recv.
//
// Message numbers, header payloads and negotiation formats stay with the
// service, which passes them in as values.
type Stream struct {
	service string
	r       *bufio.Reader
	w       io.Writer // queued output; nil until a dialed stream first queues
	q       *queue    // w's frame side: the stream's own, or ServeConn's

	// A dialed stream owns its connection, both buffers and the idle
	// deadline; a served one borrows ServeConn's and has no deadline. A
	// one-shot stream's buffers come from ServeConn's pools (once) and go
	// back at Close.
	conn  net.Conn
	clock simclock.Clock
	idle  time.Duration
	bufs  Buffers
	br    bufio.Reader
	own   queue
	once  *connBufs

	frame    []byte // reused by Recv and Next for every frame
	answered bool   // a frame of the peer's was read since Channels handed the stream out
}

// Open dials a dedicated connection to the service at addr; service prefixes
// the errors it reports. idle bounds silence, not the exchange: the deadline
// is armed here, before the first byte moves, and again in the direction of
// every frame the stream moves, so a peer that accepts and then says nothing
// fails the exchange after idle however far it got. Zero means no deadline.
func Open(service string, dialer Dialer, addr string, clock simclock.Clock, idle time.Duration) (*Stream, error) {
	return OpenBuffered(service, Buffers{}, dialer, addr, clock, idle)
}

// OpenBuffered is Open for a protocol that sizes its buffers (see Buffers).
// Such a stream sends every frame whole: a Request leaves in one socket write
// with whatever was queued ahead of it, not header and payload apart.
func OpenBuffered(service string, bufs Buffers, dialer Dialer, addr string, clock simclock.Clock, idle time.Duration) (*Stream, error) {
	return open(service, bufs, dialer, addr, clock, idle, false)
}

// OpenOnce is OpenBuffered for a one-shot exchange: the goroutine that opens
// the stream runs its exchange and closes it, and no other goroutine ever
// holds it. Its read and write buffers come from the pools ServeConn keeps
// and go back at Close, so a connection-per-call client allocates none per
// call. A payload Reply or Call returns is the caller's and stays intact
// after Close; one Next returns does not outlive the stream, as with any
// stream. A stream another goroutine may read, or close under a reader,
// must be opened with Open or OpenBuffered.
func OpenOnce(service string, bufs Buffers, dialer Dialer, addr string, clock simclock.Clock, idle time.Duration) (*Stream, error) {
	return open(service, bufs, dialer, addr, clock, idle, true)
}

func open(service string, bufs Buffers, dialer Dialer, addr string, clock simclock.Clock, idle time.Duration, once bool) (*Stream, error) {
	conn, err := dialer.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("%s: dial %s: %w", service, addr, err)
	}
	s := &Stream{service: service, conn: conn, clock: clock, idle: idle, bufs: bufs}
	if once {
		s.once = bufs.get(conn)
		s.r, s.frame = s.once.r, s.once.frame
	} else {
		s.br = *bufio.NewReaderSize(conn, bufs.size())
		s.r = &s.br
	}
	s.arm(net.Conn.SetDeadline)
	return s, nil
}

// Over is the serving end of a stream on a connection ServeConn runs: w and r
// are what Dispatch was handed. The reply leaves with ServeConn's flush.
func Over(service string, w io.Writer, r *bufio.Reader) Stream {
	q, _ := w.(*queue)
	return Stream{service: service, w: w, q: q, r: r}
}

// arm bounds the stream's next move by idle from now, through set — the
// connection's SetDeadline, SetReadDeadline or SetWriteDeadline. A stream
// arms the direction it moves, so a writer's acknowledgements never inherit
// a bound from its last write.
func (s *Stream) arm(set func(net.Conn, time.Time) error) {
	if s.idle > 0 {
		set(s.conn, s.clock.Now().Add(s.idle))
	}
}

// Close closes a dialed stream's connection. A one-shot stream's buffers go
// back to their pool, and the stream can read or queue nothing more.
func (s *Stream) Close() error {
	err := s.conn.Close()
	if cb := s.once; cb != nil {
		cb.frame = s.frame
		cb.put()
		s.once, s.r, s.w, s.q, s.frame = nil, nil, nil, nil, nil
	}
	return err
}

// maxIdle bounds the connections a Channels keeps: a sequential reader's, and
// one for each of the four fetches core's default prefetch window runs
// beside it. A server that bounds its connections must allow every client
// this many (DESIGN.md §20).
const maxIdle = 5

// Channels is the data-channel cache: the dialed Streams to one service
// address, kept between exchanges so that an exchange pays for a dial only
// when none is idle. An exchange still owns its connection for as long as it
// runs, so any number may run at once. It holds no goroutine and no timer;
// set the exported fields before the first Do.
type Channels struct {
	Service string
	Dialer  Dialer
	Addr    string
	Clock   simclock.Clock
	// Dials and Reuses count the exchanges begun on a fresh and on a kept
	// connection; nil counts nothing.
	Dials, Reuses *obs.Counter

	mu     sync.Mutex
	idle   []*Stream // most recently released last
	closed bool
}

// Do runs exchange on a connection of its own — the idle one released last,
// its deadline re-armed (see Open), else a fresh dial — and keeps the
// connection afterwards if the exchange left it clean. up is the source of an
// upload as Replay handed it over, nil for any other exchange: one that
// cannot rewind never takes an idle connection. That is because a kept
// connection may have died unnoticed (the server restarted): an exchange that
// fails on one before any frame of the peer's arrived, other than by running
// out its deadline, is run again on a fresh dial — at once and uncounted by
// any retry policy, which is what dialing every time used to guarantee.
func (c *Channels) Do(idle time.Duration, up *Source, exchange func(*Stream) error) error {
	if s := c.take(up); s != nil {
		s.idle, s.answered = idle, false
		s.arm(net.Conn.SetDeadline)
		err := exchange(s)
		c.release(s, err)
		var timeout net.Error
		if err == nil || s.answered || retry.IsPermanent(err) || errors.As(err, &timeout) && timeout.Timeout() {
			return err
		}
		if err := up.rewind(); err != nil {
			return retry.Permanent(err)
		}
	}
	s, err := Open(c.Service, c.Dialer, c.Addr, c.Clock, idle)
	if err != nil {
		return err
	}
	count(c.Dials)
	err = exchange(s)
	c.release(s, err)
	return err
}

func (c *Channels) take(up *Source) *Stream {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.idle) - 1
	if n < 0 || up != nil && up.seeker == nil {
		return nil
	}
	s := c.idle[n]
	c.idle = c.idle[:n]
	count(c.Reuses)
	return s
}

// release keeps s only if its exchange ended with no error of any kind — a
// shed or a refusal leaves the stream in a state only the server knows — and
// with nothing read ahead or left unsent; its deadline is cleared, because
// idle bounds silence inside an exchange, not between two.
func (c *Channels) release(s *Stream, err error) {
	if err == nil && s.r.Buffered() == 0 && !s.queued() {
		if s.idle > 0 {
			s.conn.SetDeadline(time.Time{})
		}
		c.mu.Lock()
		if !c.closed && len(c.idle) < maxIdle {
			c.idle = append(c.idle, s)
			s = nil
		}
		c.mu.Unlock()
	}
	if s != nil {
		s.Close()
	}
}

// Close closes the idle connections; whatever an exchange still running
// releases later is closed too.
func (c *Channels) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, s := range idle {
		s.Close()
	}
	return nil
}

func count(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Queue is where frames go to be sent together (wire.WriteFrame(s.Queue(),
// ...), or Frame): on a dialed stream they leave when its buffer fills, at
// the next Flush or at the next Reply, on a served one with ServeConn's
// flush.
func (s *Stream) Queue() io.Writer {
	if s.w == nil {
		if s.once != nil {
			s.q = &s.once.q
		} else {
			s.own = queue{Writer: *bufio.NewWriterSize(s.conn, s.bufs.size()), hist: s.bufs.Flushes}
			s.q = &s.own
		}
		s.w = s.q
	}
	return s.w
}

// Frame queues one frame whose payload is the concatenation of parts, written
// without joining them. A frame that does not fit behind the queued ones
// sends those first, so a socket write carries whole frames wherever a frame
// fits in the buffer.
func (s *Stream) Frame(typ uint8, parts ...[]byte) error {
	w := s.Queue()
	if s.q == nil { // served over a writer that is not ServeConn's
		return wire.WriteFrameV(w, typ, parts...)
	}
	s.arm(net.Conn.SetWriteDeadline)
	return s.q.frame(typ, parts...)
}

// Flush sends everything queued now, in as few socket writes as the buffer
// allows: what an endpoint does before it waits on its peer.
func (s *Stream) Flush() error {
	if s.q == nil {
		return nil
	}
	s.arm(net.Conn.SetWriteDeadline)
	return s.q.flush()
}

// Queued reports how many frames Frame queued that have not yet been handed
// to the connection.
func (s *Stream) Queued() int {
	if s.q == nil {
		return 0
	}
	return int(s.q.frames)
}

func (s *Stream) queued() bool { return s.q != nil && s.q.Buffered() > 0 }

// Request writes one frame to the connection now: the request that opens a
// download, or a frame pipelined in front of it. Unless the stream was opened
// with sized buffers (OpenBuffered), it goes straight to the connection,
// unbuffered.
func (s *Stream) Request(typ uint8, payload []byte) error {
	if s.bufs.Size > 0 {
		if err := s.Frame(typ, payload); err != nil {
			return err
		}
		return s.Flush()
	}
	s.arm(net.Conn.SetWriteDeadline)
	return wire.WriteFrameV(s.conn, typ, payload)
}

// Reply sends whatever is still queued, arms the deadline for the answer to
// it, then reads one frame and classifies it (see the Reply function): a shed
// or an error frame comes back as the error, and so does a reply whose type
// is not among want, when any are given. The payload is the caller's.
func (s *Stream) Reply(want ...uint8) (uint8, []byte, error) {
	if s.queued() {
		if err := s.Flush(); err != nil {
			return 0, nil, err
		}
	}
	s.arm(net.Conn.SetReadDeadline)
	typ, payload, err := wire.ReadFrame(s.r)
	if err != nil {
		return 0, nil, err
	}
	s.answered = true
	if err := Reply(s.service, typ, payload); err != nil {
		return 0, nil, err
	}
	if len(want) > 0 && bytes.IndexByte(want, typ) < 0 {
		return 0, nil, retry.Permanent(fmt.Errorf("%s: unexpected reply %d", s.service, typ))
	}
	return typ, payload, nil
}

// Call is the one-shot exchange: one request out, one reply in (see Reply).
func (s *Stream) Call(reqType uint8, payload []byte, want ...uint8) (uint8, []byte, error) {
	if err := s.Request(reqType, payload); err != nil {
		return 0, nil, err
	}
	return s.Reply(want...)
}

// Next reads the peer's next frame, unclassified, into a buffer the stream
// reuses: the payload is valid until the stream's next read. Like every
// frame the stream moves in, it is bounded by idle from now.
func (s *Stream) Next() (uint8, []byte, error) {
	s.arm(net.Conn.SetReadDeadline)
	return s.next()
}

// Await is Next with no bound, for a loop that waits on the peer for as long
// as the stream lives and is bounded elsewhere: a writer's
// acknowledgements, which its window bounds, must not time out because the
// application paused.
func (s *Stream) Await() (uint8, []byte, error) {
	if s.idle > 0 {
		s.conn.SetReadDeadline(time.Time{})
	}
	return s.next()
}

func (s *Stream) next() (uint8, []byte, error) {
	typ, payload, err := wire.ReadFrameInto(s.r, &s.frame)
	if err == nil {
		s.answered = true
	}
	return typ, payload, err
}

// Frames names one direction of a service's transfer: the frame that opens
// it (the upload request, or the header answering a download request), its
// data and end frames, and the word its errors use ("fetch", "put").
type Frames struct {
	Verb           string
	Hdr, Data, End uint8
}

// Send queues one transfer: the opening frame with payload hdr, src read to
// EOF in chunk-byte pieces — each through c and into one data frame — and the
// end frame. A failure of src or of the codec is marked retry.Permanent;
// anything else is the connection's.
func (s *Stream) Send(fr Frames, hdr []byte, src io.Reader, chunk int, c *StreamCodec) error {
	w := s.Queue()
	if err := wire.WriteFrameV(w, fr.Hdr, hdr); err != nil {
		return err
	}
	buf := getChunk(chunk)
	defer putChunk(buf)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			s.arm(net.Conn.SetWriteDeadline)
			data, err := c.Encode(buf[:n])
			if err != nil {
				return retry.Permanent(err)
			}
			if err := wire.WriteFrameV(w, fr.Data, data); err != nil {
				return err
			}
		}
		if rerr == io.EOF {
			return wire.WriteFrameV(w, fr.End)
		}
		if rerr != nil {
			return retry.Permanent(rerr)
		}
	}
}

// Recv reads one transfer up to its end frame, writing each data frame's
// payload through c into dst, and reports the bytes delivered — also when it
// fails, which is where a download's resume picks up. want is the byte count
// the header promised, or negative when the sender made no promise: a stream
// that ends short of it or runs past it is corrupt, not interrupted. That, an
// error frame from the sender, a frame that does not belong, and a failure of
// the codec or of dst are marked retry.Permanent; anything else is the
// connection's.
func (s *Stream) Recv(fr Frames, want int64, dst io.Writer, c *StreamCodec) (int64, error) {
	var total int64
	for {
		typ, payload, err := s.Next()
		if err != nil {
			return total, err
		}
		switch typ {
		case fr.Data:
			data, err := c.Decode(payload)
			if err != nil {
				return total, retry.Permanent(err)
			}
			if want >= 0 && total+int64(len(data)) > want {
				return total, retry.Permanent(fmt.Errorf("%s: %s stream runs past the %d bytes its header said", s.service, fr.Verb, want))
			}
			n, werr := dst.Write(data)
			total += int64(n)
			if werr != nil {
				return total, retry.Permanent(werr)
			}
		case fr.End:
			if want >= 0 && total != want {
				return total, retry.Permanent(fmt.Errorf("%s: %s got %d bytes, header said %d", s.service, fr.Verb, total, want))
			}
			return total, nil
		case MsgError:
			return total, Reply(s.service, typ, payload)
		default:
			return total, retry.Permanent(fmt.Errorf("%s: unexpected frame %d during %s", s.service, typ, fr.Verb))
		}
	}
}

// Finish is how a server's Dispatch returns from a transfer that ended with
// err: a failure Send or Recv marked permanent (the file, the codec, a frame
// out of place) is answered with the error frame and the connection lives on;
// a transport error, or nil, is returned as it is.
func (s *Stream) Finish(err error) error {
	if retry.IsPermanent(err) {
		return WriteError(s.w, err)
	}
	return err
}

// Drain consumes an upload the server will not take — shed, or refused
// before its first data frame — up to its end frame, so the refusal is the
// one answer on a connection that stays in step.
func Drain(r *bufio.Reader, end uint8) {
	var buf []byte
	for {
		typ, _, err := wire.ReadFrameInto(r, &buf)
		if err != nil || typ == end {
			return
		}
	}
}

// Resume runs a download of length bytes (negative: to the end) under p.
// once(done, remaining) makes one attempt at what is still missing after done
// bytes and reports what it delivered; a failed attempt's bytes count, so the
// next one starts behind them and the sink sees every byte once. op labels
// the retry events.
func Resume(p retry.Policy, op string, length int64, once func(done, remaining int64) (int64, error)) (int64, error) {
	var done int64
	err := p.Do(op, func(int) error {
		remaining := length
		if remaining >= 0 {
			remaining -= done
			if remaining <= 0 && done > 0 {
				// Every byte arrived; only the end frame was lost.
				return nil
			}
		}
		n, err := once(done, remaining)
		done += n
		return err
	})
	return done, err
}

// Replay runs an upload of src as name under p. once makes one attempt,
// reading what it sends from the Source it is handed, and reports the size
// the server acknowledged. A source that was read from is rewound before the
// next attempt, which is safe wherever the server takes an upload whole or
// not at all; one that cannot seek fails for good. op is "service.verb": it
// labels the retry events and words that error.
func Replay(p retry.Policy, op, name string, src io.Reader, once func(up *Source) (int64, error)) (int64, error) {
	up := &Source{Reader: src}
	up.seeker, _ = src.(io.Seeker)
	var size int64
	err := p.Do(op, func(int) error {
		if err := up.rewind(); err != nil {
			return retry.Permanent(err)
		}
		var err error
		size, err = once(up)
		if err != nil && up.read && up.seeker == nil {
			service, verb, _ := strings.Cut(op, ".")
			return retry.Permanent(fmt.Errorf("%s: %s %s: source not seekable, cannot replay: %w", service, verb, name, err))
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	return size, nil
}

// Source is an upload's source as Replay hands it to each attempt: it notes
// whether anything was ever read through it and, when the reader under it
// can seek, rewinds it.
type Source struct {
	io.Reader
	seeker io.Seeker // nil: the source cannot rewind
	read   bool
}

func (u *Source) Read(p []byte) (int, error) {
	n, err := u.Reader.Read(p)
	u.read = u.read || n > 0
	return n, err
}

// rewind puts a source that was read from back at its start, if it can seek.
func (u *Source) rewind() error {
	if u == nil || !u.read || u.seeker == nil {
		return nil
	}
	_, err := u.seeker.Seek(0, io.SeekStart)
	return err
}

// StreamCodec is the encoding one stream negotiated, the same state in every
// service: the block codec (nil: raw, payloads pass untouched), an optional
// record schema for the columnar transform in front of it, the counters of
// raw and wire bytes, and the transform buffers, reused so a steady stream
// allocates nothing per frame. A nil *StreamCodec is raw.
type StreamCodec struct {
	Block  wire.Codec
	Schema *xdr.Schema
	Order  binary.ByteOrder
	// Raw and Wire count payload bytes before and after an active codec
	// (wire.codec.raw.bytes, wire.codec.wire.bytes); nil counts nothing.
	Raw, Wire *obs.Counter

	encBuf, colBuf, decBuf []byte
}

// raw reports whether payloads pass untouched.
func (c *StreamCodec) raw() bool { return c == nil || c.Block == nil }

func (c *StreamCodec) count(raw, onWire int) {
	if c.Raw != nil {
		c.Raw.Add(int64(raw))
		c.Wire.Add(int64(onWire))
	}
}

// Encode transforms one outgoing payload: the columnar reorder when there is
// a schema, then the block codec. The result is valid until the next Encode.
func (c *StreamCodec) Encode(data []byte) ([]byte, error) {
	if c.raw() {
		return data, nil
	}
	src := data
	if c.Schema != nil {
		var err error
		c.colBuf, err = xdr.EncodeColumnar(c.colBuf[:0], data, *c.Schema, c.Order)
		if err != nil {
			return nil, err
		}
		src = c.colBuf
	}
	c.encBuf = c.Block.Encode(c.encBuf[:0], src)
	c.count(len(data), len(c.encBuf))
	return c.encBuf, nil
}

// Decode reverses Encode for one incoming payload. The result is valid until
// the next Decode.
func (c *StreamCodec) Decode(payload []byte) ([]byte, error) {
	if c.raw() {
		return payload, nil
	}
	var err error
	c.decBuf, err = c.Block.Decode(c.decBuf[:0], payload)
	if err != nil {
		return nil, err
	}
	out := c.decBuf
	if c.Schema != nil {
		c.colBuf, err = xdr.DecodeColumnar(c.colBuf[:0], c.decBuf, *c.Schema, c.Order)
		if err != nil {
			return nil, err
		}
		out = c.colBuf
	}
	c.count(len(out), len(payload))
	return out, nil
}

// chunks recycles the buffers Send reads its source into, 64 KiB at either
// end of every transfer, so a stream allocates none of its own.
var chunks sync.Pool

func getChunk(n int) []byte {
	if b, _ := chunks.Get().([]byte); cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

func putChunk(b []byte) {
	chunks.Put(b[:cap(b)]) //nolint:staticcheck // slice headers are small
}
