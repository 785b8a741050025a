// Package rpc is the shell every GriddLeS service wraps around its framed
// request/response protocol: the accept loop, the per-connection request
// loop with admission, the pooled client connection, and the classification
// of a reply frame into "shed, come back later", "the server said no" and
// "an answer". A service keeps its message numbers, codecs, handlers and
// typed calls; what is here is what they all did the same way.
//
// Two conventions of the wire protocols live here as constants: reply type
// 254 is admit.MsgShed and 255 is the error frame (one string), in every
// service.
package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"griddles/internal/admit"
	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Dialer opens connections to service addresses. simnet.Host implements it
// for simulated runs; cmd/ binaries use TCPDialer. Every service package's
// Dialer is an alias of this one.
type Dialer interface {
	Dial(addr string) (net.Conn, error)
}

// TCPDialer dials real TCP connections.
type TCPDialer struct{}

// Dial implements Dialer.
func (TCPDialer) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// MsgError is the error reply frame of every protocol: one string.
const MsgError = 255

// ServerError is an error a server answered with (MsgError): the request
// reached a live server and the answer is final.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return e.Msg }

// Reply classifies one reply frame. A shed comes back as *admit.ShedError
// (retryable; it carries the server's retry-after hint), an error frame as
// a *ServerError marked retry.Permanent and prefixed with the service name,
// and anything else as nil: the caller's protocol decides what it means.
func Reply(service string, typ uint8, payload []byte) error {
	switch typ {
	case admit.MsgShed:
		shed, err := admit.DecodeShed(payload)
		if err != nil {
			return err
		}
		return shed
	case MsgError:
		return retry.Permanent(&ServerError{Msg: service + ": " + wire.NewDecoder(payload).String()})
	}
	return nil
}

// WriteError answers a request with the error frame.
func WriteError(w io.Writer, err error) error {
	return wire.WriteFrame(w, MsgError, wire.NewEncoder().String(err.Error()).Bytes())
}

// writeShed answers one request with a shed frame (or a plain error frame
// when err is not a shed), leaving the connection usable.
func writeShed(w io.Writer, err error) error {
	var shed *admit.ShedError
	if errors.As(err, &shed) {
		return admit.WriteShed(w, shed)
	}
	return WriteError(w, err)
}

// Serve accepts connections on l until it is closed, running handle for each
// on its own goroutine registered with clock as name. Temporary accept
// failures (EMFILE, a timeout) are ridden out with backoff instead of
// killing the server; a connection over adm's connection bound is closed at
// once. A nil adm admits every connection.
//
// Closing l is how a service stops: once Accept fails for good, Serve closes
// every connection it accepted that is still open and returns when every
// handler it started has returned.
func Serve(l net.Listener, clock simclock.Clock, name string, adm *admit.Controller, handle func(net.Conn)) {
	var mu sync.Mutex
	open := make(map[net.Conn]struct{})
	handlers := simclock.NewWaitGroup(clock)
	defer func() {
		mu.Lock()
		for conn := range open {
			conn.Close()
		}
		mu.Unlock()
		handlers.Wait()
	}()
	backoff := admit.NewAcceptBackoff(clock)
	for {
		conn, err := l.Accept()
		if err != nil {
			if admit.Temporary(err) {
				backoff.Sleep()
				continue
			}
			return
		}
		backoff.Reset()
		release, ok := adm.AdmitConn()
		if !ok {
			conn.Close()
			continue
		}
		mu.Lock()
		open[conn] = struct{}{}
		mu.Unlock()
		handlers.Add(1)
		clock.Go(name, func() {
			defer func() {
				release()
				mu.Lock()
				delete(open, conn)
				mu.Unlock()
				handlers.Done()
			}()
			handle(conn)
		})
	}
}

// Start runs serve(l) on a goroutine registered with clock as name, and
// returns the service's stop: close l, then wait for serve to return.
func Start(clock simclock.Clock, name string, l net.Listener, serve func(net.Listener)) (stop func()) {
	served := simclock.NewEvent(clock)
	clock.Go(name, func() { defer served.Set(); serve(l) })
	return func() { l.Close(); served.Wait() }
}

// StopAll returns a stop that runs each of stops in order.
func StopAll(stops ...func()) func() {
	return func() {
		for _, stop := range stops {
			stop()
		}
	}
}

// OnClose returns l with an Accept that runs fn when it fails for good: what
// a service must wake at its stop that closing a connection does not, such
// as a handler parked on state its connection never reads.
func OnClose(l net.Listener, fn func()) net.Listener { return closeHook{l, fn} }

type closeHook struct {
	net.Listener
	fn func()
}

func (l closeHook) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil && !admit.Temporary(err) {
		l.fn()
	}
	return conn, err
}

// Handler is one service's side of the request loop.
type Handler struct {
	// Class maps a request type to its admission class; nil admits every
	// request as admit.Control.
	Class func(typ uint8) admit.Class
	// Dispatch answers one admitted request into w. r is the connection's
	// reader, for requests a stream of further frames follows; payload is
	// valid until Dispatch returns. An error ends the connection.
	Dispatch func(w io.Writer, r *bufio.Reader, typ uint8, payload []byte) error
	// Drain, if set, runs when a request is shed, before the shed is
	// answered: it consumes whatever the client streams after a request of
	// this type regardless, so the connection stays usable.
	Drain func(r *bufio.Reader, typ uint8)
	// Buffers is the protocol's connection buffering (see Buffers).
	Buffers Buffers
}

// ServeConn runs the request loop on conn until the peer goes away or a
// dispatch fails, then closes it: read a frame, take an admission slot of
// its class (answering a shed if there is none), dispatch, release. Answers
// queue, and leave when the next read would block: every request that
// arrived in one segment is answered in one socket write. A nil adm admits
// everything.
func ServeConn(conn net.Conn, adm *admit.Controller, h Handler) {
	defer conn.Close()
	tenant := admit.TenantOf(conn)
	bufs := h.Buffers.get(conn)
	defer bufs.put()
	br, bw := bufs.r, &bufs.q
	frame := &bufs.frame
	for {
		if !wire.FrameBuffered(br) {
			if err := bw.flush(); err != nil {
				return
			}
		}
		typ, payload, err := wire.ReadFrameInto(br, frame)
		if err != nil {
			return
		}
		class := admit.Control
		if h.Class != nil {
			class = h.Class(typ)
		}
		release, aerr := adm.Acquire(tenant, class)
		if aerr != nil {
			if h.Drain != nil {
				h.Drain(br, typ)
			}
			if err := writeShed(bw, aerr); err != nil {
				return
			}
		} else {
			derr := h.Dispatch(bw, br, typ, payload)
			release()
			if derr != nil {
				return
			}
		}
	}
}

// Buffers is how a protocol buffers its connections, passed in as a value
// like its service name, because it decides where one socket write ends and
// the next begins: the size of the read and the write buffer of every
// connection the protocol runs (0 is bufio's 4 KiB), and the histogram the
// queued side counts frames per flush into (nil counts nothing).
type Buffers struct {
	Size    int
	Flushes *obs.Histogram
}

func (b Buffers) size() int {
	if b.Size > 0 {
		return b.Size
	}
	return 4096
}

// connBufs is what ServeConn buffers a connection with, and a one-shot
// stream (OpenOnce) too: the read and write buffers and the frame a request
// is read into. They are recycled, one pool per size: a connection-per-call
// client opens a connection per request, and a 64 KiB protocol's buffers
// would be most of what each costs at either end.
type connBufs struct {
	r     *bufio.Reader
	q     queue
	frame []byte
	pool  *sync.Pool
}

var servePools sync.Map // buffer size -> *sync.Pool of *connBufs

func (b Buffers) get(conn net.Conn) *connBufs {
	size := b.size()
	p, ok := servePools.Load(size)
	if !ok {
		p, _ = servePools.LoadOrStore(size, &sync.Pool{New: func() any {
			return &connBufs{r: bufio.NewReaderSize(nil, size), q: queue{Writer: *bufio.NewWriterSize(nil, size)}}
		}})
	}
	c := p.(*sync.Pool).Get().(*connBufs)
	c.pool = p.(*sync.Pool)
	c.r.Reset(conn)
	c.q.Reset(conn)
	c.q.hist = b.Flushes
	return c
}

// put returns the buffers to their pool, holding on to nothing of the
// connection's.
func (c *connBufs) put() {
	c.r.Reset(nil)
	c.q.Reset(nil)
	c.q.frames, c.q.hist = 0, nil
	c.pool.Put(c)
}

// queue is a connection's queued side: frames wait in a buffer of the
// protocol's size and leave together, when it fills or when the endpoint
// flushes because it is about to wait. frame keeps each socket write to whole
// frames wherever a frame fits in the buffer, and flush counts the frames a
// write carried. Plain Writes pass to the buffer as they are.
type queue struct {
	bufio.Writer
	frames int64          // queued by frame since the last flush
	hist   *obs.Histogram // frames per flush; nil counts nothing
}

// frame queues one frame whose payload is the concatenation of parts. A
// frame that does not fit behind the queued ones sends those first.
func (q *queue) frame(typ uint8, parts ...[]byte) error {
	need := 5
	for _, p := range parts {
		need += len(p)
	}
	if need > q.Available() && q.Buffered() > 0 {
		if err := q.flush(); err != nil {
			return err
		}
	}
	q.frames++
	return wire.WriteFrameV(q, typ, parts...)
}

// flush sends everything queued in one socket write.
func (q *queue) flush() error {
	if q.frames > 0 {
		if q.hist != nil {
			q.hist.Observe(q.frames)
		}
		q.frames = 0
	}
	return q.Flush()
}

// Conn is one pooled client connection to a service: dialed at first use,
// shared by request/response calls one at a time, dropped on any transport
// error so the next call redials. Set Retry and CallTimeout before the first
// call.
type Conn struct {
	service string
	dialer  Dialer
	addr    string
	clock   simclock.Clock

	// Retry supplies the per-call deadline (its attempt timeout). The zero
	// policy means one attempt and no deadline, here and in every client:
	// the connection's deadline is then never touched. Call makes a single
	// attempt either way; Do, or the caller, wraps it in Retry.Do.
	Retry retry.Policy
	// CallTimeout bounds one round trip when Retry sets no deadline.
	CallTimeout time.Duration

	mu  *simclock.Mutex // serializes use of the connection
	s   *Stream         // nil until dialed
	gen uint64
}

// NewConn returns a Conn for the service at addr; service prefixes the
// errors it reports ("gns: ...").
func NewConn(service string, dialer Dialer, addr string, clock simclock.Clock) *Conn {
	return &Conn{service: service, dialer: dialer, addr: addr, clock: clock, mu: simclock.NewMutex(clock)}
}

// Lock holds the connection across several *Locked steps, for callers whose
// requests are scoped to the connection they started on.
func (c *Conn) Lock() { c.mu.Lock() }

// Unlock releases Lock.
func (c *Conn) Unlock() { c.mu.Unlock() }

// DialLocked establishes the connection if there is none.
func (c *Conn) DialLocked() error {
	if c.s != nil {
		return nil
	}
	s, err := Open(c.service, c.dialer, c.addr, c.clock, 0)
	if err != nil {
		return err
	}
	c.s = s
	c.gen++
	return nil
}

// GenLocked reports the dial generation of the live connection — how many
// dials it took to get here — or 0 when there is none. State a server keeps
// per connection (a file handle) dies with the generation it was made under.
func (c *Conn) GenLocked() uint64 {
	if c.s == nil {
		return 0
	}
	return c.gen
}

func (c *Conn) dropLocked() {
	if c.s != nil {
		c.s.Close()
		c.s = nil
	}
}

// CallLocked performs one request/response on the established connection;
// the request payload is the concatenation of parts, written without joining
// them. The reply payload is read into *into, which grows when a reply does
// not fit, and aliases it until the next call that passes the same buffer; a
// nil into reads it into a fresh payload the caller keeps. A transport error
// (or a shed that does not decode) drops the connection; the reply is
// classified by Reply, so a shed or a server error leaves the connection
// usable and comes back as the error.
func (c *Conn) CallLocked(into *[]byte, reqType uint8, parts ...[]byte) (uint8, []byte, error) {
	conn := c.s.conn
	if dl := c.Retry.Deadline(); !dl.IsZero() {
		conn.SetDeadline(dl)
	} else if c.CallTimeout > 0 {
		conn.SetDeadline(c.clock.Now().Add(c.CallTimeout))
	}
	err := c.s.Frame(reqType, parts...)
	if err == nil {
		err = c.s.Flush()
	}
	var typ uint8
	var resp []byte
	if err == nil && into != nil {
		typ, resp, err = wire.ReadFrameInto(c.s.r, into)
	} else if err == nil {
		typ, resp, err = wire.ReadFrame(c.s.r)
	}
	if err != nil {
		c.dropLocked()
		return 0, nil, err
	}
	if c.Retry.Enabled() || c.CallTimeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	if err := Reply(c.service, typ, resp); err != nil {
		if _, shed := err.(*admit.ShedError); typ == admit.MsgShed && !shed {
			c.dropLocked() // a shed that does not decode: the stream is suspect
		}
		return 0, nil, err
	}
	return typ, resp, nil
}

// Call dials if need be and performs one round trip (see CallLocked).
func (c *Conn) Call(reqType uint8, parts ...[]byte) (uint8, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.DialLocked(); err != nil {
		return 0, nil, err
	}
	return c.CallLocked(nil, reqType, parts...)
}

// Do runs one call under the Retry policy — a transport fault redials and
// re-asks, a shed waits out the server's hint — and returns the payload of
// the reply, which must be of type want. op labels the retry events.
func (c *Conn) Do(op string, reqType, want uint8, parts ...[]byte) ([]byte, error) {
	var resp []byte
	err := c.Retry.Do(op, func(int) error {
		typ, r, err := c.Call(reqType, parts...)
		if err == nil && typ != want {
			err = retry.Permanent(fmt.Errorf("%s: unexpected reply %d", c.service, typ))
		}
		resp = r
		return err
	})
	return resp, err
}

// Close drops the connection; a later call redials.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked()
	return nil
}
