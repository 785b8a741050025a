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
	"time"

	"griddles/internal/admit"
	"griddles/internal/retry"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Dialer opens connections to service addresses. simnet.Host implements it
// for simulated runs; cmd/ binaries use a TCP adapter. Every service
// package's Dialer is an alias of this one.
type Dialer interface {
	Dial(addr string) (net.Conn, error)
}

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
func Serve(l net.Listener, clock simclock.Clock, name string, adm *admit.Controller, handle func(net.Conn)) {
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
		clock.Go(name, func() {
			defer release()
			handle(conn)
		})
	}
}

// Handler is one service's side of the request loop.
type Handler struct {
	// Class maps a request type to its admission class; nil admits every
	// request as admit.Control.
	Class func(typ uint8) admit.Class
	// Dispatch answers one admitted request into w. r is the connection's
	// reader, for requests a stream of further frames follows. An error ends
	// the connection.
	Dispatch func(w io.Writer, r *bufio.Reader, typ uint8, payload []byte) error
	// Drain, if set, runs when a request is shed, before the shed is
	// answered: it consumes whatever the client streams after a request of
	// this type regardless, so the connection stays usable.
	Drain func(r *bufio.Reader, typ uint8)
}

// ServeConn runs the request loop on conn until the peer goes away or a
// dispatch fails, then closes it: read a frame, take an admission slot of
// its class (answering a shed if there is none), dispatch, release, and
// flush — one socket write per reply. A nil adm admits everything.
func ServeConn(conn net.Conn, adm *admit.Controller, h Handler) {
	defer conn.Close()
	tenant := admit.TenantOf(conn)
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		typ, payload, err := wire.ReadFrame(br)
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
		if err := bw.Flush(); err != nil {
			return
		}
	}
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

	mu   *simclock.Mutex // serializes use of the connection
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	gen  uint64
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
	if c.conn != nil {
		return nil
	}
	conn, err := c.dialer.Dial(c.addr)
	if err != nil {
		return fmt.Errorf("%s: dial %s: %w", c.service, c.addr, err)
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	c.bw = bufio.NewWriter(conn)
	c.gen++
	return nil
}

// GenLocked reports the dial generation of the live connection — how many
// dials it took to get here — or 0 when there is none. State a server keeps
// per connection (a file handle) dies with the generation it was made under.
func (c *Conn) GenLocked() uint64 {
	if c.conn == nil {
		return 0
	}
	return c.gen
}

func (c *Conn) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br, c.bw = nil, nil, nil
	}
}

// CallLocked performs one request/response on the established connection;
// the request payload is the concatenation of parts, written without joining
// them. A transport error (or a shed that does not decode) drops the
// connection; the reply is classified by Reply, so a shed or a server error
// leaves the connection usable and comes back as the error.
func (c *Conn) CallLocked(reqType uint8, parts ...[]byte) (uint8, []byte, error) {
	if dl := c.Retry.Deadline(); !dl.IsZero() {
		c.conn.SetDeadline(dl)
	} else if c.CallTimeout > 0 {
		c.conn.SetDeadline(c.clock.Now().Add(c.CallTimeout))
	}
	if err := wire.WriteFrameV(c.bw, reqType, parts...); err != nil {
		c.dropLocked()
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		c.dropLocked()
		return 0, nil, err
	}
	typ, resp, err := wire.ReadFrame(c.br)
	if err != nil {
		c.dropLocked()
		return 0, nil, err
	}
	if c.Retry.Enabled() || c.CallTimeout > 0 {
		c.conn.SetDeadline(time.Time{})
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
	return c.CallLocked(reqType, parts...)
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
