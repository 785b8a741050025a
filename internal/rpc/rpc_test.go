package rpc_test

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"griddles/internal/admit"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/wire"
)

// The test protocol: an echo, a request the server refuses, one it answers
// with a shed frame that does not decode, one that makes it hang up, and an
// upload whose data frames follow the request.
const (
	msgEcho     = 1
	msgEchoResp = 2
	msgRefuse   = 3
	msgBadShed  = 4
	msgHangUp   = 5
	msgUpload   = 6
	msgUpEnd    = 7
	msgUpResp   = 8
)

// watchedDialer counts dials and records every deadline set on the
// connections it hands out.
type watchedDialer struct {
	inner rpc.Dialer
	mu    sync.Mutex
	dials int
	dls   []time.Time
}

func (d *watchedDialer) Dial(addr string) (net.Conn, error) {
	conn, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.dials++
	d.mu.Unlock()
	return &watchedConn{Conn: conn, d: d}, nil
}

func (d *watchedDialer) deadlines() []time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]time.Time(nil), d.dls...)
}

type watchedConn struct {
	net.Conn
	d *watchedDialer
}

func (c *watchedConn) SetDeadline(t time.Time) error {
	c.d.mu.Lock()
	c.d.dls = append(c.d.dls, t)
	c.d.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// bench is a test server on simnet and a dialer watching the client side.
type bench struct {
	v      *simclock.Virtual
	net    *simnet.Network
	adm    *admit.Controller
	dialer *watchedDialer
	drains int // upload streams drained after a shed
}

func newBench() *bench {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: time.Millisecond})
	return &bench{v: v, net: n, dialer: &watchedDialer{inner: n.Host("app")}}
}

// start must be called inside v.Run.
func (b *bench) start(t *testing.T) {
	l, err := b.net.Host("srv").Listen("srv:4000")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	drainUpload := func(r *bufio.Reader) {
		for {
			if typ, _, err := wire.ReadFrame(r); err != nil || typ == msgUpEnd {
				return
			}
		}
	}
	h := rpc.Handler{
		Class: func(typ uint8) admit.Class {
			if typ == msgUpload {
				return admit.Bulk
			}
			return admit.Control
		},
		Dispatch: func(w io.Writer, r *bufio.Reader, typ uint8, payload []byte) error {
			switch typ {
			case msgEcho:
				return wire.WriteFrame(w, msgEchoResp, payload)
			case msgRefuse:
				return rpc.WriteError(w, errors.New("no"))
			case msgBadShed:
				return wire.WriteFrame(w, admit.MsgShed, []byte{1})
			case msgUpload:
				drainUpload(r)
				return wire.WriteFrame(w, msgUpResp, nil)
			}
			return errors.New("hang up")
		},
		Drain: func(r *bufio.Reader, typ uint8) {
			if typ == msgUpload {
				b.drains++
				drainUpload(r)
			}
		},
	}
	b.v.Go("serve", func() {
		rpc.Serve(l, b.v, "test-conn", b.adm, func(conn net.Conn) { rpc.ServeConn(conn, b.adm, h) })
	})
}

func (b *bench) conn() *rpc.Conn { return rpc.NewConn("test", b.dialer, "srv:4000", b.v) }

func (b *bench) gen(c *rpc.Conn) uint64 {
	c.Lock()
	defer c.Unlock()
	return c.GenLocked()
}

func wantEcho(t *testing.T, c *rpc.Conn) {
	t.Helper()
	typ, resp, err := c.Call(msgEcho, []byte("he"), []byte("llo"))
	if err != nil || typ != msgEchoResp || string(resp) != "hello" {
		t.Fatalf("echo = %d %q, %v", typ, resp, err)
	}
}

// TestCallLockedReadsIntoTheCallersBuffer: a reply read into the caller's
// buffer aliases it and reuses its array while the reply fits, grows it when
// it does not, and a nil buffer still gets a fresh payload.
func TestCallLockedReadsIntoTheCallersBuffer(t *testing.T) {
	b := newBench()
	b.v.Run(func() {
		b.start(t)
		c := b.conn()
		defer c.Close()
		call := func(into *[]byte, req string) []byte {
			c.Lock()
			defer c.Unlock()
			if err := c.DialLocked(); err != nil {
				t.Fatal(err)
			}
			typ, resp, err := c.CallLocked(into, msgEcho, []byte(req))
			if err != nil || typ != msgEchoResp || string(resp) != req {
				t.Fatalf("echo %q = %d %q, %v", req, typ, resp, err)
			}
			return resp
		}
		buf := make([]byte, 8)
		if resp := call(&buf, "hello"); &resp[0] != &buf[0] {
			t.Fatal("a reply that fits did not land in the caller's buffer")
		}
		if resp := call(&buf, "a longer reply"); cap(buf) < len("a longer reply") || &resp[0] != &buf[0] {
			t.Fatalf("a reply that does not fit: buffer cap %d, aliased %v", cap(buf), &resp[0] == &buf[0])
		}
		if resp := call(nil, "fresh"); &resp[0] == &buf[0] {
			t.Fatal("a nil buffer reused the caller's array")
		}
	})
}

func TestShedLeavesTheConnectionUsable(t *testing.T) {
	b := newBench()
	b.adm = admit.New(admit.Options{Service: "test", MaxConcurrent: 1, ControlShare: -1, Clock: b.v})
	b.v.Run(func() {
		b.start(t)
		c := b.conn()
		defer c.Close()
		wantEcho(t, c)

		release, err := b.adm.Acquire("other", admit.Control)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = c.Call(msgEcho, []byte("x"))
		var shed *admit.ShedError
		if !errors.As(err, &shed) || shed.RetryAfter() <= 0 {
			t.Fatalf("err = %v, want a shed with a retry-after hint", err)
		}
		if retry.IsPermanent(err) {
			t.Fatal("a shed must stay retryable")
		}
		release()
		wantEcho(t, c)
		if b.dialer.dials != 1 || b.gen(c) != 1 {
			t.Fatalf("dials = %d, gen = %d: the shed cost a connection", b.dialer.dials, b.gen(c))
		}
	})
}

func TestShedUploadIsDrainedBeforeTheShedIsAnswered(t *testing.T) {
	b := newBench()
	b.adm = admit.New(admit.Options{Service: "test", MaxConcurrent: 1, ControlShare: -1, Clock: b.v})
	b.v.Run(func() {
		b.start(t)
		release, err := b.adm.Acquire("other", admit.Bulk)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := b.dialer.Dial("srv:4000")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		upload := func() uint8 {
			bw := bufio.NewWriter(conn)
			wire.WriteFrame(bw, msgUpload, nil)
			wire.WriteFrame(bw, msgUpload, []byte("data")) // any frame but the end
			wire.WriteFrame(bw, msgUpEnd, nil)
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			typ, resp, err := wire.ReadFrame(br)
			if err != nil {
				t.Fatal(err)
			}
			if err := rpc.Reply("test", typ, resp); err != nil && typ != admit.MsgShed {
				t.Fatal(err)
			}
			return typ
		}
		if typ := upload(); typ != admit.MsgShed || b.drains != 1 {
			t.Fatalf("reply = %d, drains = %d, want one drained shed", typ, b.drains)
		}
		release()
		// The stream the shed skipped did not desynchronise the connection.
		if typ := upload(); typ != msgUpResp {
			t.Fatalf("reply after the shed = %d, want the upload's answer", typ)
		}
	})
}

func TestServerErrorIsPermanentAndKeepsTheConnection(t *testing.T) {
	b := newBench()
	b.v.Run(func() {
		b.start(t)
		c := b.conn()
		defer c.Close()
		_, _, err := c.Call(msgRefuse)
		if !retry.IsPermanent(err) {
			t.Fatalf("err = %v, want it marked retry.Permanent", err)
		}
		var srv *rpc.ServerError
		if !errors.As(err, &srv) || srv.Error() != "test: no" {
			t.Fatalf("err = %v, want ServerError %q", err, "test: no")
		}
		// Do surfaces it unmarked, and a policy does not re-ask.
		c.Retry = retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Clock: b.v}
		_, err = c.Do("test.refuse", msgRefuse, msgEchoResp)
		if err == nil || err.Error() != "test: no" {
			t.Fatalf("Do = %v, want the bare server error", err)
		}
		wantEcho(t, c)
		if b.dialer.dials != 1 {
			t.Fatalf("dials = %d: a server error must not redial", b.dialer.dials)
		}
	})
}

func TestTransportErrorDropsAndTheNextCallRedials(t *testing.T) {
	b := newBench()
	b.v.Run(func() {
		b.start(t)
		c := b.conn()
		defer c.Close()
		wantEcho(t, c)
		if _, _, err := c.Call(msgHangUp); err == nil || retry.IsPermanent(err) {
			t.Fatalf("err = %v, want a retryable transport error", err)
		}
		if g := b.gen(c); g != 0 {
			t.Fatalf("gen = %d after a transport error, want 0 (no live connection)", g)
		}
		wantEcho(t, c)
		if b.dialer.dials != 2 || b.gen(c) != 2 {
			t.Fatalf("dials = %d, gen = %d, want 2 and 2", b.dialer.dials, b.gen(c))
		}
		// Do rides the same fault out by itself.
		c.Retry = retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, Clock: b.v}
		if _, err := c.Do("test.hangup", msgHangUp, msgEchoResp); err == nil {
			t.Fatal("a server that always hangs up: no error")
		}
		if b.dialer.dials != 3 {
			t.Fatalf("dials = %d, want 3: the second attempt redials", b.dialer.dials)
		}
	})
}

func TestUndecodableShedDropsTheConnection(t *testing.T) {
	b := newBench()
	b.v.Run(func() {
		b.start(t)
		c := b.conn()
		defer c.Close()
		_, _, err := c.Call(msgBadShed)
		var shed *admit.ShedError
		if err == nil || errors.As(err, &shed) || retry.IsPermanent(err) {
			t.Fatalf("err = %v, want a plain decode error", err)
		}
		if g := b.gen(c); g != 0 {
			t.Fatalf("gen = %d, want 0: the stream is suspect", g)
		}
		wantEcho(t, c)
		if b.dialer.dials != 2 {
			t.Fatalf("dials = %d, want 2", b.dialer.dials)
		}
	})
}

func TestCallDeadline(t *testing.T) {
	for _, tc := range []struct {
		name   string
		set    func(c *rpc.Conn, v *simclock.Virtual)
		budget time.Duration // 0: the deadline is never touched
	}{
		{"zero policy", func(*rpc.Conn, *simclock.Virtual) {}, 0},
		{"retry policy", func(c *rpc.Conn, v *simclock.Virtual) {
			c.Retry = retry.Policy{MaxAttempts: 2, AttemptTimeout: 3 * time.Second, Clock: v}
		}, 3 * time.Second},
		{"call timeout", func(c *rpc.Conn, v *simclock.Virtual) { c.CallTimeout = 7 * time.Second }, 7 * time.Second},
		{"policy wins over call timeout", func(c *rpc.Conn, v *simclock.Virtual) {
			c.Retry = retry.Policy{MaxAttempts: 2, AttemptTimeout: 3 * time.Second, Clock: v}
			c.CallTimeout = 7 * time.Second
		}, 3 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBench()
			b.v.Run(func() {
				b.start(t)
				c := b.conn()
				defer c.Close()
				tc.set(c, b.v)
				c.Lock()
				err := c.DialLocked() // so the call below starts at `before`
				c.Unlock()
				if err != nil {
					t.Fatal(err)
				}
				before := b.v.Now()
				wantEcho(t, c)
				dls := b.dialer.deadlines()
				if tc.budget == 0 {
					if len(dls) != 0 {
						t.Fatalf("deadlines set under the zero policy: %v", dls)
					}
					return
				}
				if len(dls) != 2 || !dls[0].Equal(before.Add(tc.budget)) || !dls[1].IsZero() {
					t.Fatalf("deadlines = %v, want [%v, cleared]", dls, before.Add(tc.budget))
				}
			})
		})
	}
}

func TestDoRejectsAnUnexpectedReplyType(t *testing.T) {
	b := newBench()
	b.v.Run(func() {
		b.start(t)
		c := b.conn()
		defer c.Close()
		c.Retry = retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Clock: b.v}
		resp, err := c.Do("test.echo", msgEcho, msgEchoResp, []byte("hi"))
		if err != nil || string(resp) != "hi" {
			t.Fatalf("Do = %q, %v", resp, err)
		}
		if _, err := c.Do("test.echo", msgEcho, msgUpResp, []byte("hi")); err == nil || err.Error() != "test: unexpected reply 2" {
			t.Fatalf("Do = %v, want an unexpected-reply error", err)
		}
		if b.dialer.dials != 1 {
			t.Fatalf("dials = %d: an unexpected reply was retried", b.dialer.dials)
		}
	})
}

func TestDialFailureNamesTheService(t *testing.T) {
	b := newBench()
	b.v.Run(func() {
		c := b.conn() // nothing listens
		if _, _, err := c.Call(msgEcho); err == nil || err.Error() != "test: dial srv:4000: simnet: dial srv:4000: connection refused" {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestServeClosesConnectionsOverTheBound(t *testing.T) {
	b := newBench()
	b.adm = admit.New(admit.Options{Service: "test", MaxConcurrent: 4, MaxConns: 1, Clock: b.v})
	b.v.Run(func() {
		b.start(t)
		first := b.conn()
		defer first.Close()
		wantEcho(t, first)
		second := b.conn()
		defer second.Close()
		if _, _, err := second.Call(msgEcho, []byte("x")); err == nil {
			t.Fatal("a connection over MaxConns was served")
		}
		wantEcho(t, first)
	})
}
