package objstore

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"griddles/internal/admit"
	"griddles/internal/retry"
)

// tempAcceptErr mimics an EMFILE-style transient accept failure.
type tempAcceptErr struct{}

func (tempAcceptErr) Error() string   { return "accept: resource temporarily unavailable" }
func (tempAcceptErr) Temporary() bool { return true }

// flakyListener fails its first `fails` Accepts with a temporary error.
type flakyListener struct {
	net.Listener
	fails int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, tempAcceptErr{}
	}
	return l.Listener.Accept()
}

func TestServeSurvivesFlakyAccept(t *testing.T) {
	r := newRig()
	r.store.PutBytes("k", []byte("hello"))
	r.v.Run(func() {
		l, err := r.net.Host("srv").Listen("srv:7100")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv := NewServer(r.store, r.v)
		r.v.Go("objstore-serve", func() { srv.Serve(&flakyListener{Listener: l, fails: 3}) })
		size, exists, err := r.client.Stat("k")
		if err != nil || !exists || size != 5 {
			t.Fatalf("stat through flaky listener: %d %v %v", size, exists, err)
		}
	})
}

func TestGetShedStatAdmitted(t *testing.T) {
	r := newRig()
	r.store.PutBytes("k", []byte("payload"))
	r.v.Run(func() {
		l, err := r.net.Host("srv").Listen("srv:7100")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv := NewServer(r.store, r.v)
		// Limit 2 with half reserved for control: one bulk slot total.
		ctl := admit.New(admit.Options{Service: "obj", MaxConcurrent: 2, ControlShare: 0.5, Clock: r.v})
		srv.SetAdmission(ctl)
		r.v.Go("objstore-serve", func() { srv.Serve(l) })

		rel, err := ctl.Acquire("other", admit.Bulk)
		if err != nil {
			t.Fatalf("pre-acquire: %v", err)
		}

		// The bulk get sheds with a hint...
		var buf bytes.Buffer
		_, _, err = r.client.Get("k", 0, -1, &buf)
		var shed *admit.ShedError
		if !errors.As(err, &shed) {
			t.Fatalf("get err = %v, want ShedError", err)
		}
		// ...while stat (control class) still answers.
		size, exists, err := r.client.Stat("k")
		if err != nil || !exists || size != 7 {
			t.Fatalf("stat under bulk saturation: %d %v %v", size, exists, err)
		}

		// With retry, the get completes once the slot frees.
		r.client.SetRetry(retry.Policy{
			MaxAttempts: 5, BaseDelay: 50 * time.Millisecond,
			AttemptTimeout: time.Second, Clock: r.v,
		})
		r.v.Go("releaser", func() {
			r.v.Sleep(120 * time.Millisecond)
			rel()
		})
		buf.Reset()
		n, _, err := r.client.Get("k", 0, -1, &buf)
		if err != nil || n != 7 || buf.String() != "payload" {
			t.Fatalf("get after release: n=%d err=%v body=%q", n, err, buf.String())
		}
	})
}

func TestPutShedDrainsStreamThenRetrySucceeds(t *testing.T) {
	r := newRig()
	r.v.Run(func() {
		l, err := r.net.Host("srv").Listen("srv:7100")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv := NewServer(r.store, r.v)
		ctl := admit.New(admit.Options{Service: "obj", MaxConcurrent: 2, ControlShare: 0.5, Clock: r.v})
		srv.SetAdmission(ctl)
		r.v.Go("objstore-serve", func() { srv.Serve(l) })

		rel, err := ctl.Acquire("other", admit.Bulk)
		if err != nil {
			t.Fatalf("pre-acquire: %v", err)
		}

		// The whole upload is drained server-side before the shed answer,
		// so the connection framing stays intact.
		body := payload(3, 64<<10)
		_, err = r.client.Put("k", bytes.NewReader(body))
		var shed *admit.ShedError
		if !errors.As(err, &shed) {
			t.Fatalf("put err = %v, want ShedError", err)
		}

		r.client.SetRetry(retry.Policy{
			MaxAttempts: 5, BaseDelay: 50 * time.Millisecond,
			AttemptTimeout: time.Second, Clock: r.v,
		})
		r.v.Go("releaser", func() {
			r.v.Sleep(120 * time.Millisecond)
			rel()
		})
		n, err := r.client.Put("k", bytes.NewReader(body))
		if err != nil || n != int64(len(body)) {
			t.Fatalf("put after release: n=%d err=%v", n, err)
		}
		var buf bytes.Buffer
		gn, _, err := r.client.Get("k", 0, -1, &buf)
		if err != nil || gn != int64(len(body)) || !bytes.Equal(buf.Bytes(), body) {
			t.Fatalf("get back: n=%d err=%v", gn, err)
		}
	})
}

func TestControlShedSurfacesOnRoundTrip(t *testing.T) {
	r := newRig()
	r.store.PutBytes("k", []byte("x"))
	r.v.Run(func() {
		l, err := r.net.Host("srv").Listen("srv:7100")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv := NewServer(r.store, r.v)
		// One slot, no control reserve, no queue: even stat sheds while
		// the slot is held.
		ctl := admit.New(admit.Options{Service: "obj", MaxConcurrent: 1, ControlShare: -1, Clock: r.v})
		srv.SetAdmission(ctl)
		r.v.Go("objstore-serve", func() { srv.Serve(l) })

		rel, err := ctl.Acquire("other", admit.Bulk)
		if err != nil {
			t.Fatalf("pre-acquire: %v", err)
		}
		defer rel()

		_, _, err = r.client.Stat("k")
		var shed *admit.ShedError
		if !errors.As(err, &shed) {
			t.Fatalf("stat err = %v, want ShedError", err)
		}
		if _, err := r.client.List(""); !errors.As(err, &shed) {
			t.Fatalf("list err = %v, want ShedError", err)
		}
	})
}

func TestConnLimitRefusesAndRecovers(t *testing.T) {
	r := newRig()
	r.store.PutBytes("k", []byte("x"))
	r.v.Run(func() {
		l, err := r.net.Host("srv").Listen("srv:7100")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv := NewServer(r.store, r.v)
		ctl := admit.New(admit.Options{Service: "obj", MaxConcurrent: 8, MaxConns: 1, Clock: r.v})
		srv.SetAdmission(ctl)
		r.v.Go("objstore-serve", func() { srv.Serve(l) })

		// A client keeps the connection its last exchange ran on, so one
		// Stat is enough to occupy the only connection slot for as long as
		// the client stays open.
		if _, _, err := r.client.Stat("k"); err != nil {
			t.Fatalf("first client: %v", err)
		}
		r.v.Sleep(10 * time.Millisecond)

		// A second client's connection is closed at accept; fail-fast sees an
		// error, while the first goes on working on the connection it holds.
		c2 := NewClient(r.net.Host("app"), "srv:7100", r.v)
		if _, _, err := c2.Stat("k"); err == nil {
			t.Fatalf("second conn should be refused while the first is open")
		}
		if _, _, err := r.client.Stat("k"); err != nil {
			t.Fatalf("first client on its kept connection: %v", err)
		}

		// Closing the first client gives the slot back, and a retrying
		// client connects.
		if err := r.client.Close(); err != nil {
			t.Fatalf("close first client: %v", err)
		}
		c3 := NewClient(r.net.Host("app"), "srv:7100", r.v)
		c3.SetRetry(retry.Policy{
			MaxAttempts: 5, BaseDelay: 100 * time.Millisecond,
			AttemptTimeout: time.Second, Clock: r.v,
		})
		size, exists, err := c3.Stat("k")
		if err != nil || !exists || size != 1 {
			t.Fatalf("stat after conn slot freed: %d %v %v", size, exists, err)
		}
	})
}
