package rpc_test

import (
	"io"
	"net"
	"testing"
	"time"

	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/nws"
	"griddles/internal/objstore"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/soap"
	"griddles/internal/vfs"
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

// TestEveryServeRidesOutTemporaryAcceptErrors drives each service's Serve
// with a listener that fails temporarily twice before yielding a connection:
// all eight must back off, keep accepting and answer the request.
func TestEveryServeRidesOutTemporaryAcceptErrors(t *testing.T) {
	const addr = "srv:4000"
	services := []struct {
		name  string
		serve func(v *simclock.Virtual, l net.Listener)
		call  func(v *simclock.Virtual, d *simnet.Host) error
	}{
		{"gns",
			func(v *simclock.Virtual, l net.Listener) { gns.NewServer(gns.NewStore(v), v).Serve(l) },
			func(v *simclock.Virtual, d *simnet.Host) error {
				c := gns.NewClient(d, addr, v)
				defer c.Close()
				_, err := c.Resolve("m", "p")
				return err
			}},
		{"gridftp",
			func(v *simclock.Virtual, l net.Listener) { gridftp.NewServer(vfs.NewMemFS(), v).Serve(l) },
			func(v *simclock.Virtual, d *simnet.Host) error {
				c := gridftp.NewClient(d, addr, v)
				defer c.Close()
				_, _, err := c.Stat("x")
				return err
			}},
		{"gridbuffer",
			func(v *simclock.Virtual, l net.Listener) {
				gridbuffer.NewServer(gridbuffer.NewRegistry(v, nil), v).Serve(l)
			},
			func(v *simclock.Virtual, d *simnet.Host) error {
				w, err := gridbuffer.NewWriter(d, addr, v, "k", gridbuffer.Options{}, gridbuffer.WriterOptions{})
				if err != nil {
					return err
				}
				return w.Close()
			}},
		{"objstore",
			func(v *simclock.Virtual, l net.Listener) { objstore.NewServer(objstore.NewStore(), v).Serve(l) },
			func(v *simclock.Virtual, d *simnet.Host) error {
				_, _, err := objstore.NewClient(d, addr, v).Stat("x")
				return err
			}},
		{"nws-sensor",
			func(v *simclock.Virtual, l net.Listener) { nws.NewSensor(v).Serve(l) },
			func(v *simclock.Virtual, d *simnet.Host) error {
				_, _, err := nws.NewProber(v, d).Probe(addr)
				return err
			}},
		{"soap",
			func(v *simclock.Virtual, l net.Listener) {
				echo := func(conn net.Conn) { io.Copy(conn, conn) }
				soap.Serve(l, v, echo)
			},
			func(v *simclock.Virtual, d *simnet.Host) error {
				conn, err := soap.Dialer{Dialer: d}.Dial(addr)
				if err != nil {
					return err
				}
				defer conn.Close()
				io.WriteString(conn, "ping")
				_, err = io.ReadAll(conn)
				return err
			}},
	}
	for _, svc := range services {
		t.Run(svc.name, func(t *testing.T) {
			v := simclock.NewVirtualDefault()
			n := simnet.New(v)
			n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: time.Millisecond})
			v.Run(func() {
				l, err := n.Host("srv").Listen(addr)
				if err != nil {
					t.Fatalf("listen: %v", err)
				}
				defer l.Close()
				v.Go("serve", func() { svc.serve(v, &flakyListener{Listener: l, fails: 2}) })
				// Were the accept loop gone, the dial would still succeed (the
				// listener is open) and the call would wait for ever; bound it.
				answered := simclock.NewEvent(v)
				v.Go("call", func() {
					if err := svc.call(v, n.Host("app")); err != nil {
						t.Errorf("request through a flaky listener: %v", err)
					}
					answered.Set()
				})
				if !answered.WaitTimeout(10 * time.Second) {
					t.Fatal("no answer: the accept loop died on a temporary error")
				}
			})
		})
	}
}
