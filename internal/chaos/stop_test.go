package chaos

import (
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/nws"
	"griddles/internal/objstore"
	"griddles/internal/obs"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/soap"
	"griddles/internal/vfs"
)

// stopCycle is one start/stop of a service on a fresh simulated network.
type stopCycle struct {
	v     *simclock.Virtual
	net   *simnet.Network
	obs   *obs.Observer
	reg   *gridbuffer.Registry
	stops []func()
}

// serve runs serve on a listener at addr, on host "srv".
func (c *stopCycle) serve(addr string, serve func(net.Listener)) {
	l, err := c.net.Host("srv").Listen(addr)
	if err != nil {
		panic(err)
	}
	c.stops = append(c.stops, rpc.Start(c.v, "serve "+addr, l, serve))
}

// stopRow is one service: start brings it up and returns the address a
// client dials. A row with park also makes a call from host cli that waits
// at the server for what will never come, and arrived reports, from the
// metrics, that the call reached the server.
type stopRow struct {
	name    string
	start   func(c *stopCycle) string
	park    func(c *stopCycle, cli *simnet.Host, addr string)
	arrived func(s obs.Snapshot) bool
}

func bufferServer(c *stopCycle) *gridbuffer.Server {
	s := gridbuffer.NewServer(c.reg, c.v)
	c.serve("srv:7000", s.Serve)
	return s
}

// gnsServer serves a store recording into the cycle's observer.
func gnsServer(c *stopCycle) *gns.Server {
	store := gns.NewStore(c.v)
	store.SetObserver(c.obs)
	return gns.NewServer(store, c.v)
}

// parkWatch waits, with no timeout, for a key nobody sets.
func parkWatch(c *stopCycle, cli *simnet.Host, addr string) {
	gns.NewClient(cli, addr, c.v).Watch("m", "/never", 0, 0)
}

func watchArrived(s obs.Snapshot) bool { return s.Counters["gns.watch.total"] == 1 }

// parkReader reads a Grid Buffer stream no writer will fill, over dialer.
func parkReader(dialer func(h *simnet.Host) rpc.Dialer, perCall bool) func(c *stopCycle, cli *simnet.Host, addr string) {
	return func(c *stopCycle, cli *simnet.Host, addr string) {
		r, err := gridbuffer.NewReader(dialer(cli), addr, c.v, "parked", gridbuffer.Options{}, gridbuffer.ReaderOptions{ConnPerCall: perCall})
		if err != nil {
			return
		}
		io.ReadAll(r)
		r.Close()
	}
}

func readerArrived(s obs.Snapshot) bool { return s.Histograms["buf.window.depth"].Count > 0 }

var stopRows = []stopRow{
	{name: "gns", start: func(c *stopCycle) string {
		c.serve("srv:5000", gnsServer(c).Serve)
		return "srv:5000"
	}, park: parkWatch, arrived: watchArrived},
	{name: "gns-ring", start: func(c *stopCycle) string {
		srv := gnsServer(c)
		sm, err := gns.ParseRing("0=srv:5000")
		if err != nil {
			panic(err)
		}
		if err := srv.EnableShard(gns.ShardConfig{Map: sm, Self: "srv:5000", Dialer: c.net.Host("srv")}); err != nil {
			panic(err)
		}
		c.serve("srv:5000", srv.Serve)
		return "srv:5000"
	}, park: parkWatch, arrived: watchArrived},
	{name: "gridftp", start: func(c *stopCycle) string {
		c.serve("srv:6000", gridftp.NewServer(vfs.NewMemFS(), c.v).Serve)
		return "srv:6000"
	}},
	{name: "gridbuffer", start: func(c *stopCycle) string {
		bufferServer(c)
		return "srv:7000"
	}, park: parkReader(func(h *simnet.Host) rpc.Dialer { return h }, false), arrived: readerArrived},
	{name: "gridbuffer-soap", start: func(c *stopCycle) string {
		s := bufferServer(c)
		c.serve("srv:7001", func(l net.Listener) { soap.Serve(l, c.v, s.ServeConn) })
		return "srv:7001"
	}, park: parkReader(func(h *simnet.Host) rpc.Dialer { return soap.Dialer{Dialer: h} }, true), arrived: readerArrived},
	{name: "objstore", start: func(c *stopCycle) string {
		c.serve("srv:7100", objstore.NewServer(objstore.NewStore(), c.v).Serve)
		return "srv:7100"
	}},
	{name: "nws-sensor", start: func(c *stopCycle) string {
		c.serve("srv:8100", nws.NewSensor(c.v).Serve)
		return "srv:8100"
	}},
}

// TestStopOnSimnet starts and stops each service 100 times. Each cycle holds
// an idle client connection across the stop, for the GNS a Watch with no
// timeout, and for the Grid Buffer a reader waiting for a block. Closing the listeners must make every Serve
// return, and leave no goroutine on the clock, no buffer in the registry and
// no metric labelled with a buffer key.
func TestStopOnSimnet(t *testing.T) {
	for _, row := range stopRows {
		t.Run(row.name, func(t *testing.T) {
			for i := 0; i < 100; i++ {
				if err := stopOnce(row); err != nil {
					t.Fatalf("cycle %d: %v", i, err)
				}
			}
		})
	}
}

func stopOnce(row stopRow) (err error) {
	v := simclock.NewVirtualDefault()
	c := &stopCycle{v: v, net: simnet.New(v), obs: obs.New(v)}
	c.reg = gridbuffer.NewRegistry(v, vfs.NewMemFS())
	c.reg.SetObserver(c.obs)
	returned := false
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("simulation aborted: %v", r)
		}
	}()
	v.Run(func() {
		addr := row.start(c)
		cli := c.net.Host("cli")
		// Held open and idle: only the stop may end its handler.
		if _, derr := cli.Dial(addr); derr != nil {
			err = derr
			return
		}
		parked := simclock.NewEvent(v)
		if row.park != nil {
			v.Go("parked", func() {
				defer parked.Set()
				row.park(c, cli, addr)
			})
		}
		v.Sleep(time.Second) // the parked call reaches the server and waits there
		if row.park != nil && (parked.IsSet() || !row.arrived(c.obs.Snapshot())) {
			err = fmt.Errorf("the parked call is not waiting at the server")
			return
		}
		stopped := simclock.NewEvent(v)
		v.Go("stop", func() {
			rpc.StopAll(c.stops...)()
			stopped.Set()
		})
		if returned = stopped.WaitTimeout(time.Minute); returned && row.park != nil {
			parked.Wait()
		}
	})
	switch {
	case err != nil:
		return err
	case !returned:
		return fmt.Errorf("Serve did not return")
	}
	if n := v.Live(); n != 0 {
		return fmt.Errorf("%d goroutines still live", n)
	}
	if n := c.reg.Len(); n != 0 {
		return fmt.Errorf("%d buffers left in the registry", n)
	}
	if s := c.obs.Snapshot().String(); strings.Contains(s, "key=") {
		return fmt.Errorf("key-labelled metrics left:\n%s", s)
	}
	return nil
}
