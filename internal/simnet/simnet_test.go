package simnet

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"testing"
	"testing/quick"
	"time"

	"griddles/internal/simclock"
)

// testNet builds a two-host network with the given A->B and B->A spec.
func testNet(clock simclock.Clock, spec LinkSpec) *Network {
	n := New(clock)
	n.SetLinkBoth("a", "b", spec)
	return n
}

// startEcho runs a server on host b that echoes everything back.
func startEcho(t *testing.T, clock simclock.Clock, n *Network) {
	t.Helper()
	l, err := n.Host("b").Listen("b:9")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	clock.Go("echo-accept", func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			clock.Go("echo-conn", func() {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			})
		}
	})
}

func TestEchoRoundTrip(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := testNet(v, LinkSpec{Latency: 10 * time.Millisecond})
	v.Run(func() {
		startEcho(t, v, n)
		c, err := n.Host("a").Dial("b:9")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		msg := []byte("hello grid")
		if _, err := c.Write(msg); err != nil {
			t.Fatalf("write: %v", err)
		}
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("echo got %q want %q", got, msg)
		}
	})
	// Handshake RTT (20ms) + request latency (10ms) + reply latency (10ms).
	if got, want := v.Elapsed(), 40*time.Millisecond; got != want {
		t.Errorf("round trip took %v, want %v", got, want)
	}
}

func TestBandwidthBoundTransfer(t *testing.T) {
	v := simclock.NewVirtualDefault()
	const bw = 1 << 20 // 1 MiB/s
	n := testNet(v, LinkSpec{Latency: time.Millisecond, Bandwidth: bw})
	var elapsed time.Duration
	v.Run(func() {
		l, err := n.Host("b").Listen("b:9")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		const total = 4 << 20 // 4 MiB
		done := simclock.NewWaitGroup(v)
		done.Add(1)
		v.Go("sink", func() {
			defer done.Done()
			c, err := l.Accept()
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			if n, _ := io.Copy(io.Discard, c); n != total {
				t.Errorf("sink got %d bytes, want %d", n, total)
			}
		})
		c, err := n.Host("a").Dial("b:9")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		start := v.Now()
		buf := make([]byte, 64*1024)
		for sent := 0; sent < total; sent += len(buf) {
			if _, err := c.Write(buf); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		c.Close()
		done.Wait()
		elapsed = v.Now().Sub(start)
	})
	want := 4 * time.Second // 4 MiB at 1 MiB/s
	if elapsed < want || elapsed > want+100*time.Millisecond {
		t.Errorf("transfer took %v, want ~%v", elapsed, want)
	}
}

func TestWindowLatencyBoundThroughput(t *testing.T) {
	v := simclock.NewVirtualDefault()
	const lat = 100 * time.Millisecond
	n := testNet(v, LinkSpec{Latency: lat}) // unlimited bandwidth
	n.SetWindow(64 * 1024)
	var elapsed time.Duration
	v.Run(func() {
		l, err := n.Host("b").Listen("b:9")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		const total = 10 * 64 * 1024 // ten windows
		done := simclock.NewWaitGroup(v)
		done.Add(1)
		v.Go("sink", func() {
			defer done.Done()
			c, _ := l.Accept()
			io.Copy(io.Discard, c)
		})
		c, err := n.Host("a").Dial("b:9")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		start := v.Now()
		buf := make([]byte, 64*1024)
		for sent := 0; sent < total; sent += len(buf) {
			c.Write(buf)
		}
		c.Close()
		done.Wait()
		elapsed = v.Now().Sub(start)
	})
	// Steady-state throughput is one window per one-way latency; ten windows
	// should take about 10 * lat. Allow slack for pipeline fill.
	if elapsed < 9*lat || elapsed > 12*lat {
		t.Errorf("10-window transfer over %v link took %v, want ~%v", lat, elapsed, 10*lat)
	}
}

func TestSharedLinkSerialization(t *testing.T) {
	// Two concurrent 1 MiB transfers over a shared 1 MiB/s link should take
	// about 2 s total, not 1 s.
	v := simclock.NewVirtualDefault()
	n := testNet(v, LinkSpec{Latency: time.Millisecond, Bandwidth: 1 << 20})
	v.Run(func() {
		l, err := n.Host("b").Listen("b:9")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		v.Go("sink-loop", func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				v.Go("sink", func() { io.Copy(io.Discard, c) })
			}
		})
		wg := simclock.NewWaitGroup(v)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			v.Go("src", func() {
				defer wg.Done()
				c, err := n.Host("a").Dial("b:9")
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				buf := make([]byte, 64*1024)
				for sent := 0; sent < 1<<20; sent += len(buf) {
					c.Write(buf)
				}
				c.Close()
			})
		}
		wg.Wait()
	})
	if got := v.Elapsed(); got < 1900*time.Millisecond || got > 2400*time.Millisecond {
		t.Errorf("two shared transfers took %v, want ~2s", got)
	}
}

func TestDialRefused(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := New(v)
	v.Run(func() {
		if _, err := n.Host("a").Dial("b:9"); err == nil {
			t.Error("dial to non-listening address succeeded")
		}
	})
}

func TestListenerClose(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := New(v)
	v.Run(func() {
		l, err := n.Host("b").Listen("b:9")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		acceptErr := make(chan error, 1)
		v.Go("acceptor", func() {
			_, err := l.Accept()
			acceptErr <- err
		})
		v.Sleep(time.Millisecond) // let the acceptor park
		l.Close()
		v.Sleep(time.Millisecond)
		select {
		case err := <-acceptErr:
			if !errors.Is(err, net.ErrClosed) {
				t.Errorf("accept err = %v, want net.ErrClosed", err)
			}
		default:
			t.Error("accept did not return after close")
		}
		if _, err := n.Host("a").Dial("b:9"); err == nil {
			t.Error("dial after listener close succeeded")
		}
		// The port is free again.
		if _, err := n.Host("b").Listen("b:9"); err != nil {
			t.Errorf("re-listen after close: %v", err)
		}
	})
}

// TestListenerCloseResetsBacklog: a connection dialed but never accepted
// ends when its listener closes, so its dialer reads EOF instead of
// waiting for an answer for ever.
func TestListenerCloseResetsBacklog(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := New(v)
	v.Run(func() {
		l, err := n.Host("b").Listen("b:9")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		c, err := n.Host("a").Dial("b:9")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		l.Close()
		if _, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("read from an unaccepted conn after close = %v, want EOF", err)
		}
	})
}

func TestListenAddressInUse(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := New(v)
	v.Run(func() {
		if _, err := n.Host("b").Listen("b:9"); err != nil {
			t.Fatalf("listen: %v", err)
		}
		if _, err := n.Host("b").Listen("b:9"); err == nil {
			t.Error("second listen on same address succeeded")
		}
	})
}

func TestListenWrongHost(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := New(v)
	v.Run(func() {
		if _, err := n.Host("a").Listen("b:9"); err == nil {
			t.Error("listening on another host's address succeeded")
		}
	})
}

func TestEOFAfterClose(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := testNet(v, LinkSpec{Latency: time.Millisecond})
	v.Run(func() {
		l, _ := n.Host("b").Listen("b:9")
		got := make(chan []byte, 1)
		v.Go("server", func() {
			c, _ := l.Accept()
			data, _ := io.ReadAll(c)
			got <- data
		})
		c, err := n.Host("a").Dial("b:9")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.Write([]byte("last words"))
		c.Close()
		v.Sleep(time.Second)
		select {
		case data := <-got:
			if string(data) != "last words" {
				t.Errorf("got %q", data)
			}
		default:
			t.Error("server never saw EOF")
		}
	})
}

func TestHalfClose(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := testNet(v, LinkSpec{Latency: time.Millisecond})
	v.Run(func() {
		l, _ := n.Host("b").Listen("b:9")
		v.Go("server", func() {
			c, _ := l.Accept()
			data, _ := io.ReadAll(c) // returns at client's CloseWrite
			c.Write(bytes.ToUpper(data))
			c.Close()
		})
		c, err := n.Host("a").Dial("b:9")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.Write([]byte("shout"))
		c.(*Conn).CloseWrite()
		reply, err := io.ReadAll(c)
		if err != nil {
			t.Fatalf("read reply: %v", err)
		}
		if string(reply) != "SHOUT" {
			t.Errorf("reply %q, want SHOUT", reply)
		}
	})
}

func TestReadDeadline(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := testNet(v, LinkSpec{Latency: time.Millisecond})
	v.Run(func() {
		l, _ := n.Host("b").Listen("b:9")
		v.Go("silent-server", func() {
			c, _ := l.Accept()
			_ = c // accept and say nothing
		})
		c, err := n.Host("a").Dial("b:9")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.SetReadDeadline(v.Now().Add(50 * time.Millisecond))
		start := v.Now()
		_, err = c.Read(make([]byte, 1))
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("read err = %v, want deadline exceeded", err)
		}
		if got := v.Now().Sub(start); got != 50*time.Millisecond {
			t.Errorf("deadline fired after %v, want 50ms", got)
		}
		// Clearing the deadline lets reads proceed again.
		c.SetReadDeadline(time.Time{})
	})
}

func TestWriteAfterPeerCloseFails(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := testNet(v, LinkSpec{Latency: time.Millisecond})
	v.Run(func() {
		l, _ := n.Host("b").Listen("b:9")
		var server net.Conn
		v.Go("server", func() {
			server, _ = l.Accept()
			server.Close()
		})
		c, err := n.Host("a").Dial("b:9")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		v.Sleep(time.Second) // ensure the close happened
		// Writes eventually fail once the peer's read side is gone.
		var werr error
		for i := 0; i < 100 && werr == nil; i++ {
			_, werr = c.Write(make([]byte, 1024))
		}
		if werr == nil {
			t.Error("writes to closed peer never failed")
		}
	})
}

func TestLoopbackIsFast(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := New(v)
	v.Run(func() {
		l, _ := n.Host("a").Listen("a:9")
		v.Go("sink", func() {
			c, _ := l.Accept()
			io.Copy(io.Discard, c)
		})
		c, err := n.Host("a").Dial("a:9")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		buf := make([]byte, 1<<20)
		c.Write(buf)
		c.Close()
	})
	if v.Elapsed() > 10*time.Millisecond {
		t.Errorf("loopback 1MiB took %v, want ~0", v.Elapsed())
	}
}

func TestAddrs(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := New(v)
	v.Run(func() {
		l, _ := n.Host("b").Listen(":9")
		if l.Addr().String() != "b:9" {
			t.Errorf("listener addr %q, want b:9", l.Addr())
		}
		v.Go("srv", func() {
			c, _ := l.Accept()
			if c.LocalAddr().String() != "b:9" {
				t.Errorf("server local addr %q", c.LocalAddr())
			}
			if c.RemoteAddr().String() != "a:0" {
				t.Errorf("server remote addr %q", c.RemoteAddr())
			}
		})
		c, err := n.Host("a").Dial("b:9")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if c.RemoteAddr().String() != "b:9" {
			t.Errorf("client remote addr %q", c.RemoteAddr())
		}
		if c.RemoteAddr().Network() != "sim" {
			t.Errorf("network %q, want sim", c.RemoteAddr().Network())
		}
	})
}

// Property: any sequence of writes arrives intact and in order regardless of
// chunking, shaping, and reader buffer sizes.
func TestStreamIntegrityProperty(t *testing.T) {
	f := func(seed int64, nwrites uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		writes := make([][]byte, int(nwrites%12)+1)
		var want bytes.Buffer
		for i := range writes {
			b := make([]byte, rng.Intn(40000)+1)
			rng.Read(b)
			writes[i] = b
			want.Write(b)
		}
		spec := LinkSpec{
			Latency:   time.Duration(rng.Intn(50)) * time.Millisecond,
			Bandwidth: int64(rng.Intn(4)) * 256 * 1024,
		}
		v := simclock.NewVirtualDefault()
		n := testNet(v, spec)
		ok := true
		v.Run(func() {
			l, err := n.Host("b").Listen("b:9")
			if err != nil {
				ok = false
				return
			}
			var got []byte
			done := simclock.NewWaitGroup(v)
			done.Add(1)
			v.Go("reader", func() {
				defer done.Done()
				c, _ := l.Accept()
				buf := make([]byte, rng.Intn(8000)+1)
				for {
					n, err := c.Read(buf)
					got = append(got, buf[:n]...)
					if err != nil {
						return
					}
				}
			})
			c, err := n.Host("a").Dial("b:9")
			if err != nil {
				ok = false
				return
			}
			for _, w := range writes {
				if _, err := c.Write(w); err != nil {
					ok = false
					return
				}
			}
			c.Close()
			done.Wait()
			ok = bytes.Equal(got, want.Bytes())
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestEstablishedConnAllocatesNothing: on an established connection over a
// shaped link, an 8 KiB write and the reads that drain it allocate nothing
// in steady state: the segment's bytes are a recycled chunk, the segment
// FIFO keeps its backing array, and the clock parks both sides from its free
// lists.
func TestEstablishedConnAllocatesNothing(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := testNet(v, LinkSpec{Latency: time.Millisecond, Bandwidth: 10 << 20})
	v.Run(func() {
		l, err := n.Host("b").Listen("b:9")
		if err != nil {
			t.Fatal(err)
		}
		var b net.Conn
		accepted := simclock.NewWaitGroup(v)
		accepted.Add(1)
		v.Go("accept", func() {
			defer accepted.Done()
			c, err := l.Accept()
			if err != nil {
				t.Error(err)
			}
			b = c
		})
		a, err := n.Host("a").Dial("b:9")
		if err != nil {
			t.Fatal(err)
		}
		accepted.Wait()
		if b == nil {
			return
		}
		out, in := make([]byte, 8<<10), make([]byte, 8<<10)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := a.Write(out); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(b, in); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("an 8 KiB write and read allocate %v times, want 0", allocs)
		}
		a.Close()
		b.Close()
	})
}
