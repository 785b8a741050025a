// Package realnet integration-tests the GriddLeS services over real
// loopback TCP with the wall clock — the cmd/ daemon configuration — to
// prove the one-code-path claim: everything else in the repo runs the same
// code under the virtual clock.
package realnet

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/nws"
	"griddles/internal/simclock"
	"griddles/internal/soap"
	"griddles/internal/vfs"
)

type tcpDialer struct{}

func (tcpDialer) Dial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// listen starts fn on a fresh loopback port and returns the address.
func listen(t *testing.T, fn func(net.Listener)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go fn(l)
	return l.Addr().String()
}

func TestGNSOverTCP(t *testing.T) {
	clock := simclock.Real{}
	store := gns.NewStore(clock)
	addr := listen(t, func(l net.Listener) { gns.NewServer(store, clock).Serve(l) })
	c := gns.NewClient(tcpDialer{}, addr, clock)
	defer c.Close()

	if _, err := c.Set("m", "f", gns.Mapping{Mode: gns.ModeBuffer, BufferKey: "k"}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Resolve("m", "f")
	if err != nil || m.Mode != gns.ModeBuffer || m.BufferKey != "k" {
		t.Fatalf("resolve = %+v err=%v", m, err)
	}
	// Watch over TCP with a real timeout.
	go func() {
		time.Sleep(50 * time.Millisecond)
		store.Set("m", "f", gns.Mapping{Mode: gns.ModeLocal})
	}()
	got, changed, err := c.Watch("m", "f", m.Version, 5000)
	if err != nil || !changed || got.Mode != gns.ModeLocal {
		t.Fatalf("watch = %+v changed=%v err=%v", got, changed, err)
	}
}

func TestGridFTPOverTCP(t *testing.T) {
	clock := simclock.Real{}
	fs := vfs.NewMemFS()
	want := make([]byte, 300_000)
	rand.New(rand.NewSource(1)).Read(want)
	vfs.WriteFile(fs, "blob", want)
	addr := listen(t, func(l net.Listener) { gridftp.NewServer(fs, clock).Serve(l) })

	c := gridftp.NewClient(tcpDialer{}, addr, clock)
	defer c.Close()
	local := vfs.NewMemFS()
	n, err := c.CopyIn("blob", local, "copy", 4)
	if err != nil || n != int64(len(want)) {
		t.Fatalf("copy: n=%d err=%v", n, err)
	}
	got, _ := vfs.ReadFile(local, "copy")
	if !bytes.Equal(got, want) {
		t.Error("parallel TCP copy corrupted data")
	}
}

func TestGridBufferOverTCP(t *testing.T) {
	clock := simclock.Real{}
	reg := gridbuffer.NewRegistry(clock, vfs.NewMemFS())
	addr := listen(t, func(l net.Listener) { gridbuffer.NewServer(reg, clock).Serve(l) })

	want := make([]byte, 150_000)
	rand.New(rand.NewSource(2)).Read(want)
	opts := gridbuffer.Options{Cache: true}
	got := make(chan []byte, 1)
	go func() {
		r, err := gridbuffer.NewReader(tcpDialer{}, addr, clock, "k", opts, gridbuffer.ReaderOptions{})
		if err != nil {
			got <- nil
			return
		}
		defer r.Close()
		data, _ := io.ReadAll(r)
		// Re-read from the cache over real TCP.
		r.Seek(0, io.SeekStart)
		again := make([]byte, 4096)
		if _, err := io.ReadFull(r, again); err != nil || !bytes.Equal(again, data[:4096]) {
			got <- nil
			return
		}
		got <- data
	}()
	w, err := gridbuffer.NewWriter(tcpDialer{}, addr, clock, "k", opts, gridbuffer.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Write(want)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := <-got
	if !bytes.Equal(data, want) {
		t.Fatal("TCP buffer stream corrupted (or cache re-read failed)")
	}
}

func TestSOAPBufferOverTCP(t *testing.T) {
	clock := simclock.Real{}
	srv := gridbuffer.NewServer(gridbuffer.NewRegistry(clock, vfs.NewMemFS()), clock)
	addr := listen(t, func(l net.Listener) { soap.Serve(l, clock, srv.ServeConn) })
	d := soap.Dialer{Dialer: tcpDialer{}}

	want := make([]byte, 60_000)
	rand.New(rand.NewSource(3)).Read(want)
	got := make(chan []byte, 1)
	go func() {
		r, err := gridbuffer.NewReader(d, addr, clock, "k", gridbuffer.Options{}, gridbuffer.ReaderOptions{ConnPerCall: true})
		if err != nil {
			got <- nil
			return
		}
		defer r.Close()
		data, _ := io.ReadAll(r)
		got <- data
	}()
	w, err := gridbuffer.NewWriter(d, addr, clock, "k", gridbuffer.Options{}, gridbuffer.WriterOptions{ConnPerCall: true})
	if err != nil {
		t.Fatal(err)
	}
	w.Write(want)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if data := <-got; !bytes.Equal(data, want) {
		t.Fatal("SOAP-over-TCP stream corrupted")
	}
}

func TestNWSOverTCP(t *testing.T) {
	clock := simclock.Real{}
	sensorAddr := listen(t, func(l net.Listener) { nws.NewSensor(clock).Serve(l) })

	p := nws.NewProber(clock, tcpDialer{})
	p.Burst = 64 * 1024
	lat, bw, err := p.Probe(sensorAddr)
	if err != nil {
		t.Fatal(err)
	}
	if lat < 0 || bw <= 0 {
		t.Fatalf("probe = %v %v", lat, bw)
	}
}

// TestFMEndToEndOverTCP runs the full FM stack — network GNS, file service,
// buffer service — on loopback TCP, switching a pipe from staged copy to
// buffer purely by GNS edits.
func TestFMEndToEndOverTCP(t *testing.T) {
	clock := simclock.Real{}
	store := gns.NewStore(clock)
	gnsAddr := listen(t, func(l net.Listener) { gns.NewServer(store, clock).Serve(l) })
	producerFS := vfs.NewMemFS()
	ftpAddr := listen(t, func(l net.Listener) { gridftp.NewServer(producerFS, clock).Serve(l) })
	reg := gridbuffer.NewRegistry(clock, vfs.NewMemFS())
	bufAddr := listen(t, func(l net.Listener) { gridbuffer.NewServer(reg, clock).Serve(l) })

	mkFM := func(machine string, fs vfs.FS) *core.Multiplexer {
		fm, err := core.New(core.Config{
			Machine: machine, Clock: clock, FS: fs, Dialer: tcpDialer{},
			GNS:          gns.NewClient(tcpDialer{}, gnsAddr, clock),
			PollInterval: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}
	producer := mkFM("producer", producerFS)
	consumer := mkFM("consumer", vfs.NewMemFS())

	roundTrip := func(payload []byte) error {
		done := make(chan error, 1)
		go func() {
			r, err := consumer.Open("pipe.dat")
			if err != nil {
				done <- err
				return
			}
			defer r.Close()
			got, err := io.ReadAll(r)
			if err != nil {
				done <- err
				return
			}
			if !bytes.Equal(got, payload) {
				done <- fmt.Errorf("payload mismatch (%d vs %d bytes)", len(got), len(payload))
				return
			}
			done <- nil
		}()
		w, err := producer.Create("pipe.dat")
		if err != nil {
			return err
		}
		if _, err := w.Write(payload); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("consumer timed out")
		}
	}

	// Configuration 1: staged copy through the file service.
	store.Set("producer", "pipe.dat", gns.Mapping{Mode: gns.ModeLocal, WaitClose: true})
	store.Set("consumer", "pipe.dat", gns.Mapping{
		Mode: gns.ModeCopy, RemoteHost: ftpAddr, RemotePath: "pipe.dat", WaitClose: true,
	})
	if err := roundTrip([]byte("copied across TCP")); err != nil {
		t.Fatalf("copy config: %v", err)
	}

	// Configuration 2: direct buffer — same code, new GNS entries.
	m := gns.Mapping{Mode: gns.ModeBuffer, BufferHost: bufAddr, BufferKey: "tcp/pipe"}
	store.Set("producer", "pipe.dat", m)
	store.Set("consumer", "pipe.dat", m)
	if err := roundTrip([]byte("streamed across TCP")); err != nil {
		t.Fatalf("buffer config: %v", err)
	}
}
