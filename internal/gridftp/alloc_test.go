//go:build !race

// The race detector's shadow allocations would drown what is measured here.

package gridftp

import (
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
)

type loopbackDialer struct{}

func (loopbackDialer) Dial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// TestRemoteReadAllocationBudget: a 16 MiB read through a RemoteFile in
// 64 KiB calls, client and server in one process over loopback TCP,
// allocates at most 0.05 bytes per payload byte. Each reply is read from the
// file into the session's reply buffer and off the connection into the
// handle's, and the window aliases the handle's. The session outlives the
// handle on the pooled connection, so a first read grows its buffer to the
// window cap before the measured one; what the measured read allocates is
// the handle's buffer growing to the cap once, and a few small objects per
// round trip. A fresh buffer per reply is at least 1.0.
func TestRemoteReadAllocationBudget(t *testing.T) {
	const total = 16 << 20
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "f", make([]byte, total)); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	clock := simclock.Real{}
	go NewServer(fs, clock).Serve(l)
	c := NewClient(loopbackDialer{}, l.Addr().String(), clock)
	defer c.Close()
	if _, _, err := c.Stat("f"); err != nil { // dial outside the measurement
		t.Fatal(err)
	}
	call := make([]byte, 64<<10)
	read := func() *RemoteFile {
		f, err := c.Open("f", os.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for {
			got, err := f.Read(call)
			n += int64(got)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if n != total {
			t.Fatalf("read %d bytes, want %d", n, total)
		}
		return f
	}
	read()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := read()
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / total
	t.Logf("%.4f bytes allocated per payload byte (%d bytes)", perByte, after.TotalAlloc-before.TotalAlloc)
	if perByte > 0.05 {
		t.Fatalf("%.4f bytes allocated per payload byte, want at most 0.05", perByte)
	}
	if cap(f.reply) > rpc.WindowMax+readPrefix {
		t.Fatalf("the handle kept a %d-byte reply buffer, past the window cap", cap(f.reply))
	}
}
