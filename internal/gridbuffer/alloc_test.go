//go:build !race

// The race detector makes sync.Pool drop a random quarter of what is put
// back, so pooled blocks are only measurable without it.

package gridbuffer

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"griddles/internal/simclock"
)

type loopbackDialer struct{}

func (loopbackDialer) Dial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// TestPipeAllocatesUnderOneAllocPerBlock: writer, service and reader in one
// process over loopback TCP allocate at most one heap object per 4 KiB
// block in steady state. A block changes hands from the writer's partial to
// its replay window, into the service's table, and out of it framed while
// pinned; the reader hands the frame itself to the application. Streams of
// 2048 and 6144 blocks are measured and the difference divided by the 4096
// blocks between them, so dials, attaches and warm-up cancel out.
func TestPipeAllocatesUnderOneAllocPerBlock(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	clock := simclock.Real{}
	go NewServer(NewRegistry(clock, nil), clock).Serve(l)
	opts := Options{Capacity: 64}
	record := make([]byte, DefaultBlockSize)
	stream := func(key string, blocks int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		errc := make(chan error, 1)
		go func() {
			r, err := NewReader(loopbackDialer{}, l.Addr().String(), clock, key, opts, ReaderOptions{})
			if err != nil {
				errc <- err
				return
			}
			n, err := io.Copy(io.Discard, r)
			r.Close()
			if err == nil && n != int64(blocks*len(record)) {
				err = fmt.Errorf("read %d of %d bytes", n, blocks*len(record))
			}
			errc <- err
		}()
		w, err := NewWriter(loopbackDialer{}, l.Addr().String(), clock, key, opts, WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < blocks; i++ {
			if _, err := w.Write(record); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	stream("warm", 256)
	short := stream("short", 2048)
	long := stream("long", 6144)
	perBlock := (float64(long) - float64(short)) / 4096
	t.Logf("%d and %d allocations over 2048 and 6144 blocks: %.2f per block", short, long, perBlock)
	if perBlock > 1.0 {
		t.Errorf("%.2f allocations per 4 KiB block, want at most 1.0", perBlock)
	}
}
