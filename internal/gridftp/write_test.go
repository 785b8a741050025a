package gridftp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"griddles/internal/obs"
	"griddles/internal/simnet"
	"griddles/internal/vfs"
)

// The write side of a RemoteFile: small writes gather in one contiguous
// dirty run that is written behind the caller, synchronously, as a single
// block. These tests pin what the run costs on the wire, that it is
// invisible to every read, and that no failure to deliver it is ever lost.

// frameCounter is a Dialer whose connections count what the client sends:
// socket writes, and frames by message type (parsed from the byte stream, so
// a frame split over several writes counts once).
type frameCounter struct {
	Dialer
	mu     sync.Mutex
	writes int
	frames [256]int
}

func (d *frameCounter) Dial(addr string) (net.Conn, error) {
	conn, err := d.Dialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &frameCountingConn{Conn: conn, d: d}, nil
}

func (d *frameCounter) count(typ uint8) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.frames[typ]
}

type frameCountingConn struct {
	net.Conn
	d    *frameCounter
	hdr  []byte // frame header bytes seen so far
	body int    // payload bytes of the current frame still to pass
}

func (c *frameCountingConn) Write(p []byte) (int, error) {
	c.d.mu.Lock()
	c.d.writes++
	for b := p; len(b) > 0; {
		if c.body > 0 {
			n := min(c.body, len(b))
			c.body -= n
			b = b[n:]
			continue
		}
		n := min(5-len(c.hdr), len(b))
		c.hdr = append(c.hdr, b[:n]...)
		b = b[n:]
		if len(c.hdr) == 5 {
			c.d.frames[c.hdr[4]]++
			c.body = int(binary.BigEndian.Uint32(c.hdr))
			c.hdr = c.hdr[:0]
		}
	}
	c.d.mu.Unlock()
	return c.Conn.Write(p)
}

// TestWriteBehindCoalescesSequentialWrites is the wire bound of the dirty
// run: 1 MiB in the paper's 4 KiB sequential writes crosses the connection
// in 16 msgWrite frames of 64 KiB (one frame per call took 256), each at
// most two socket writes.
func TestWriteBehindCoalescesSequentialWrites(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: 5 * time.Millisecond, Bandwidth: 1 << 20})
	o := obs.New(r.v)
	fc := &frameCounter{Dialer: r.net.Host("app")}
	r.client = NewClient(fc, "srv:6000", r.v)
	r.client.SetObserver(o)
	want := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(want)
	r.v.Run(func() {
		r.start(t)
		f, err := r.client.Open("out", os.O_WRONLY|os.O_CREATE)
		if err != nil {
			t.Fatal(err)
		}
		const record = 4 << 10
		for off := 0; off < len(want); off += record {
			if _, err := f.Write(want[off : off+record]); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		got, err := vfs.ReadFile(r.fs, "out")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("coalesced output corrupted: %d bytes want %d", len(got), len(want))
		}
	})
	if n := fc.count(msgWrite); n > 17 {
		t.Errorf("%d msgWrite frames for 1 MiB in 4 KiB writes, want <= 17", n)
	}
	if fc.writes > 40 {
		t.Errorf("%d socket writes for 1 MiB in 4 KiB writes, want <= 40", fc.writes)
	}
	snap := o.Snapshot().Counters
	if flushes, joined := snap["ftp.write.flush.total"], snap["ftp.write.coalesce.total"]; flushes != 16 || joined != 256-16 {
		t.Errorf("flushes = %d, coalesced writes = %d; want 16 and 240", flushes, joined)
	}
}

// TestWriteRunMatchesModel drives random Write/WriteAt/Seek/Read/ReadAt
// scripts — overlapping, backwards, sparse, smaller and larger than the run
// — against a RemoteFile and an in-memory model side by side. Every read
// through the handle must return the model's bytes (the handle reads its own
// writes, newest write wins) and after Close the server's file must be the
// model.
func TestWriteRunMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
			var model []byte
			var pos int64
			modelWrite := func(p []byte, off int64) {
				if end := off + int64(len(p)); end > int64(len(model)) {
					model = append(model, make([]byte, end-int64(len(model)))...)
				}
				copy(model[off:], p)
			}
			// payload sizes lean small (the coalescing case) with the odd
			// write at or past the run's capacity (the direct case).
			payload := func() []byte {
				n := 1 + rng.Intn(9000)
				if rng.Intn(8) == 0 {
					n = streamChunk - 100 + rng.Intn(40_000)
				}
				p := make([]byte, n)
				rng.Read(p)
				return p
			}
			offset := func() int64 { return int64(rng.Intn(len(model) + 20_000)) }
			r.v.Run(func() {
				r.start(t)
				f, err := r.client.Open("f", os.O_RDWR|os.O_CREATE)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 60; step++ {
					switch op := rng.Intn(10); {
					case op < 4: // sequential write: extends the run
						p := payload()
						n, err := f.Write(p)
						if err != nil || n != len(p) {
							t.Fatalf("step %d: Write = %d, %v", step, n, err)
						}
						modelWrite(p, pos)
						pos += int64(n)
					case op < 6:
						p, off := payload(), offset()
						if n, err := f.WriteAt(p, off); err != nil || n != len(p) {
							t.Fatalf("step %d: WriteAt(%d) = %d, %v", step, off, n, err)
						}
						modelWrite(p, off)
					case op < 7:
						whence := rng.Intn(3)
						base := []int64{0, pos, int64(len(model))}[whence]
						target := offset()
						got, err := f.Seek(target-base, whence)
						if err != nil || got != target {
							t.Fatalf("step %d: Seek(%d, %d) = %d, %v; want %d", step, target-base, whence, got, err, target)
						}
						pos = target
					case op < 8:
						buf := make([]byte, 1+rng.Intn(20_000))
						n, err := io.ReadFull(f, buf)
						var want []byte
						if pos < int64(len(model)) {
							want = model[pos:min(pos+int64(len(buf)), int64(len(model)))]
						}
						if !bytes.Equal(buf[:n], want) {
							t.Fatalf("step %d: Read at %d returned %d bytes (err %v) that differ from the model's %d", step, pos, n, err, len(want))
						}
						pos += int64(n)
					default:
						buf, off := make([]byte, 1+rng.Intn(20_000)), offset()
						n, err := f.ReadAt(buf, off)
						var want []byte
						if off < int64(len(model)) {
							want = model[off:min(off+int64(len(buf)), int64(len(model)))]
						}
						if !bytes.Equal(buf[:n], want) || (err != nil && err != io.EOF) {
							t.Fatalf("step %d: ReadAt(%d) returned %d bytes (err %v) that differ from the model's %d", step, off, n, err, len(want))
						}
					}
				}
				if err := f.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				got, err := vfs.ReadFile(r.fs, "f")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, model) {
					t.Fatalf("server file (%d bytes) differs from the model (%d bytes)", len(got), len(model))
				}
			})
		})
	}
}

// TestWriteBehindReadBackBarrier: a read through the handle sends the run
// first, so it sees bytes that were only buffered.
func TestWriteBehindReadBackBarrier(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: 5 * time.Millisecond, Bandwidth: 1 << 20})
	r.v.Run(func() {
		r.start(t)
		f, err := r.client.Open("rw", os.O_RDWR|os.O_CREATE)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		want := bytes.Repeat([]byte("durable?"), 4<<10)
		if _, err := f.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		// Overwrite a hole in the middle, still in the run, then read
		// everything back through the same handle.
		copy(want[100:], "YES-FLUSHED")
		if _, err := f.WriteAt([]byte("YES-FLUSHED"), 100); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("read-back through the writing handle saw stale bytes")
		}
	})
}

// TestLoneSmallWriteReachesServerAtClose: a run that never fills still
// leaves at Close, the durability point.
func TestLoneSmallWriteReachesServerAtClose(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	r.v.Run(func() {
		r.start(t)
		f, err := r.client.Open("small", os.O_WRONLY|os.O_CREATE)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("one short record")); err != nil {
			t.Fatal(err)
		}
		if size, _, _ := r.client.Stat("small"); size != 0 {
			t.Errorf("server already holds %d bytes: the lone write was not buffered", size)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		size, exists, err := r.client.Stat("small")
		if err != nil || !exists || size != 16 {
			t.Errorf("stat after close = %d, %v, %v; want 16 bytes", size, exists, err)
		}
		if got, _ := vfs.ReadFile(r.fs, "small"); string(got) != "one short record" {
			t.Errorf("server file = %q", got)
		}
	})
}

// TestServerWriteErrorIsNeverLost: the server refuses every write (the file
// is open read-only there). Buffered writes succeed; the refusal must then
// surface at whichever comes first — the write that fills the run, a read
// through the handle, or Close — and never be swallowed.
func TestServerWriteErrorIsNeverLost(t *testing.T) {
	record := make([]byte, 4<<10)
	open := func(t *testing.T, r *rig) *RemoteFile {
		r.start(t)
		f, err := r.client.Open("ro", os.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	newRORig := func() *rig {
		r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
		vfs.WriteFile(r.fs, "ro", []byte("read-only content"))
		return r
	}
	t.Run("flushing-write", func(t *testing.T) {
		r := newRORig()
		r.v.Run(func() {
			f := open(t, r)
			for i := 0; i < streamChunk/len(record)-1; i++ {
				if _, err := f.Write(record); err != nil {
					t.Fatalf("write %d, buffered, reported %v", i, err)
				}
			}
			if _, err := f.Write(record); err == nil {
				t.Error("the write that filled and sent the run reported success")
			}
			if err := f.Close(); err == nil {
				t.Error("Close reported success with the run still undelivered")
			}
		})
	})
	t.Run("barrier", func(t *testing.T) {
		r := newRORig()
		r.v.Run(func() {
			f := open(t, r)
			if _, err := f.Write(record); err != nil {
				t.Fatalf("buffered write reported %v", err)
			}
			if _, err := f.ReadAt(make([]byte, 4), 0); err == nil {
				t.Error("a read through the handle skipped the undeliverable run")
			}
			f.Close()
		})
	})
	t.Run("close", func(t *testing.T) {
		r := newRORig()
		r.v.Run(func() {
			f := open(t, r)
			if _, err := f.Write(record); err != nil {
				t.Fatalf("buffered write reported %v", err)
			}
			if err := f.Close(); err == nil {
				t.Error("Close reported success although the server refused the run")
			}
		})
	})
}

// TestWriteBehindFlushFailureSurfacesOnClose is the transport twin of the
// above: the route dies with bytes still in the run.
func TestWriteBehindFlushFailureSurfacesOnClose(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: 5 * time.Millisecond, Bandwidth: 1 << 20})
	r.v.Run(func() {
		r.start(t)
		f, err := r.client.Open("doomed", os.O_WRONLY|os.O_CREATE)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte("x"), 4<<10), 0); err != nil {
			t.Fatal(err)
		}
		// The buffered bytes can never reach the server, so Close — the
		// durability point — must fail rather than report a lost write.
		r.net.Partition("app", "srv")
		r.net.InjectReset("app", "srv")
		if err := f.Close(); err == nil {
			t.Fatal("Close succeeded with undeliverable bytes in the run")
		}
	})
}

// TestRunReplayedAfterResetMidFlush resets the connection while the second
// run's frame is crossing it. With a retry policy the writer never notices
// and the run is replayed whole; with the zero policy exactly one write
// fails, the server holds precisely the runs it acknowledged — no part of
// the torn frame — and the handle's next send replays the kept run.
func TestRunReplayedAfterResetMidFlush(t *testing.T) {
	want := make([]byte, 4*streamChunk)
	rand.New(rand.NewSource(9)).Read(want)
	const record = 4 << 10
	stream := func(t *testing.T, r *rig, onErr func(off int, err error)) {
		r.start(t)
		f, err := r.client.Open("out", os.O_WRONLY|os.O_CREATE)
		if err != nil {
			t.Fatal(err)
		}
		// The 100 000th byte from here rides in the second 64 KiB frame.
		r.net.FailAfter("app", "srv", 100_000)
		for off := 0; off < len(want); off += record {
			if _, err := f.Write(want[off : off+record]); err != nil {
				onErr(off, err)
				// Re-issue the record, as a careful application would.
				if _, err := f.Write(want[off : off+record]); err != nil {
					t.Fatalf("retried write at %d: %v", off, err)
				}
			}
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		got, err := vfs.ReadFile(r.fs, "out")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file differs after the replay (%d vs %d bytes)", len(got), len(want))
		}
	}
	t.Run("retry-policy", func(t *testing.T) {
		r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
		r.v.Run(func() {
			r.client.SetRetry(testPolicy(r))
			stream(t, r, func(off int, err error) {
				t.Errorf("write at %d failed under a retry policy: %v", off, err)
			})
		})
	})
	t.Run("zero-policy", func(t *testing.T) {
		r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
		r.v.Run(func() {
			failures := 0
			stream(t, r, func(off int, err error) {
				failures++
				if end := off + record; end != 2*streamChunk {
					t.Errorf("write ending at %d failed; the reset hit the run ending at %d", end, 2*streamChunk)
				}
				got, _ := vfs.ReadFile(r.fs, "out")
				if !bytes.Equal(got, want[:streamChunk]) {
					t.Errorf("server holds %d bytes after the torn frame, want exactly the acknowledged %d", len(got), streamChunk)
				}
			})
			if failures != 1 {
				t.Errorf("%d writes failed, want exactly 1", failures)
			}
		})
	})
}
