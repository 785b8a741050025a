package gridbuffer

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/wire"
)

// countingConn is a net.Conn that counts the Write calls made on it. With
// an inner connection it passes traffic through; without one it is a sink
// that keeps the bytes.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	sent   bytes.Buffer
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	if c.Conn == nil {
		c.sent.Write(p)
	}
	c.mu.Unlock()
	if c.Conn == nil {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

func (c *countingConn) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// countingDialer wraps every connection it opens in a countingConn.
type countingDialer struct {
	Dialer
	conns []*countingConn
}

func (d *countingDialer) Dial(addr string) (net.Conn, error) {
	conn, err := d.Dialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &countingConn{Conn: conn}
	d.conns = append(d.conns, c)
	return c, nil
}

// countingListener wraps every connection it accepts in a countingConn, in
// accept order.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &countingConn{Conn: conn}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

// TestCoalescedConnWrites is the syscall bound of the flush-before-block
// rule: 1 MiB in the paper's 4 KiB writes crosses each connection, in each
// direction, in at most 40 socket writes. (Flush-per-frame with 4 KiB
// buffers took two per block: more than 512.) The window is sized so the
// writer never waits on it and the reader starts after the writer is done,
// so neither the ack clock nor the producer's pace — both real-scheduler
// dependent — decides a flush: what is counted is buffer-full flushes,
// answered read-buffers and the Ready-gated GET-WIN loop.
func TestCoalescedConnWrites(t *testing.T) {
	const blocks = 256
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, blocks*DefaultBlockSize)
	rand.New(rand.NewSource(7)).Read(want)
	wd := &countingDialer{Dialer: b.net.Host("w")}
	rd := &countingDialer{Dialer: b.net.Host("r")}
	var cl *countingListener
	o := obs.New(b.v)
	b.reg.SetObserver(o)
	b.v.Run(func() {
		l, err := b.net.Host("buf").Listen(b.addr)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		cl = &countingListener{Listener: l}
		b.v.Go("gb-serve", func() { NewServer(b.reg, b.v).Serve(cl) })

		w, err := NewWriter(wd, b.addr, b.v, "k", Options{}, WriterOptions{Window: blocks})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		for off := 0; off < len(want); off += DefaultBlockSize {
			if _, err := w.Write(want[off : off+DefaultBlockSize]); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		r, err := NewReader(rd, b.addr, b.v, "k", Options{}, ReaderOptions{})
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("stream corrupted: %d bytes, err=%v", len(got), err)
		}
	})
	for name, n := range map[string]int{
		"writer -> service (PUTs)":          wd.conns[0].count(),
		"service -> writer (acks)":          cl.conns[0].count(),
		"reader -> service (GET-WINs)":      rd.conns[0].count(),
		"service -> reader (GET-WIN-RESPs)": cl.conns[1].count(),
	} {
		t.Logf("%s: %d conn writes", name, n)
		if n > 40 {
			t.Errorf("%s: %d conn writes for 1 MiB in 4 KiB blocks, want <= 40", name, n)
		}
	}
	h := o.Snapshot().Histograms[obs.Key("buf.flush.blocks", "side", "server")]
	if h.Count == 0 || h.Sum < 2*blocks {
		t.Errorf("buf.flush.blocks{side=server}: %d flushes carrying %d frames, want every ack and response counted", h.Count, h.Sum)
	}
}

// arrivals reads a stream block by block on its own goroutine and records
// the virtual time each block reached the application.
type arrivals struct {
	at   []time.Duration
	done *simclock.WaitGroup
}

func readArrivals(t *testing.T, b *brig, ropts ReaderOptions) *arrivals {
	a := &arrivals{done: simclock.NewWaitGroup(b.v)}
	a.done.Add(1)
	b.v.Go("reader", func() {
		defer a.done.Done()
		r, err := NewReader(b.net.Host("r"), b.addr, b.v, "k", Options{}, ropts)
		if err != nil {
			t.Errorf("reader: %v", err)
			return
		}
		defer r.Close()
		buf := make([]byte, DefaultBlockSize)
		for {
			n, err := io.ReadFull(r, buf)
			if n > 0 {
				a.at = append(a.at, b.v.Elapsed())
			}
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Errorf("read: %v", err)
				}
				return
			}
		}
	})
	return a
}

// TestLoneBlockIsNotDelayed: coalescing adds no latency for a slow producer.
// A writer with nothing unacknowledged that writes one block and goes idle
// has that block at a waiting reader within one link round trip — not at its
// next Write, not at Close — and the same holds for the short tail block
// that Close sends.
func TestLoneBlockIsNotDelayed(t *testing.T) {
	const lat = 50 * time.Millisecond
	const rtt = 2 * lat
	b := newBrig(simnet.LinkSpec{Latency: lat})
	b.v.Run(func() {
		b.start(t)
		a := readArrivals(t, b, ReaderOptions{})
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{}, WriterOptions{})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		block := make([]byte, DefaultBlockSize)
		var wrote []time.Duration
		for i := 0; i < 2; i++ {
			b.v.Sleep(10 * time.Second)
			wrote = append(wrote, b.v.Elapsed())
			if _, err := w.Write(block); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		b.v.Sleep(10 * time.Second)
		if _, err := w.Write(block[:100]); err != nil { // a tail: leaves at Close
			t.Fatal(err)
		}
		b.v.Sleep(10 * time.Second)
		closed := b.v.Elapsed()
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		a.done.Wait()
		if len(a.at) != 3 {
			t.Fatalf("reader saw %d blocks, want 3", len(a.at))
		}
		for i, at := range wrote {
			if d := a.at[i] - at; d > rtt {
				t.Errorf("block %d written at %v reached the reader %v later, want within one RTT (%v)", i, at, d, rtt)
			}
		}
		if d := a.at[2] - closed; d > rtt {
			t.Errorf("tail block reached the reader %v after Close, want within one RTT (%v)", d, rtt)
		}
	})
}

// TestHeldBlocksLeaveOnAck: blocks queued behind an in-flight block are sent
// by the ack loop when that block's acknowledgement arrives, while the
// application goroutine is idle — one round trip after the burst, not at the
// application's next call ten seconds later.
func TestHeldBlocksLeaveOnAck(t *testing.T) {
	const lat = 50 * time.Millisecond
	b := newBrig(simnet.LinkSpec{Latency: lat})
	b.v.Run(func() {
		b.start(t)
		a := readArrivals(t, b, ReaderOptions{})
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{}, WriterOptions{})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		b.v.Sleep(time.Second)
		burst := b.v.Elapsed()
		if _, err := w.Write(make([]byte, 3*DefaultBlockSize)); err != nil {
			t.Fatal(err)
		}
		b.v.Sleep(10 * time.Second) // the application is idle
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		a.done.Wait()
		if len(a.at) != 3 {
			t.Fatalf("reader saw %d blocks, want 3", len(a.at))
		}
		// Block 0 leaves at once (one way: lat). Blocks 1 and 2 wait for its
		// ack (2 lat) and then travel (lat).
		if d := a.at[0] - burst; d > 2*lat {
			t.Errorf("first block of the burst took %v, want one link crossing", d)
		}
		for i := 1; i < 3; i++ {
			d := a.at[i] - burst
			if d <= 2*lat {
				t.Errorf("block %d arrived %v after the burst: it was not held behind the in-flight block", i, d)
			}
			if d > 4*lat {
				t.Errorf("block %d arrived %v after the burst: the ack did not release it", i, d)
			}
		}
	})
}

// oldWriteStream is a frame-level stand-in for a pre-coalescing writer:
// window 2, one flush per PUT frame, as DefaultWriterWindow = 2 builds did.
func oldWriteStream(conn net.Conn, key string, data []byte) error {
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	call := func(typ uint8, payload []byte) error {
		if err := wire.WriteFrame(bw, typ, payload); err != nil {
			return err
		}
		return bw.Flush()
	}
	expect := func(want uint8) error {
		typ, payload, err := wire.ReadFrame(br)
		if err != nil {
			return err
		}
		if typ != want {
			return fmt.Errorf("frame %d (%q), want %d", typ, payload, want)
		}
		return nil
	}
	e := wire.NewEncoder().String(key).U8(roleWriter)
	encodeOptions(e, Options{})
	if err := call(msgAttach, e.I64(-1).Bytes()); err != nil {
		return err
	}
	if err := expect(msgAttachResp); err != nil {
		return err
	}
	unacked := 0
	for idx, off := int64(0), 0; off < len(data); idx, off = idx+1, off+DefaultBlockSize {
		if unacked == 2 {
			if err := expect(msgPutResp); err != nil {
				return err
			}
			unacked--
		}
		end := min(off+DefaultBlockSize, len(data))
		if err := call(msgPut, wire.NewEncoder().String(key).I64(idx).Bytes32(data[off:end]).Bytes()); err != nil {
			return err
		}
		unacked++
	}
	for ; unacked > 0; unacked-- {
		if err := expect(msgPutResp); err != nil {
			return err
		}
	}
	if err := call(msgCloseWrite, wire.NewEncoder().String(key).I64(int64(len(data))).Bytes()); err != nil {
		return err
	}
	return expect(msgCloseWriteResp)
}

// oldReadStream is the matching pre-coalescing reader: depth 2, one
// single-block GET-WIN per block, flushed per request.
func oldReadStream(conn net.Conn, key string) ([]byte, error) {
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	e := wire.NewEncoder().String(key).U8(roleReader)
	encodeOptions(e, Options{})
	if err := wire.WriteFrame(bw, msgAttach, e.I64(-1).Bytes()); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	_, resp, err := wire.ReadFrame(br)
	if err != nil {
		return nil, err
	}
	id := int(wire.NewDecoder(resp).I64())
	request := func(idx, ack int64) error {
		e := wire.NewEncoder()
		encodeGetWin(e, getWinReq{key: key, readerID: id, first: idx, count: 1, ackBelow: ack})
		if err := wire.WriteFrame(bw, msgGetWin, e.Bytes()); err != nil {
			return err
		}
		return bw.Flush()
	}
	var out []byte
	if err := request(0, 0); err != nil {
		return nil, err
	}
	for next := int64(0); ; next++ {
		if err := request(next+1, next); err != nil {
			return nil, err
		}
		typ, payload, err := wire.ReadFrame(br)
		if err != nil {
			return nil, err
		}
		if typ != msgGetWinResp {
			return nil, fmt.Errorf("frame %d (%q), want GET-WIN-RESP", typ, payload)
		}
		d := wire.NewDecoder(payload)
		idx, eof, data := d.I64(), d.Bool(), d.Bytes32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if idx != next {
			return nil, fmt.Errorf("response for block %d, want %d", idx, next)
		}
		if eof {
			return out, nil
		}
		out = append(out, data...)
	}
}

// TestOldClientsAgainstNewServer: a depth-2, flush-per-block writer and
// reader — the protocol as builds before coalescing spoke it — move a
// byte-identical stream through the current server. (The other direction,
// current clients against an old server, is TestCodecOldServerStaysRaw.)
func TestOldClientsAgainstNewServer(t *testing.T) {
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, 100_000)
	rand.New(rand.NewSource(9)).Read(want)
	b.v.Run(func() {
		b.start(t)
		var got []byte
		done := simclock.NewWaitGroup(b.v)
		done.Add(1)
		b.v.Go("old-reader", func() {
			defer done.Done()
			conn, err := b.net.Host("r").Dial(b.addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			if got, err = oldReadStream(conn, "k"); err != nil {
				t.Errorf("old reader: %v", err)
			}
		})
		conn, err := b.net.Host("w").Dial(b.addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		if err := oldWriteStream(conn, "k", want); err != nil {
			t.Fatalf("old writer: %v", err)
		}
		done.Wait()
		if !bytes.Equal(got, want) {
			t.Fatalf("old clients through the new server: got %d bytes, want %d", len(got), len(want))
		}
	})
}

// TestLateDetachMissesSuccessorBuffer: a reader's parting Detach is
// fire-and-forget, so the service can process it after the key has been
// dropped and re-created for the next stream. It must land on the buffer the
// connection attached to, not on the successor — where, both readers being
// reader 0, it would mark every resident block consumed and strand the new
// stream ("block 0 no longer available").
func TestLateDetachMissesSuccessorBuffer(t *testing.T) {
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, 40_000)
	rand.New(rand.NewSource(11)).Read(want)
	b.v.Run(func() {
		b.start(t)
		// The old stream: one reader attaches, and its connection stays open.
		old := newEndpoint(b.net.Host("r"), b.addr, b.v, "k", Options{}, "", false, retry.Policy{}, "reader")
		oldID, _, err := old.attach(roleReader, -1)
		if err != nil {
			t.Fatalf("old attach: %v", err)
		}
		defer old.s.Close()
		b.reg.Drop("k")

		// The successor stream under the same key, fully written and resident.
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{}, WriterOptions{})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		if _, err := w.Write(want); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(b.net.Host("r"), b.addr, b.v, "k", Options{}, ReaderOptions{})
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		defer r.Close()
		if r.readerID != oldID {
			t.Fatalf("successor reader is %d, old reader %d: the test needs them equal", r.readerID, oldID)
		}

		// Now the old connection's Detach arrives.
		e := wire.NewEncoder().String("k").I64(int64(oldID))
		if _, _, err := old.s.Call(msgDetach, e.Bytes(), msgDetachResp); err != nil {
			t.Fatalf("detach response: %v", err)
		}

		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("successor stream after the late detach: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("successor stream delivered %d bytes, want %d", len(got), len(want))
		}
	})
}

// TestDropRecyclesIntoSharedPool: buffers of one block size share the
// registry's pool, and dropping a buffer hands its resident payloads to it.
func TestDropRecyclesIntoSharedPool(t *testing.T) {
	reg := NewRegistry(simclock.Real{}, nil)
	a := getOrCreate(t, reg, "a", Options{})
	c := getOrCreate(t, reg, "c", Options{})
	other := getOrCreate(t, reg, "other", Options{BlockSize: 512})
	if a.pool != c.pool {
		t.Error("two 4 KiB buffers of one registry do not share a block pool")
	}
	if a.pool == other.pool {
		t.Error("buffers of different block sizes share a block pool")
	}
	for i := int64(0); i < 8; i++ {
		if err := a.Put(i, []byte(strings.Repeat("x", 100))); err != nil {
			t.Fatal(err)
		}
	}
	reg.Drop("a")
	for i := range a.shards {
		if n := len(a.shards[i].blocks); n != 0 {
			t.Errorf("shard %d still holds %d blocks after Drop", i, n)
		}
	}
}
