package gridbuffer

import (
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/wire"
)

// TestRegistryDefaultShards: a server-side -shards default applies to
// buffers whose creating options leave Shards zero, and is rounded up to a
// power of two; explicit client options still win.
func TestRegistryDefaultShards(t *testing.T) {
	b := newBrig(simnet.LinkSpec{})
	b.reg.SetDefaultShards(6)
	buf := getOrCreate(t, b.reg, "defaulted", Options{})
	if got := buf.Shards(); got != 8 {
		t.Errorf("defaulted buffer has %d shards, want 8 (6 rounded up)", got)
	}
	if buf.Key() != "defaulted" {
		t.Errorf("Key() = %q", buf.Key())
	}
	explicit := getOrCreate(t, b.reg, "explicit", Options{Shards: 2})
	if got := explicit.Shards(); got != 2 {
		t.Errorf("explicit buffer has %d shards, want 2", got)
	}
	b.reg.SetDefaultShards(0)
	restored := getOrCreate(t, b.reg, "restored", Options{})
	if got := restored.Shards(); got != DefaultShards {
		t.Errorf("after reset: %d shards, want DefaultShards=%d", got, DefaultShards)
	}
}

// TestClientBlockSizeNegotiated: both endpoints report the block size the
// attach handshake negotiated (the first attacher's options win).
func TestClientBlockSizeNegotiated(t *testing.T) {
	b := newBrig(simnet.LinkSpec{})
	b.v.Run(func() {
		b.start(t)
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{BlockSize: 512}, WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if w.BlockSize() != 512 {
			t.Errorf("writer BlockSize() = %d, want 512", w.BlockSize())
		}
		// The reader asks for a different size and must be overruled.
		r, err := NewReader(b.net.Host("r"), b.addr, b.v, "k", Options{BlockSize: 4096}, ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.BlockSize() != 512 {
			t.Errorf("reader BlockSize() = %d, want 512", r.BlockSize())
		}
		w.Write([]byte("x"))
		w.Close()
		io.Copy(io.Discard, r)
		r.Close()
	})
}

// TestRegistryObserverMetrics: wiring an observer exposes the shard gauge
// and the windowed-GET depth histogram for served traffic.
func TestRegistryObserverMetrics(t *testing.T) {
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	o := obs.New(b.v)
	b.reg.SetObserver(o)
	b.v.Run(func() {
		b.start(t)
		done := simclock.NewWaitGroup(b.v)
		done.Add(1)
		b.v.Go("reader", func() {
			defer done.Done()
			r, err := NewReader(b.net.Host("r"), b.addr, b.v, "k", Options{}, ReaderOptions{Depth: 4})
			if err != nil {
				t.Error(err)
				return
			}
			defer r.Close()
			io.Copy(io.Discard, r)
		})
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{}, WriterOptions{Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		w.Write(make([]byte, 64*1024))
		w.Close()
		done.Wait()
	})
	snap := o.Snapshot()
	if got := snap.Gauges[obs.Key("buf.shard.count", "key", "k")]; got != int64(DefaultShards) {
		t.Errorf("buf.shard.count gauge = %d, want %d", got, DefaultShards)
	}
	h, ok := snap.Histograms["buf.window.depth"]
	if !ok || h.Count == 0 {
		t.Errorf("buf.window.depth histogram missing or empty: %+v", h)
	}
}

// rawCall dials the buffer service directly and plays one frame, returning
// the response type. It lets tests reach server error paths that the real
// client never produces.
func rawCall(t *testing.T, b *brig, typ uint8, payload []byte) (uint8, []byte) {
	t.Helper()
	conn, err := b.net.Host("w").Dial(b.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, typ, payload); err != nil {
		t.Fatalf("write frame: %v", err)
	}
	rtyp, rpayload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return rtyp, rpayload
}

// TestServerRejectsMalformedFrames: unknown message types, truncated
// payloads and over-limit window counts all come back as msgError frames
// instead of killing the server.
func TestServerRejectsMalformedFrames(t *testing.T) {
	b := newBrig(simnet.LinkSpec{})
	b.v.Run(func() {
		b.start(t)
		if typ, _ := rawCall(t, b, 99, nil); typ != msgError {
			t.Errorf("unknown type: got response %d, want msgError", typ)
		}
		// A PUT against a key nobody attached.
		e := wire.NewEncoder()
		e.String("ghost").I64(0).Bytes32([]byte("data"))
		if typ, _ := rawCall(t, b, msgPut, e.Bytes()); typ != msgError {
			t.Errorf("put to unknown buffer: got %d, want msgError", typ)
		}
		// A truncated attach payload.
		if typ, _ := rawCall(t, b, msgAttach, []byte{1}); typ != msgError {
			t.Errorf("truncated attach: got %d, want msgError", typ)
		}
		// The retired PUT-BATCH number is an unknown type like any other.
		e = wire.NewEncoder()
		e.String("ghost").U32(1).I64(0).Bytes32([]byte("d"))
		if typ, _ := rawCall(t, b, 13, e.Bytes()); typ != msgError {
			t.Errorf("reserved type 13: got %d, want msgError", typ)
		}
		// So is the retired single-block GET.
		e = wire.NewEncoder()
		e.String("ghost").I64(0).I64(0).I64(0)
		if typ, _ := rawCall(t, b, 5, e.Bytes()); typ != msgError {
			t.Errorf("reserved type 5: got %d, want msgError", typ)
		}
		// Attach options out of range: a shard table or a block past what the
		// service allocates for anyone. Neither creates a buffer.
		for _, o := range []Options{{Shards: 1 << 30}, {BlockSize: 1 << 30}} {
			e = wire.NewEncoder().String("huge").U8(roleWriter)
			encodeOptions(e, o)
			if typ, _ := rawCall(t, b, msgAttach, e.I64(-1).Bytes()); typ != msgError {
				t.Errorf("attach with %+v: got %d, want msgError", o, typ)
			}
		}
		if _, ok := b.reg.Lookup("huge"); ok {
			t.Error("an attach out of range created its buffer")
		}
		// A windowed GET with a hostile count.
		e = wire.NewEncoder()
		e.String("k").I64(0).I64(0).U32(maxWindowBlocks + 1).I64(0)
		if typ, _ := rawCall(t, b, msgGetWin, e.Bytes()); typ != msgError {
			t.Errorf("oversized window: got %d, want msgError", typ)
		}
		// Windowed GET against a key nobody attached.
		e = wire.NewEncoder()
		e.String("ghost").I64(0).I64(0).U32(1).I64(0)
		if typ, _ := rawCall(t, b, msgGetWin, e.Bytes()); typ != msgError {
			t.Errorf("get-win on unknown buffer: got %d, want msgError", typ)
		}
	})
}

// TestServerRegistryAccessorAndDrop: Server.Registry exposes the registry,
// and dropping a cache-backed buffer removes its cache file.
func TestServerRegistryAccessorAndDrop(t *testing.T) {
	b := newBrig(simnet.LinkSpec{})
	srv := NewServer(b.reg, b.v)
	if srv.Registry() != b.reg {
		t.Fatal("Server.Registry() is not the registry it serves")
	}
	b.v.Run(func() {
		b.start(t)
		opts := Options{BlockSize: 8, Cache: true}
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "cached", opts, WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		w.Write(make([]byte, 64))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if b.reg.Len() != 1 {
			t.Fatalf("Len() = %d, want 1", b.reg.Len())
		}
		b.reg.Drop("cached")
		if b.reg.Len() != 0 {
			t.Fatalf("after Drop: Len() = %d, want 0", b.reg.Len())
		}
		if _, ok := b.reg.Lookup("cached"); ok {
			t.Error("dropped buffer still resolvable")
		}
	})
}

// TestDropRemovesKeyMetrics: a buffer's key-labelled metrics leave the
// observer's registry with the buffer, so a long-lived service that sees
// fresh keys does not grow its registry without bound. A live key keeps
// its metrics, and so do the service-wide ones.
func TestDropRemovesKeyMetrics(t *testing.T) {
	o := obs.New(simclock.Real{})
	reg := NewRegistry(simclock.Real{}, nil)
	reg.SetObserver(o)
	getOrCreate(t, reg, "kept", Options{})
	for i := 0; i < 1000; i++ {
		key := "k" + strconv.Itoa(i)
		b := getOrCreate(t, reg, key, Options{})
		if err := b.Put(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		reg.Drop(key)
	}
	snap := o.Snapshot()
	var kept int
	for _, line := range strings.Split(snap.String(), "\n") {
		switch {
		case strings.Contains(line, "key=kept}"):
			kept++
		case strings.Contains(line, "key="):
			t.Fatalf("dropped buffer's metric survives: %s", line)
		}
	}
	if kept != 10 {
		t.Errorf("live buffer reports %d metrics, want 10", kept)
	}
	if _, ok := snap.Histograms["buf.window.depth"]; !ok {
		t.Error("service-wide buf.window.depth removed with the buffers")
	}
}

// TestStopIsFinal: once the server's listener has closed, the registry has
// dropped its buffers and makes no new one, so no handler still running,
// on either transport, can park on a buffer nothing would wake.
func TestStopIsFinal(t *testing.T) {
	reg := NewRegistry(simclock.Real{}, nil)
	getOrCreate(t, reg, "before", Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	NewServer(reg, simclock.Real{}).Serve(l)
	if n := reg.Len(); n != 0 {
		t.Errorf("%d buffers left after the stop", n)
	}
	if _, err := reg.GetOrCreate("after", Options{}); err == nil {
		t.Error("a stopped registry made a buffer")
	}
}
