package gridbuffer

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/vfs"
	"griddles/internal/wire"
)

// TestWritePutFrameMatchesEncoder pins wire-byte identity of the writer's
// vectored raw PUT against the historical Encoder-assembled frame, and that
// frames queued behind one another reach the connection as whole frames in
// one write.
func TestWritePutFrameMatchesEncoder(t *testing.T) {
	blocks := []wblock{
		{idx: 0, data: []byte("hello world block")},
		{idx: 3, data: bytes.Repeat([]byte{7}, 4096)},
		{idx: 4, data: []byte{}},
	}
	var want bytes.Buffer
	for _, blk := range blocks {
		e := wire.NewEncoder()
		e.String("k").I64(blk.idx).Bytes32(blk.data)
		if err := wire.WriteFrame(&want, msgPut, e.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	conn := &countingConn{}
	s, err := rpc.OpenBuffered("gridbuffer", rpc.Buffers{Size: connBufSize}, sinkDialer{conn}, "sink", simclock.Real{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := &Writer{endpoint: endpoint{key: "k", s: s, cs: &rpc.StreamCodec{}}}
	for _, blk := range blocks {
		if err := w.putLocked(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.flushLocked(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(conn.sent.Bytes(), want.Bytes()) {
		t.Fatal("vectored PUT frames differ from the encoder-assembled frames")
	}
	if conn.writes != 1 {
		t.Fatalf("3 queued frames took %d conn writes, want 1", conn.writes)
	}
}

// sinkDialer hands out one connection, whatever the address.
type sinkDialer struct{ conn net.Conn }

func (d sinkDialer) Dial(string) (net.Conn, error) { return d.conn, nil }

// TestCodecStreamRoundTrip: a writer and reader that both negotiate lzb
// move byte-identical content, with a shallow and a deep window.
func TestCodecStreamRoundTrip(t *testing.T) {
	for _, window := range []int{2, 8} {
		b := newBrig(simnet.LinkSpec{Latency: 2 * time.Millisecond})
		want := bytes.Repeat([]byte("sensor,42,1013.25,ok\n"), 5000)
		b.v.Run(func() {
			b.start(t)
			var got []byte
			done := simclock.NewWaitGroup(b.v)
			done.Add(1)
			b.v.Go("reader", func() {
				defer done.Done()
				r, err := NewReader(b.net.Host("r"), b.addr, b.v, "k", Options{}, ReaderOptions{Codec: wire.CodecLZB})
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				defer r.Close()
				data, err := io.ReadAll(r)
				if err != nil {
					t.Errorf("readall: %v", err)
					return
				}
				got = data
			})
			w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{},
				WriterOptions{Codec: wire.CodecLZB, Window: window})
			if err != nil {
				t.Fatalf("writer: %v", err)
			}
			if _, err := w.Write(want); err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			done.Wait()
			if !bytes.Equal(got, want) {
				t.Fatalf("window=%d: reader got %d bytes, want %d (content mismatch)", window, len(got), len(want))
			}
		})
	}
}

// TestCodecMixedRawReader: a raw reader and an lzb writer share one buffer —
// the server stores decoded blocks, so per-link codecs never leak across
// connections.
func TestCodecMixedRawReader(t *testing.T) {
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	want := bytes.Repeat([]byte("0123456789abcdef"), 8000)
	b.v.Run(func() {
		b.start(t)
		var got []byte
		done := simclock.NewWaitGroup(b.v)
		done.Add(1)
		b.v.Go("reader", func() {
			defer done.Done()
			r, err := NewReader(b.net.Host("r"), b.addr, b.v, "k", Options{}, ReaderOptions{})
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			defer r.Close()
			data, err := io.ReadAll(r)
			if err != nil {
				t.Errorf("readall: %v", err)
				return
			}
			got = data
		})
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{},
			WriterOptions{Codec: wire.CodecLZB, Window: 4})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		if _, err := w.Write(want); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		done.Wait()
		if !bytes.Equal(got, want) {
			t.Fatal("raw reader saw different bytes than the lzb writer sent")
		}
	})
}

// GetKeep is Get without the consume: the block stays resident until the
// reader acknowledges it via AckBelow, and the copy is the caller's. The
// service frames a pinned block instead (Buffer.pin); serveOldAttach, which
// assembles each response in a buffer of its own, serves windowed GETs
// through this copy.
func (b *Buffer) GetKeep(id int, idx int64) ([]byte, bool, error) {
	return b.copyOut(id, idx, false)
}

// serveOldAttach is a frame-level stand-in for a pre-codec server build: it
// decodes the attach request with the historical field list (silently
// ignoring any trailing bytes, as the old decoder did) and answers the
// historical two-field response, then handles puts, gets and close-write
// raw. A codec-requesting client must detect the missing response field and
// keep the stream raw.
func serveOldAttach(clock simclock.Clock, reg *Registry, l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		clock.Go("old-gb-conn", func() {
			defer conn.Close()
			br := bufio.NewReader(conn)
			bw := bufio.NewWriter(conn)
			for {
				typ, payload, err := wire.ReadFrame(br)
				if err != nil {
					return
				}
				d := wire.NewDecoder(payload)
				switch typ {
				case msgAttach:
					key := d.String()
					role := d.U8()
					opts := decodeOptions(d)
					prev := int(d.I64())
					// Old decoders stopped here; trailing codec bytes vanish.
					b, err := reg.GetOrCreate(key, opts)
					if err != nil {
						oldWriteError(bw, err)
						break
					}
					readerID := -1
					if role == roleReader {
						readerID = b.Reattach(prev)
					}
					e := wire.NewEncoder()
					e.I64(int64(readerID)).U32(uint32(b.BlockSize()))
					wire.WriteFrame(bw, msgAttachResp, e.Bytes())
				case msgPut:
					key := d.String()
					idx := d.I64()
					data := d.Bytes32()
					b, _ := reg.Lookup(key)
					if err := b.Put(idx, data); err != nil {
						oldWriteError(bw, err)
					} else {
						wire.WriteFrame(bw, msgPutResp, nil)
					}
				case msgGetWin:
					req, derr := decodeGetWin(d)
					if derr != nil {
						oldWriteError(bw, derr)
						break
					}
					b, _ := reg.Lookup(req.key)
					if req.ackBelow > 0 {
						b.AckBelow(req.readerID, req.ackBelow)
					}
					for i := 0; i < req.count; i++ {
						idx := req.first + int64(i)
						data, eof, gerr := b.GetKeep(req.readerID, idx)
						if gerr != nil {
							oldWriteError(bw, gerr)
							break
						}
						e := wire.NewEncoder()
						e.I64(idx).Bool(eof).Bytes32(data)
						wire.WriteFrame(bw, msgGetWinResp, e.Bytes())
						bw.Flush()
					}
				case msgCloseWrite:
					key := d.String()
					total := d.I64()
					b, _ := reg.Lookup(key)
					if err := b.CloseWrite(total); err != nil {
						oldWriteError(bw, err)
					} else {
						wire.WriteFrame(bw, msgCloseWriteResp, nil)
					}
				case msgDetach:
					wire.WriteFrame(bw, msgDetachResp, nil)
				default:
					oldWriteError(bw, errUnknownOldType)
				}
				if bw.Flush() != nil {
					return
				}
			}
		})
	}
}

var errUnknownOldType = io.ErrUnexpectedEOF

func oldWriteError(w io.Writer, err error) {
	wire.WriteFrame(w, msgError, wire.NewEncoder().String(err.Error()).Bytes())
}

// TestCodecOldServerStaysRaw: a codec-requesting writer and reader against
// a pre-codec server build complete the stream raw and lossless.
func TestCodecOldServerStaysRaw(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("w", "buf", simnet.LinkSpec{Latency: time.Millisecond})
	n.SetLinkBoth("r", "buf", simnet.LinkSpec{Latency: time.Millisecond})
	reg := NewRegistry(v, vfs.NewMemFS())
	want := bytes.Repeat([]byte("legacy-peer-data"), 6000)
	v.Run(func() {
		l, err := n.Host("buf").Listen("buf:7999")
		if err != nil {
			t.Fatal(err)
		}
		v.Go("old-gb-serve", func() { serveOldAttach(v, reg, l) })

		var got []byte
		done := simclock.NewWaitGroup(v)
		done.Add(1)
		v.Go("reader", func() {
			defer done.Done()
			r, err := NewReader(n.Host("r"), "buf:7999", v, "k", Options{}, ReaderOptions{Codec: wire.CodecLZB})
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			defer r.Close()
			data, err := io.ReadAll(r)
			if err != nil {
				t.Errorf("readall: %v", err)
				return
			}
			got = data
		})
		w, err := NewWriter(n.Host("w"), "buf:7999", v, "k", Options{}, WriterOptions{Codec: wire.CodecLZB})
		if err != nil {
			t.Fatalf("writer attach against old server: %v", err)
		}
		if w.cs.Block != nil {
			t.Fatal("writer negotiated a codec against a pre-codec server")
		}
		if _, err := w.Write(want); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		done.Wait()
		if !bytes.Equal(got, want) {
			t.Fatal("old-server stream corrupted the data")
		}
	})
}
