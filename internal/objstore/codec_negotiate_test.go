package objstore

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"testing"

	"griddles/internal/obs"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// TestCodecGetPutRoundTrip: an lzb-negotiated client round-trips an object
// byte-identically through compressed put and get streams.
func TestCodecGetPutRoundTrip(t *testing.T) {
	r := newRig()
	o := obs.New(r.v)
	r.client.SetObserver(o)
	r.client.SetCodec(wire.CodecLZB)
	rawBytes, wireBytes := o.Counter("wire.codec.raw.bytes"), o.Counter("wire.codec.wire.bytes")
	want := bytes.Repeat([]byte("row,17,42.5,ok\n"), 20000)
	r.v.Run(func() {
		r.start(t)
		n, err := r.client.Put("obj", bytes.NewReader(want))
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		if n != int64(len(want)) {
			t.Fatalf("put committed %d bytes, want %d", n, len(want))
		}
		// The codec counters are the stream's, whichever service it serves.
		if raw, onWire := rawBytes.Value(), wireBytes.Value(); raw != int64(len(want)) || onWire <= 0 || onWire >= raw/2 {
			t.Fatalf("after the put: wire.codec.raw.bytes = %d, wire.codec.wire.bytes = %d; want %d and a fraction of it", raw, onWire, len(want))
		}
		stored, ok := r.store.Get("obj")
		if !ok || !bytes.Equal(stored, want) {
			t.Fatal("server stored different bytes than the client sent")
		}
		var got bytes.Buffer
		gn, size, err := r.client.Get("obj", 0, -1, &got)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if gn != int64(len(want)) || size != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("get returned %d/%d bytes, content match=%v", gn, size, bytes.Equal(got.Bytes(), want))
		}
		if raw := rawBytes.Value(); raw != 2*int64(len(want)) {
			t.Fatalf("after the get: wire.codec.raw.bytes = %d, want %d", raw, 2*len(want))
		}
		// Ranged reads slice the raw object regardless of the wire codec.
		var mid bytes.Buffer
		if _, _, err := r.client.Get("obj", 100, 999, &mid); err != nil {
			t.Fatalf("ranged get: %v", err)
		}
		if !bytes.Equal(mid.Bytes(), want[100:1099]) {
			t.Fatal("ranged get content mismatch under codec")
		}
	})
}

// serveOldObjstore is a frame-level stand-in for a pre-negotiation server:
// get and put raw, msgError (connection kept) for unknown types.
func serveOldObjstore(clock simclock.Clock, store *Store, l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		clock.Go("old-objstore-conn", func() {
			defer conn.Close()
			br := bufio.NewReader(conn)
			bw := bufio.NewWriter(conn)
			for {
				typ, payload, err := wire.ReadFrame(br)
				if err != nil {
					return
				}
				switch typ {
				case msgGet:
					req, derr := decodeGetReq(payload)
					if derr != nil {
						rpc.WriteError(bw, derr)
						break
					}
					data, ok := store.Get(req.Key)
					if !ok {
						rpc.WriteError(bw, errors.New("no such object"))
						break
					}
					wire.WriteFrame(bw, msgGetHdr, getHdr{Total: int64(len(data)), Size: int64(len(data))}.encode())
					for off := 0; off < len(data); off += streamChunk {
						end := min(off+streamChunk, len(data))
						wire.WriteFrame(bw, msgGetData, data[off:end])
					}
					wire.WriteFrame(bw, msgGetEnd, nil)
				case msgPutBegin:
					req, derr := decodePutBegin(payload)
					if derr != nil {
						rpc.WriteError(bw, derr)
						break
					}
					var body []byte
					for {
						typ, p, err := wire.ReadFrame(br)
						if err != nil {
							return
						}
						if typ == msgPutEnd {
							break
						}
						body = append(body, p...)
					}
					store.Put(req.Key, body)
					wire.WriteFrame(bw, msgPutResp, putResp{Size: int64(len(body))}.encode())
				default:
					rpc.WriteError(bw, errors.New("objstore: unknown message type"))
				}
				if bw.Flush() != nil {
					return
				}
			}
		})
	}
}

// TestCodecOldServerFallsBack: a codec-requesting client against a
// pre-negotiation server completes both directions raw and lossless.
func TestCodecOldServerFallsBack(t *testing.T) {
	r := newRig()
	r.client.SetCodec(wire.CodecLZB)
	want := bytes.Repeat([]byte("legacy"), 30000)
	r.v.Run(func() {
		l, err := r.net.Host("srv").Listen("srv:7100")
		if err != nil {
			t.Fatal(err)
		}
		r.v.Go("old-objstore-serve", func() { serveOldObjstore(r.v, r.store, l) })

		if _, err := r.client.Put("obj", bytes.NewReader(want)); err != nil {
			t.Fatalf("put against old server: %v", err)
		}
		stored, _ := r.store.Get("obj")
		if !bytes.Equal(stored, want) {
			t.Fatal("old server stored different bytes (compressed frames leaked through)")
		}
		var got bytes.Buffer
		if _, _, err := r.client.Get("obj", 0, -1, &got); err != nil {
			t.Fatalf("get against old server: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatal("old-server get content mismatch")
		}
	})
}
