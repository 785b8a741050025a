package rpc_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"griddles/internal/admit"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/wire"
	"griddles/internal/xdr"
)

// testFrames is a transfer with its own message numbers: the loops take them
// as values and know no service.
var testFrames = rpc.Frames{Verb: "get", Hdr: 4, Data: 5, End: 6}

// framed joins frames into the bytes a peer would have sent.
func framed(frames ...cannedReply) []byte {
	var b bytes.Buffer
	for _, f := range frames {
		wire.WriteFrame(&b, f.typ, f.payload)
	}
	return b.Bytes()
}

// recvFrom runs the receive loop over a canned byte stream.
func recvFrom(in []byte, want int64, c *rpc.StreamCodec) (delivered []byte, n int64, err error) {
	st := rpc.Over("svc", io.Discard, bufio.NewReader(bytes.NewReader(in)))
	var sink bytes.Buffer
	n, err = st.Recv(testFrames, want, &sink, c)
	return sink.Bytes(), n, err
}

func lzb(t testing.TB) *rpc.StreamCodec {
	block, err := wire.ForName(wire.CodecLZB)
	if err != nil {
		t.Fatal(err)
	}
	return &rpc.StreamCodec{Block: block}
}

// endsCleanly re-reads a byte stream the plain way: does it hold nothing but
// data frames up to an end frame?
func endsCleanly(in []byte) bool {
	r := bytes.NewReader(in)
	for {
		typ, _, err := wire.ReadFrame(r)
		if err != nil || (typ != testFrames.Data && typ != testFrames.End) {
			return false
		}
		if typ == testFrames.End {
			return true
		}
	}
}

// FuzzRecvStream: whatever frame sequence arrives, the shared receive loop
// never panics, never hands the sink more bytes than the header promised,
// and never reports success without having seen the end frame of a stream of
// exactly the promised length.
func FuzzRecvStream(f *testing.F) {
	data, end := cannedReply{testFrames.Data, []byte("0123456789")}, cannedReply{typ: testFrames.End}
	for _, seed := range []struct {
		want int64
		lzb  bool
		in   []byte
	}{
		{20, false, framed(data, data, end)},                   // clean
		{-1, false, framed(data, end)},                         // no promise made
		{30, false, framed(data, end)},                         // short
		{15, false, framed(data, data, end)},                   // overrun
		{20, false, framed(data, cannedError("disk on fire"))}, // error frame mid-stream
		{20, false, framed(data, cannedReply{typ: 77}, end)},   // a frame that does not belong
		{20, false, framed(data, data)[:20]},                   // cut mid-frame
		// A stored lzb block shorter than it claims.
		{10, true, framed(cannedReply{testFrames.Data, wire.NewEncoder().U8(0).U32(10).Bytes()}, end)},
	} {
		f.Add(seed.want, seed.lzb, seed.in)
	}
	f.Fuzz(func(t *testing.T, want int64, compressed bool, in []byte) {
		var c *rpc.StreamCodec
		if compressed {
			c = lzb(t)
		}
		delivered, n, err := recvFrom(in, want, c)
		if n != int64(len(delivered)) {
			t.Fatalf("reported %d bytes, sink holds %d", n, len(delivered))
		}
		if want >= 0 && n > want {
			t.Fatalf("delivered %d bytes of a stream whose header promised %d", n, want)
		}
		if err == nil && (!endsCleanly(in) || (want >= 0 && n != want)) {
			t.Fatalf("success on %d of %d promised bytes, clean end = %v", n, want, endsCleanly(in))
		}
	})
}

func TestRecvRefusesWhatTheHeaderDidNotPromise(t *testing.T) {
	data, end := cannedReply{testFrames.Data, []byte("0123456789")}, cannedReply{typ: testFrames.End}
	for _, tc := range []struct {
		name      string
		want      int64
		in        []byte
		delivered int
		err       string
	}{
		{"overrun stops before the sink", 15, framed(data, data, end), 10, "svc: get stream runs past the 15 bytes its header said"},
		{"short", 30, framed(data, end), 10, "svc: get got 10 bytes, header said 30"},
		{"stray frame", 20, framed(data, cannedReply{typ: 77}, end), 10, "svc: unexpected frame 77 during get"},
		{"error frame", 20, framed(data, cannedError("disk on fire")), 10, "svc: disk on fire"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			delivered, n, err := recvFrom(tc.in, tc.want, nil)
			if err == nil || err.Error() != tc.err || !retry.IsPermanent(err) {
				t.Fatalf("err = %v (permanent %v), want permanent %q", err, retry.IsPermanent(err), tc.err)
			}
			if int(n) != tc.delivered || len(delivered) != tc.delivered {
				t.Fatalf("delivered %d (reported %d), want %d", len(delivered), n, tc.delivered)
			}
		})
	}
	// A cut connection is the transport's failure: retryable, bytes counted.
	_, n, err := recvFrom(framed(data, data)[:20], 20, nil)
	if err == nil || retry.IsPermanent(err) || n != 10 {
		t.Fatalf("cut stream: n = %d, err = %v (permanent %v), want 10 and a retryable error", n, err, retry.IsPermanent(err))
	}
	// A block the codec cannot decode is the sender's fault, not the link's.
	bad := framed(cannedReply{testFrames.Data, []byte{9, 0, 0, 0, 1, 0}}, end)
	if _, _, err := recvFrom(bad, 1, lzb(t)); !errors.Is(err, wire.ErrBadBlock) || !retry.IsPermanent(err) {
		t.Fatalf("malformed block: err = %v, want a permanent wire.ErrBadBlock", err)
	}
}

// brokenSource fails after its first read.
type brokenSource struct{ reads int }

func (b *brokenSource) Read(p []byte) (int, error) {
	b.reads++
	if b.reads > 1 {
		return 0, errors.New("bad sector")
	}
	return copy(p, "0123456789"), nil
}

// TestSendAndFinishAtTheServingEnd: a source that fails mid-transfer is told
// to the peer as an error frame after the data already queued, and Finish
// keeps the connection; a connection that fails ends it.
func TestSendAndFinishAtTheServingEnd(t *testing.T) {
	var out bytes.Buffer
	st := rpc.Over("svc", &out, nil)
	err := st.Send(testFrames, []byte("hdr"), &brokenSource{}, 64, nil)
	if !retry.IsPermanent(err) {
		t.Fatalf("send from a failing source = %v, want a permanent error", err)
	}
	if err := st.Finish(err); err != nil {
		t.Fatalf("finish after a source failure = %v, want the connection kept", err)
	}
	want := framed(cannedReply{testFrames.Hdr, []byte("hdr")}, cannedReply{testFrames.Data, []byte("0123456789")}, cannedError("bad sector"))
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("wrote %x\nwant  %x", out.Bytes(), want)
	}

	st = rpc.Over("svc", failingWriter{}, nil)
	err = st.Send(testFrames, nil, strings.NewReader("data"), 64, nil)
	if err == nil || retry.IsPermanent(err) || st.Finish(err) != err {
		t.Fatalf("send into a dead connection: %v, want it returned to end the connection", err)
	}
	if st.Finish(nil) != nil {
		t.Fatal("finish of a clean transfer is not nil")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestStreamCodecColumnarRoundTrip: with a schema the columnar transform runs
// in front of the block codec both ways, and a nil state is raw.
func TestStreamCodecColumnarRoundTrip(t *testing.T) {
	schema := xdr.Schema{Fields: []xdr.Field{{Name: "t", Kind: xdr.KindInt64}, {Name: "v", Kind: xdr.KindUint32}}}
	var records []byte
	for i := 0; i < 200; i++ {
		records = binary.LittleEndian.AppendUint64(records, uint64(1_700_000_000+i*60))
		records = binary.LittleEndian.AppendUint32(records, uint32(i%7))
	}
	enc, dec := lzb(t), lzb(t)
	enc.Schema, enc.Order = &schema, binary.LittleEndian
	dec.Schema, dec.Order = &schema, binary.LittleEndian
	onWire, err := enc.Encode(records)
	if err != nil || len(onWire) >= len(records)/2 {
		t.Fatalf("columnar encode = %d bytes of %d, %v", len(onWire), len(records), err)
	}
	back, err := dec.Decode(onWire)
	if err != nil || !bytes.Equal(back, records) {
		t.Fatalf("columnar decode: %d bytes, %v", len(back), err)
	}
	if _, err := dec.Decode(onWire[:len(onWire)-3]); err == nil {
		t.Fatal("a truncated block decoded")
	}
	var raw *rpc.StreamCodec
	if out, err := raw.Encode(records); err != nil || &out[0] != &records[0] {
		t.Fatal("a nil codec state must pass payloads through untouched")
	}
}

// TestOneShotCall: Open + Call against a scripted peer — an answer, a type
// the caller did not ask for, a shed, and a dial that fails.
func TestOneShotCall(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	replies := []cannedReply{{typ: 2, payload: []byte("pong")}, {typ: 3}, cannedShed()}
	go func() {
		for _, r := range replies {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wire.ReadFrame(conn)
			wire.WriteFrame(conn, r.typ, r.payload)
			conn.Close()
		}
	}()
	call := func(want ...uint8) (uint8, []byte, error) {
		s, err := rpc.Open("svc", tcpDialer{}, l.Addr().String(), simclock.Real{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.Call(1, []byte("ping"), want...)
	}
	if typ, resp, err := call(2, 9); err != nil || typ != 2 || string(resp) != "pong" {
		t.Fatalf("call = %d %q, %v", typ, resp, err)
	}
	if _, _, err := call(2); err == nil || err.Error() != "svc: unexpected reply 3" || !retry.IsPermanent(err) {
		t.Fatalf("unasked-for reply type: err = %v", err)
	}
	var shed *admit.ShedError
	if _, _, err := call(); !errors.As(err, &shed) {
		t.Fatalf("shed reply: err = %v", err)
	}
	l.Close()
	if _, err := rpc.Open("svc", tcpDialer{}, l.Addr().String(), simclock.Real{}, 0); err == nil || !strings.HasPrefix(err.Error(), "svc: dial ") {
		t.Fatalf("dial of a closed listener: err = %v", err)
	}
}
