package rpc_test

// Wire-compatibility pin. Each protocol runs one scripted exchange over
// simnet — the ordinary calls, one request the server sheds and one it
// answers with an error — while both ends of every connection record each
// Write they make. The recording (one line per socket write, so a moved
// flush shows as a moved line break) is compared byte for byte against
// testdata/transcripts/<protocol>.txt, captured before internal/rpc existed.
// Run with -update-transcripts to rewrite the files; a diff in them is a
// wire change and needs saying so.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"griddles/internal/admit"
	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/nws"
	"griddles/internal/objstore"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/soap"
	"griddles/internal/vfs"
	"griddles/internal/wire"
	"griddles/internal/xdr"
)

var updateTranscripts = flag.Bool("update-transcripts", false, "rewrite testdata/transcripts from this run")

// tape records, per connection in dial order, what each end wrote.
type tape struct {
	mu     sync.Mutex
	step   string
	dialed int
	accept int
	conns  map[int]*connTape
	served []net.Conn // every connection a taped listener accepted
}

type connTape struct {
	c2s, s2c []string // "step hex", one entry per Write call
}

func (tp *tape) at(i int) *connTape {
	if tp.conns == nil {
		tp.conns = make(map[int]*connTape)
	}
	if tp.conns[i] == nil {
		tp.conns[i] = &connTape{}
	}
	return tp.conns[i]
}

func (tp *tape) setStep(s string) {
	tp.mu.Lock()
	tp.step = s
	tp.mu.Unlock()
}

func (tp *tape) String() string {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	var b strings.Builder
	for i := 0; i < tp.dialed; i++ {
		ct := tp.at(i)
		fmt.Fprintf(&b, "conn %d\n", i)
		for _, l := range ct.c2s {
			fmt.Fprintf(&b, "  C %s\n", l)
		}
		for _, l := range ct.s2c {
			fmt.Fprintf(&b, "  S %s\n", l)
		}
	}
	return b.String()
}

// tapedConn records every Write into one direction of one connection. A
// client's Write that moved nothing — the server had already gone — put
// nothing on the wire and leaves no line.
type tapedConn struct {
	net.Conn
	tp     *tape
	idx    int
	server bool
}

func (c *tapedConn) Write(p []byte) (int, error) {
	c.tp.mu.Lock()
	line := c.tp.step + " " + hex.EncodeToString(p)
	c.tp.mu.Unlock()
	n, err := c.Conn.Write(p)
	if !c.server && n == 0 && err != nil {
		return n, err
	}
	c.tp.mu.Lock()
	ct := c.tp.at(c.idx)
	if c.server {
		ct.s2c = append(ct.s2c, line)
	} else {
		ct.c2s = append(ct.c2s, line)
	}
	c.tp.mu.Unlock()
	return n, err
}

// tapedDialer numbers connections in dial order. Scripts dial one at a time
// against one listener, so the listener's accept order is the same order.
type tapedDialer struct {
	inner interface {
		Dial(addr string) (net.Conn, error)
	}
	tp *tape
}

func (d tapedDialer) Dial(addr string) (net.Conn, error) {
	conn, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	d.tp.mu.Lock()
	idx := d.tp.dialed
	d.tp.dialed++
	d.tp.mu.Unlock()
	return &tapedConn{Conn: conn, tp: d.tp, idx: idx}, nil
}

type tapedListener struct {
	net.Listener
	tp *tape
}

func (l tapedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.tp.mu.Lock()
	idx := l.tp.accept
	l.tp.accept++
	l.tp.served = append(l.tp.served, conn)
	l.tp.mu.Unlock()
	return &tapedConn{Conn: conn, tp: l.tp, idx: idx, server: true}, nil
}

// kill is a server dying: its listener and every connection it accepted close.
func (tp *tape) kill(l net.Listener) {
	l.Close()
	tp.mu.Lock()
	defer tp.mu.Unlock()
	for _, conn := range tp.served {
		conn.Close()
	}
}

// script is one protocol's environment: a virtual clock, an app and a srv
// host 1 ms apart, and a tape both ends write to.
type script struct {
	t      *testing.T
	v      *simclock.Virtual
	net    *simnet.Network
	tp     *tape
	dialer tapedDialer
}

func (s *script) listen(addr string) net.Listener {
	l, err := s.net.Host("srv").Listen(addr)
	if err != nil {
		s.t.Fatalf("listen %s: %v", addr, err)
	}
	return tapedListener{Listener: l, tp: s.tp}
}

func (s *script) step(name string) { s.tp.setStep(name) }

// wantShed asserts the call surfaced the server's shed with its hint.
func (s *script) wantShed(what string, err error) {
	s.t.Helper()
	var shed *admit.ShedError
	if !errors.As(err, &shed) {
		s.t.Fatalf("%s: err = %v, want *admit.ShedError", what, err)
	}
	if shed.RetryAfter() <= 0 {
		s.t.Fatalf("%s: shed without a retry-after hint: %+v", what, shed)
	}
}

// wantServerError asserts the call surfaced exactly the server's message.
func (s *script) wantServerError(what string, err error, msg string) {
	s.t.Helper()
	if err == nil || err.Error() != msg {
		s.t.Fatalf("%s: err = %v, want %q", what, err, msg)
	}
}

// serveCanned answers every request frame on l with the next canned reply,
// one flush per reply: the replies a real server cannot be made to give (a
// Grid Buffer attach cannot be refused from the client API).
func (s *script) serveCanned(l net.Listener, replies ...cannedReply) {
	s.v.Go("canned-serve", func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			s.v.Go("canned-conn", func() {
				defer conn.Close()
				br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
				for {
					if _, _, err := wire.ReadFrame(br); err != nil || len(replies) == 0 {
						return
					}
					r := replies[0]
					replies = replies[1:]
					if wire.WriteFrame(bw, r.typ, r.payload) != nil || bw.Flush() != nil {
						return
					}
				}
			})
		}
	})
}

type cannedReply struct {
	typ     uint8
	payload []byte
}

func cannedShed() cannedReply {
	return cannedReply{admit.MsgShed, admit.EncodeShed(&admit.ShedError{Reason: "queue-full", After: 100 * time.Millisecond})}
}

func cannedError(msg string) cannedReply {
	return cannedReply{255, wire.NewEncoder().String(msg).Bytes()}
}

// oneSlot returns a controller with a single slot and no queue, so holding
// that slot makes the very next request shed.
func (s *script) oneSlot(service string) *admit.Controller {
	return admit.New(admit.Options{Service: service, MaxConcurrent: 1, ControlShare: -1, Clock: s.v})
}

func (s *script) hold(ctl *admit.Controller) (release func()) {
	rel, err := ctl.Acquire("other", admit.Control)
	if err != nil {
		s.t.Fatalf("pre-acquire: %v", err)
	}
	return rel
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

// resumePolicy lets a script's bulk stream survive one injected reset.
func (s *script) resumePolicy() retry.Policy {
	return retry.Policy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, AttemptTimeout: 500 * time.Millisecond, Clock: s.v}
}

// resetBody sizes the reset-mid-stream steps: a body of resetBody bytes whose
// server-to-client stream is cut at resetAt. simnet discards what is in flight
// at a reset (at most its 32 KiB window), so the client has taken between
// resetAt-32 KiB and resetAt bytes off the wire: exactly one whole 64 KiB data
// frame, and the resumed request asks for offset 65536 on every run.
const (
	resetBody = 100_000
	resetAt   = 99_000
)

func TestWireTranscripts(t *testing.T) {
	protocols := []struct {
		name string
		run  func(s *script)
	}{
		{"gns", scriptGNS},
		{"gridftp", scriptGridFTP},
		{"objstore", scriptObjstore},
		{"nws", scriptNWS},
		{"gridbuffer", scriptGridBuffer},
		{"soap", scriptSOAP},
	}
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			v := simclock.NewVirtualDefault()
			n := simnet.New(v)
			n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: time.Millisecond})
			tp := &tape{}
			s := &script{t: t, v: v, net: n, tp: tp, dialer: tapedDialer{inner: n.Host("app"), tp: tp}}
			v.Run(func() { p.run(s) })
			got := tp.String()
			file := filepath.Join("testdata", "transcripts", p.name+".txt")
			if *updateTranscripts {
				if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s wire transcript changed:\n%s", p.name, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff reports the first line where two transcripts part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d\n  want: %.200s\n  got:  %.200s", i+1, wl, gl)
		}
	}
	return "no difference"
}

func scriptGNS(s *script) {
	store := gns.NewStore(s.v)
	store.Set("jagan", "A", gns.Mapping{Mode: gns.ModeRemote, RemoteHost: "h:1", RemotePath: "/a"})
	srv := gns.NewServer(store, s.v)
	ctl := s.oneSlot("gns")
	srv.SetAdmission(ctl)
	l := s.listen("srv:5000")
	s.v.Go("gns-serve", func() { srv.Serve(l) })

	c := gns.NewClient(s.dialer, "srv:5000", s.v)
	defer c.Close()
	s.step("resolve")
	m, err := c.Resolve("jagan", "A")
	if err != nil || m.RemotePath != "/a" {
		s.t.Fatalf("resolve = %+v, %v", m, err)
	}
	s.step("set")
	if _, err := c.Set("jagan", "B", gns.Mapping{Mode: gns.ModeCopy, RemoteHost: "h:2", RemotePath: "/b"}); err != nil {
		s.t.Fatalf("set: %v", err)
	}
	s.step("shed")
	rel := s.hold(ctl)
	_, err = c.Resolve("jagan", "A")
	rel()
	s.wantShed("resolve under load", err)
	s.step("after-shed")
	if _, err := c.Resolve("jagan", "B"); err != nil {
		s.t.Fatalf("resolve on the connection a shed left: %v", err)
	}
	// A sharded client asks an unsharded server for its map: the one
	// request this server answers with an error frame.
	s.step("error")
	sc := gns.NewShardedClient(s.dialer, []string{"srv:5000"}, s.v)
	defer sc.Close()
	_, err = sc.Resolve("jagan", "A")
	s.wantServerError("shard map from an unsharded server", err, "gns: no seed served a shard map: gns: gns: server is not sharded")
}

func scriptGridFTP(s *script) {
	fs := vfs.NewMemFS()
	vfs.WriteFile(fs, "in.bin", pattern(10000))
	srv := gridftp.NewServer(fs, s.v)
	ctl := s.oneSlot("ftp")
	srv.SetAdmission(ctl)
	l := s.listen("srv:6000")
	s.v.Go("gridftp-serve", func() { srv.Serve(l) })

	c := gridftp.NewClient(s.dialer, "srv:6000", s.v)
	defer c.Close()
	s.step("open")
	f, err := c.Open("in.bin", os.O_RDWR)
	if err != nil {
		s.t.Fatalf("open: %v", err)
	}
	s.step("read")
	buf := make([]byte, 100)
	if n, err := f.ReadAt(buf, 5000); err != nil || n != 100 || !bytes.Equal(buf, pattern(10000)[5000:5100]) {
		s.t.Fatalf("read = %d, %v", n, err)
	}
	s.step("write")
	if n, err := f.WriteAt(pattern(5000), 0); err != nil || n != 5000 {
		s.t.Fatalf("write = %d, %v", n, err)
	}
	if err := f.Close(); err != nil { // sends the dirty run, then msgClose
		s.t.Fatalf("close: %v", err)
	}
	s.step("fetch")
	var got bytes.Buffer
	if n, err := c.Fetch("in.bin", 0, -1, &got); err != nil || n != 10000 {
		s.t.Fatalf("fetch = %d, %v", n, err)
	}
	s.step("put")
	if n, err := c.Put("out.bin", bytes.NewReader(pattern(9000))); err != nil || n != 9000 {
		s.t.Fatalf("put = %d, %v", n, err)
	}
	s.step("shed")
	rel := s.hold(ctl)
	_, _, err = c.Stat("in.bin")
	s.wantShed("stat under load", err)
	s.step("shed-fetch")
	_, err = c.Fetch("in.bin", 0, -1, io.Discard)
	s.wantShed("fetch under load", err)
	s.step("shed-put")
	_, err = c.Put("out2.bin", bytes.NewReader(pattern(9000)))
	rel()
	s.wantShed("put under load", err)
	s.step("after-shed")
	if size, ok, err := c.Stat("in.bin"); err != nil || !ok || size != 10000 {
		s.t.Fatalf("stat on the connection a shed left = %d, %v, %v", size, ok, err)
	}
	s.step("error")
	_, err = c.Open("missing.bin", os.O_RDONLY)
	if err == nil || !strings.HasPrefix(err.Error(), "gridftp: ") {
		s.t.Fatalf("open missing: err = %v, want a gridftp server error", err)
	}
	s.step("error-fetch")
	_, err = c.Fetch("missing.bin", 0, -1, io.Discard)
	if err == nil || !strings.HasPrefix(err.Error(), "gridftp: ") {
		s.t.Fatalf("fetch missing: err = %v, want a gridftp server error", err)
	}

	// The data channel under a negotiated codec: the capability frame ahead
	// of a download request and ahead of an upload, without and with a
	// columnar record schema.
	zc := gridftp.NewClient(s.dialer, "srv:6000", s.v)
	defer zc.Close()
	zc.SetCodec(wire.CodecLZB)
	schema := xdr.Schema{Fields: []xdr.Field{{Name: "t", Kind: xdr.KindInt64}, {Name: "station", Kind: xdr.KindUint32}}}
	records := make([]byte, 0, 500*schema.Size())
	for i := 0; i < 500; i++ {
		records = binary.LittleEndian.AppendUint64(records, uint64(1_700_000_000+i*60))
		records = binary.LittleEndian.AppendUint32(records, uint32(i%13))
	}
	if err := zc.RegisterSchema("rec.bin", schema, binary.LittleEndian); err != nil {
		s.t.Fatalf("register schema: %v", err)
	}
	s.step("lzb-fetch")
	got.Reset()
	if n, err := zc.Fetch("in.bin", 0, -1, &got); err != nil || n != 10000 {
		s.t.Fatalf("lzb fetch = %d, %v", n, err)
	}
	s.step("lzb-put-columnar")
	if n, err := zc.Put("rec.bin", bytes.NewReader(records)); err != nil || n != int64(len(records)) {
		s.t.Fatalf("lzb columnar put = %d, %v", n, err)
	}
	s.step("lzb-fetch-columnar")
	got.Reset()
	if n, err := zc.Fetch("rec.bin", 0, -1, &got); err != nil || n != int64(len(records)) || !bytes.Equal(got.Bytes(), records) {
		s.t.Fatalf("lzb columnar fetch = %d, %v", n, err)
	}

	// A stream cut mid-transfer resumes on a fresh connection at the first
	// byte the sink has not seen.
	vfs.WriteFile(fs, "big.bin", pattern(resetBody))
	rc := gridftp.NewClient(s.dialer, "srv:6000", s.v)
	defer rc.Close()
	rc.SetRetry(s.resumePolicy())
	s.step("reset-resume")
	s.net.FailAfter("srv", "app", resetAt)
	got.Reset()
	if n, err := rc.Fetch("big.bin", 0, -1, &got); err != nil || n != resetBody || !bytes.Equal(got.Bytes(), pattern(resetBody)) {
		s.t.Fatalf("fetch across a reset = %d, %v", n, err)
	}
}

func scriptObjstore(s *script) {
	store := objstore.NewStore()
	store.Put("in", pattern(10000))
	srv := objstore.NewServer(store, s.v)
	ctl := s.oneSlot("obj")
	srv.SetAdmission(ctl)
	l := s.listen("srv:7000")
	s.v.Go("objstore-serve", func() { srv.Serve(l) })

	c := objstore.NewClient(s.dialer, "srv:7000", s.v)
	defer c.Close()
	s.step("stat")
	if size, ok, err := c.Stat("in"); err != nil || !ok || size != 10000 {
		s.t.Fatalf("stat = %d, %v, %v", size, ok, err)
	}
	s.step("get")
	var got bytes.Buffer
	if n, size, err := c.Get("in", 100, 9000, &got); err != nil || n != 9000 || size != 10000 {
		s.t.Fatalf("get = %d, %d, %v", n, size, err)
	}
	s.step("put")
	if n, err := c.Put("out", bytes.NewReader(pattern(9000))); err != nil || n != 9000 {
		s.t.Fatalf("put = %d, %v", n, err)
	}
	s.step("shed")
	rel := s.hold(ctl)
	_, _, err := c.Stat("in")
	s.wantShed("stat under load", err)
	s.step("shed-get")
	_, _, err = c.Get("in", 0, -1, io.Discard)
	s.wantShed("get under load", err)
	s.step("shed-put")
	_, err = c.Put("out2", bytes.NewReader(pattern(9000)))
	rel()
	s.wantShed("put under load", err)
	s.step("error")
	_, _, err = c.Get("missing", 0, -1, io.Discard)
	if err == nil || !strings.HasPrefix(err.Error(), "objstore: ") {
		s.t.Fatalf("get missing: err = %v, want an objstore server error", err)
	}

	// The data channel under a negotiated codec: the capability frame
	// pipelined ahead of a GET, and answered before a PUT begins.
	zc := objstore.NewClient(s.dialer, "srv:7000", s.v)
	defer zc.Close()
	zc.SetCodec(wire.CodecLZB)
	s.step("lzb-get")
	got.Reset()
	if n, _, err := zc.Get("in", 100, 9000, &got); err != nil || n != 9000 || !bytes.Equal(got.Bytes(), pattern(10000)[100:9100]) {
		s.t.Fatalf("lzb get = %d, %v", n, err)
	}
	s.step("lzb-put")
	if n, err := zc.Put("zout", bytes.NewReader(pattern(9000))); err != nil || n != 9000 {
		s.t.Fatalf("lzb put = %d, %v", n, err)
	}

	// A stream cut mid-transfer resumes on a fresh connection at the first
	// byte the sink has not seen.
	store.Put("big", pattern(resetBody))
	rc := objstore.NewClient(s.dialer, "srv:7000", s.v)
	defer rc.Close()
	rc.SetRetry(s.resumePolicy())
	s.step("reset-resume")
	s.net.FailAfter("srv", "app", resetAt)
	got.Reset()
	if n, _, err := rc.Get("big", 0, -1, &got); err != nil || n != resetBody || !bytes.Equal(got.Bytes(), pattern(resetBody)) {
		s.t.Fatalf("get across a reset = %d, %v", n, err)
	}

	// One client's operations back to back, raw and under lzb: what a client
	// that keeps its connections between operations must put on the wire
	// unchanged, the negotiation in front of every transfer included.
	for _, codec := range []string{wire.CodecRaw, wire.CodecLZB} {
		bc := objstore.NewClient(s.dialer, "srv:7000", s.v)
		defer bc.Close()
		bc.SetCodec(codec)
		s.step("seq-" + codec + "-stat")
		if size, ok, err := bc.Stat("in"); err != nil || !ok || size != 10000 {
			s.t.Fatalf("%s stat = %d, %v, %v", codec, size, ok, err)
		}
		s.step("seq-" + codec + "-get")
		got.Reset()
		if n, _, err := bc.Get("in", 100, 9000, &got); err != nil || n != 9000 || !bytes.Equal(got.Bytes(), pattern(10000)[100:9100]) {
			s.t.Fatalf("%s get = %d, %v", codec, n, err)
		}
		s.step("seq-" + codec + "-put")
		if n, err := bc.Put("seq-"+codec, bytes.NewReader(pattern(9000))); err != nil || n != 9000 {
			s.t.Fatalf("%s put = %d, %v", codec, n, err)
		}
		s.step("seq-" + codec + "-stat-back")
		if size, ok, err := bc.Stat("seq-" + codec); err != nil || !ok || size != 9000 {
			s.t.Fatalf("%s stat of the upload = %d, %v, %v", codec, size, ok, err)
		}
	}

	// The server dies and comes back between two operations of one client,
	// which has no retry policy: the second must not notice.
	kc := objstore.NewClient(s.dialer, "srv:7000", s.v)
	defer kc.Close()
	s.step("restart-stat-before")
	if size, ok, err := kc.Stat("in"); err != nil || !ok || size != 10000 {
		s.t.Fatalf("stat before the restart = %d, %v, %v", size, ok, err)
	}
	s.tp.kill(l)
	l = s.listen("srv:7000")
	s.v.Go("objstore-serve-again", func() { objstore.NewServer(store, s.v).Serve(l) })
	s.step("restart-stat-after")
	if size, ok, err := kc.Stat("in"); err != nil || !ok || size != 10000 {
		s.t.Fatalf("stat after the restart = %d, %v, %v", size, ok, err)
	}
}

func scriptNWS(s *script) {
	// The sensor speaks a two-message protocol on the shared framing.
	sensor := nws.NewSensor(s.v)
	sl := s.listen("srv:8102")
	s.v.Go("nws-sensor-serve", func() { sensor.Serve(sl) })
	s.step("probe")
	p := nws.NewProber(s.v, s.dialer)
	p.Burst = 6000
	if _, _, err := p.Probe("srv:8102"); err != nil {
		s.t.Fatalf("probe: %v", err)
	}
}

func scriptGridBuffer(s *script) {
	reg := gridbuffer.NewRegistry(s.v, nil)
	srv := gridbuffer.NewServer(reg, s.v)
	ctl := s.oneSlot("buf")
	srv.SetAdmission(ctl)
	l := s.listen("srv:9000")
	s.v.Go("gridbuffer-serve", func() { srv.Serve(l) })
	opts := gridbuffer.Options{BlockSize: 4096, Capacity: 16}

	// Admission is per stream: the writer's attach takes the one slot and
	// holds it, so the reader's attach is the shed.
	s.step("attach")
	w, err := gridbuffer.NewWriter(s.dialer, "srv:9000", s.v, "pipe", opts, gridbuffer.WriterOptions{})
	if err != nil {
		s.t.Fatalf("attach writer: %v", err)
	}
	s.step("shed")
	_, err = gridbuffer.NewReader(s.dialer, "srv:9000", s.v, "pipe", opts, gridbuffer.ReaderOptions{})
	s.wantShed("attach under load", err)
	s.step("close")
	if err := w.Close(); err != nil {
		s.t.Fatalf("close writer: %v", err)
	}

	// The other reply classes come from a canned peer: an attach answered by
	// an error, then two connection-per-call writers (each block travels on
	// its own connection and classifies its own reply) whose first block is
	// shed and refused.
	attachResp := cannedReply{2, wire.NewEncoder().I64(-1).U32(4096).Bytes()}
	s.serveCanned(s.listen("srv:9001"),
		cannedError("registry offline"),
		attachResp, cannedShed(),
		attachResp, cannedError("block refused"))
	s.step("error")
	_, err = gridbuffer.NewWriter(s.dialer, "srv:9001", s.v, "pipe", opts, gridbuffer.WriterOptions{})
	s.wantServerError("attach answered by an error", err, "gridbuffer: registry offline")
	perCall := func() *gridbuffer.Writer {
		pw, err := gridbuffer.NewWriter(s.dialer, "srv:9001", s.v, "percall", opts, gridbuffer.WriterOptions{ConnPerCall: true})
		if err != nil {
			s.t.Fatalf("attach conn-per-call writer: %v", err)
		}
		return pw
	}
	s.step("percall-shed")
	_, err = perCall().Write(pattern(4096))
	s.wantShed("conn-per-call put under load", err)
	s.step("percall-error")
	_, err = perCall().Write(pattern(4096))
	s.wantServerError("conn-per-call put refused", err, "gridbuffer: block refused")

	// A codec rides the attach exchange; only block payloads change. A second
	// service without admission, so writer and reader attach side by side.
	zsrv := gridbuffer.NewServer(gridbuffer.NewRegistry(s.v, nil), s.v)
	zl := s.listen("srv:9002")
	s.v.Go("gridbuffer-lzb-serve", func() { zsrv.Serve(zl) })
	s.step("lzb-attach")
	zw, err := gridbuffer.NewWriter(s.dialer, "srv:9002", s.v, "zpipe", opts, gridbuffer.WriterOptions{Codec: wire.CodecLZB})
	if err != nil {
		s.t.Fatalf("attach lzb writer: %v", err)
	}
	s.step("lzb-put")
	if _, err := zw.Write(pattern(2 * 4096)); err != nil {
		s.t.Fatalf("lzb write: %v", err)
	}
	if err := zw.Close(); err != nil {
		s.t.Fatalf("close lzb writer: %v", err)
	}
	s.step("lzb-get")
	zr, err := gridbuffer.NewReader(s.dialer, "srv:9002", s.v, "zpipe", opts, gridbuffer.ReaderOptions{Codec: wire.CodecLZB})
	if err != nil {
		s.t.Fatalf("attach lzb reader: %v", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil || !bytes.Equal(body, pattern(2*4096)) {
		s.t.Fatalf("lzb read = %d bytes, %v", len(body), err)
	}
	if err := zr.Close(); err != nil {
		s.t.Fatalf("close lzb reader: %v", err)
	}
	// A reader's parting detach is not waited for; give the server the time
	// to answer it, so the answer is on the tape every run.
	s.v.Sleep(10 * time.Millisecond)

	// The pipe itself, on a third service without admission: where each
	// socket write ends is the flush rule at all three endpoints. The window
	// holds a whole stream, so no write waits on its peer and no two
	// goroutines woken at one instant decide a write boundary between them.
	s.net.SetWindow(1 << 20)
	psrv := gridbuffer.NewServer(gridbuffer.NewRegistry(s.v, nil), s.v)
	pl := s.listen("srv:9003")
	s.v.Go("gridbuffer-pipe-serve", func() { psrv.Serve(pl) })
	s.gbStream()
	s.gbStall()
	s.gbWriterReset()
	s.gbReaderReset()
	s.gbBroadcast()
	s.gbDrop()
}

// gbRead reads the buffer key to its end through a reader attached with ropts
// and checks it holds want (see gbDrain).
func (s *script) gbRead(what, key string, opts gridbuffer.Options, ropts gridbuffer.ReaderOptions, want []byte, pace time.Duration) {
	s.t.Helper()
	r, err := gridbuffer.NewReader(s.dialer, "srv:9003", s.v, key, opts, ropts)
	if err != nil {
		s.t.Fatalf("%s: attach reader: %v", what, err)
	}
	s.gbDrain(what, r, want, pace)
}

// gbDrain reads r to its end a block at a time, pace apart, checks it held
// want, and gives the parting detach time to be answered.
func (s *script) gbDrain(what string, r *gridbuffer.Reader, want []byte, pace time.Duration) {
	s.t.Helper()
	var body []byte
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		body = append(body, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			s.t.Fatalf("%s: read after %d bytes: %v", what, len(body), err)
		}
		s.v.Sleep(pace)
	}
	if !bytes.Equal(body, want) {
		s.t.Fatalf("%s: read %d bytes, want %d", what, len(body), len(want))
	}
	if err := r.Close(); err != nil {
		s.t.Fatalf("%s: close reader: %v", what, err)
	}
	s.v.Sleep(10 * time.Millisecond)
}

func (s *script) gbWrite(what string, w *gridbuffer.Writer, body []byte) {
	s.t.Helper()
	if _, err := w.Write(body); err != nil {
		s.t.Fatalf("%s: write: %v", what, err)
	}
	if err := w.Close(); err != nil {
		s.t.Fatalf("%s: close writer: %v", what, err)
	}
}

// gbStream: 40 raw 4 KiB blocks at the default window and depth, the reader
// attached first. The writer's PUTs leave 15 to a socket write, the service
// answers every PUT its read buffer holds in one write of acknowledgements,
// and the reader asks for runs of blocks (GET-WIN) half its depth at a time.
func (s *script) gbStream() {
	body := pattern(40 * 4096)
	s.step("stream-attach")
	r, err := gridbuffer.NewReader(s.dialer, "srv:9003", s.v, "stream", gridbuffer.Options{}, gridbuffer.ReaderOptions{})
	if err != nil {
		s.t.Fatalf("stream: attach reader: %v", err)
	}
	w, err := gridbuffer.NewWriter(s.dialer, "srv:9003", s.v, "stream", gridbuffer.Options{}, gridbuffer.WriterOptions{})
	if err != nil {
		s.t.Fatalf("stream: attach writer: %v", err)
	}
	s.step("stream-put")
	s.gbWrite("stream", w, body)
	s.step("stream-get")
	s.gbDrain("stream", r, body, 0)
}

// gbStall: a buffer of 4 blocks fills while its reader is away. The put that
// would exceed it stalls in the service, which first sends the
// acknowledgements it is holding; the stalled puts go through as the reader
// (depth 2, below the capacity) acknowledges what it has read.
func (s *script) gbStall() {
	opts := gridbuffer.Options{Capacity: 4}
	body := pattern(8 * 4096)
	s.step("stall-put")
	w, err := gridbuffer.NewWriter(s.dialer, "srv:9003", s.v, "stall", opts, gridbuffer.WriterOptions{})
	if err != nil {
		s.t.Fatalf("stall: attach writer: %v", err)
	}
	done := simclock.NewWaitGroup(s.v)
	done.Add(1)
	s.v.Go("stall-writer", func() {
		defer done.Done()
		s.gbWrite("stall", w, body)
	})
	s.v.Sleep(100 * time.Millisecond)
	s.step("stall-get")
	s.gbRead("stall", "stall", opts, gridbuffer.ReaderOptions{Depth: 2}, body, 10*time.Millisecond)
	done.Wait()
}

// gbWriterReset: the writer's connection dies inside the burst of held PUTs.
// The writer re-attaches and replays every block not yet acknowledged, which
// the service takes idempotently.
func (s *script) gbWriterReset() {
	body := pattern(8 * 4096)
	s.step("wreset-put")
	w, err := gridbuffer.NewWriter(s.dialer, "srv:9003", s.v, "wreset", gridbuffer.Options{}, gridbuffer.WriterOptions{Retry: s.resumePolicy()})
	if err != nil {
		s.t.Fatalf("writer reset: attach writer: %v", err)
	}
	s.net.FailAfter("app", "srv", 4*4126)
	s.gbWrite("writer reset", w, body)
	s.step("wreset-get")
	s.gbRead("writer reset", "wreset", gridbuffer.Options{}, gridbuffer.ReaderOptions{}, body, 0)
}

// gbReaderReset: the reader's connection dies mid-stream. It re-attaches under
// the reader ID it had and asks again from its position: the blocks it never
// acknowledged are still resident.
func (s *script) gbReaderReset() {
	body := pattern(8 * 4096)
	s.step("rreset-put")
	w, err := gridbuffer.NewWriter(s.dialer, "srv:9003", s.v, "rreset", gridbuffer.Options{}, gridbuffer.WriterOptions{})
	if err != nil {
		s.t.Fatalf("reader reset: attach writer: %v", err)
	}
	s.gbWrite("reader reset", w, body)
	s.step("rreset-get")
	s.net.FailAfter("srv", "app", 3*4126)
	s.gbRead("reader reset", "rreset", gridbuffer.Options{}, gridbuffer.ReaderOptions{Retry: s.resumePolicy()}, body, 0)
}

// gbBroadcast: one writer, two readers of every block (Readers: 2). The
// second reader attaches as reader 1 and finds every block still resident.
func (s *script) gbBroadcast() {
	opts := gridbuffer.Options{Readers: 2}
	body := pattern(4 * 4096)
	s.step("bcast-attach")
	r0, err := gridbuffer.NewReader(s.dialer, "srv:9003", s.v, "bcast", opts, gridbuffer.ReaderOptions{})
	if err != nil {
		s.t.Fatalf("broadcast: attach reader 0: %v", err)
	}
	r1, err := gridbuffer.NewReader(s.dialer, "srv:9003", s.v, "bcast", opts, gridbuffer.ReaderOptions{})
	if err != nil {
		s.t.Fatalf("broadcast: attach reader 1: %v", err)
	}
	w, err := gridbuffer.NewWriter(s.dialer, "srv:9003", s.v, "bcast", opts, gridbuffer.WriterOptions{})
	if err != nil {
		s.t.Fatalf("broadcast: attach writer: %v", err)
	}
	s.step("bcast-put")
	s.gbWrite("broadcast", w, body)
	s.step("bcast-get-0")
	s.gbDrain("broadcast reader 0", r0, body, 0)
	s.step("bcast-get-1")
	s.gbDrain("broadcast reader 1", r1, body, 0)
}

// scriptSOAP: the Grid Buffer over the paper's SOAP endpoint, one connection
// per call — a writer's attach, two puts and close-write, a reader's attach,
// its two gets and the get that finds EOF, its detach, then a put to a buffer
// that does not exist and an attach out of range, each answered with a fault.
func scriptSOAP(s *script) {
	srv := gridbuffer.NewServer(gridbuffer.NewRegistry(s.v, nil), s.v)
	l := s.listen("srv:9100")
	s.v.Go("soap-serve", func() { soap.Serve(l, s.v, srv.ServeConn) })
	d := soap.Dialer{Dialer: s.dialer}
	opts := gridbuffer.Options{BlockSize: 4096}

	s.step("attach")
	w, err := gridbuffer.NewWriter(d, "srv:9100", s.v, "pipe", opts, gridbuffer.WriterOptions{ConnPerCall: true})
	if err != nil {
		s.t.Fatalf("attach writer: %v", err)
	}
	s.step("put")
	if _, err := w.Write(pattern(2 * 4096)); err != nil {
		s.t.Fatalf("put: %v", err)
	}
	s.step("close")
	if err := w.Close(); err != nil {
		s.t.Fatalf("close writer: %v", err)
	}
	s.step("reader-attach")
	r, err := gridbuffer.NewReader(d, "srv:9100", s.v, "pipe", opts, gridbuffer.ReaderOptions{ConnPerCall: true})
	if err != nil {
		s.t.Fatalf("attach reader: %v", err)
	}
	s.step("get")
	body := make([]byte, 2*4096)
	if _, err := io.ReadFull(r, body); err != nil || !bytes.Equal(body, pattern(2*4096)) {
		s.t.Fatalf("get: %v", err)
	}
	s.step("eof")
	if n, err := r.Read(body); n != 0 || err != io.EOF {
		s.t.Fatalf("read past the end = %d, %v", n, err)
	}
	s.step("detach")
	if err := r.Close(); err != nil {
		s.t.Fatalf("detach: %v", err)
	}
	// A PUT frame (type 3) for a buffer nobody attached, on a connection of
	// its own: the error frame travels as a fault and comes back as itself.
	s.step("fault")
	conn, err := d.Dial("srv:9100")
	if err != nil {
		s.t.Fatalf("fault: dial: %v", err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, 3, wire.NewEncoder().String("ghost").I64(0).Bytes32(nil).Bytes()); err != nil {
		s.t.Fatalf("fault: %v", err)
	}
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil || typ != 255 {
		s.t.Fatalf("put to an unknown buffer answered with type %d, %v", typ, err)
	}
	s.wantServerError("put to an unknown buffer", rpc.Reply("gridbuffer", typ, payload), `gridbuffer: gridbuffer: no buffer "ghost"`)
	s.step("out-of-range")
	_, err = gridbuffer.NewWriter(d, "srv:9100", s.v, "huge", gridbuffer.Options{BlockSize: 1 << 30}, gridbuffer.WriterOptions{ConnPerCall: true})
	s.wantServerError("out-of-range attach", err, "gridbuffer: gridbuffer: block size 1073741824 exceeds limit 16711680")
}

// gbDrop: the frame gridlab's dropBuffer sends between two pipes, on a
// connection of its own.
func (s *script) gbDrop() {
	s.step("drop")
	conn, err := s.dialer.Dial("srv:9003")
	if err != nil {
		s.t.Fatalf("drop: dial: %v", err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, 11, wire.NewEncoder().String("stream").Bytes()); err != nil {
		s.t.Fatalf("drop: %v", err)
	}
	if typ, _, err := wire.ReadFrame(conn); err != nil || typ != 12 {
		s.t.Fatalf("drop answered with type %d, %v", typ, err)
	}
}
