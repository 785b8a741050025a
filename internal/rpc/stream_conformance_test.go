package rpc_test

// One stream conformance table, two services. Every bulk transfer in the
// tree — gridftp Fetch/Put, objstore Get/Put — is the same exchange on a
// dedicated connection: request, header, data frames, end frame. Each row
// below states one behaviour of that exchange and runs it through both
// services' exported clients in both directions, over simnet on the virtual
// clock, against the real server where it can produce the situation and a
// scripted peer (raw frames, the service's message numbers) where it cannot.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"griddles/internal/admit"
	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/gridftp"
	"griddles/internal/objstore"
	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/vfs"
	"griddles/internal/wire"
)

// streamWire is what a scripted peer must know of one service's data channel.
type streamWire struct {
	negotiate, errorType          uint8
	get, getHdr, getData, getEnd  uint8
	put, putData, putEnd, putResp uint8
	// hdr is the payload of the header frame opening a download of total bytes.
	hdr func(total int64) []byte
}

// bulkClient is the part of both clients the table drives.
type bulkClient interface {
	SetRetry(retry.Policy)
	SetCodec(string)
	Close() error
}

// bulkService adapts one service to the table.
type bulkService struct {
	name string
	wire streamWire
	// serve runs the real server on l with "in" holding body; stored reads
	// back what an upload left under a name.
	serve func(l net.Listener, clock simclock.Clock, adm *admit.Controller, body []byte) (stored func(name string) ([]byte, bool))
	// dial returns a client and its two transfers.
	dial func(d gridftp.Dialer, addr string, clock simclock.Clock) (c bulkClient, download func(name string, w io.Writer) (int64, error), upload func(name string, r io.Reader) (int64, error))
}

var bulkServices = []bulkService{
	{
		name: "gridftp",
		wire: streamWire{
			negotiate: 19, errorType: 255,
			get: 11, getHdr: 12, getData: 13, getEnd: 14,
			put: 15, putData: 16, putEnd: 17, putResp: 18,
			hdr: func(total int64) []byte { return wire.NewEncoder().I64(total).Bytes() },
		},
		serve: func(l net.Listener, clock simclock.Clock, adm *admit.Controller, body []byte) func(string) ([]byte, bool) {
			fs := vfs.NewMemFS()
			vfs.WriteFile(fs, "in", body)
			srv := gridftp.NewServer(fs, clock)
			srv.SetAdmission(adm)
			clock.Go("gridftp-serve", func() { srv.Serve(l) })
			return func(name string) ([]byte, bool) {
				b, err := vfs.ReadFile(fs, name)
				return b, err == nil
			}
		},
		dial: func(d gridftp.Dialer, addr string, clock simclock.Clock) (bulkClient, func(string, io.Writer) (int64, error), func(string, io.Reader) (int64, error)) {
			c := gridftp.NewClient(d, addr, clock)
			return c,
				func(name string, w io.Writer) (int64, error) { return c.Fetch(name, 0, -1, w) },
				c.Put
		},
	},
	{
		name: "objstore",
		wire: streamWire{
			negotiate: 13, errorType: 255,
			get: 3, getHdr: 4, getData: 5, getEnd: 6,
			put: 7, putData: 8, putEnd: 9, putResp: 10,
			// A scripted object is exactly as long as its stream claims:
			// Total == Size.
			hdr: func(total int64) []byte { return wire.NewEncoder().I64(total).I64(total).Bytes() },
		},
		serve: func(l net.Listener, clock simclock.Clock, adm *admit.Controller, body []byte) func(string) ([]byte, bool) {
			store := objstore.NewStore()
			store.PutBytes("in", body)
			srv := objstore.NewServer(store, clock)
			srv.SetAdmission(adm)
			clock.Go("objstore-serve", func() { srv.Serve(l) })
			return store.Get
		},
		dial: func(d gridftp.Dialer, addr string, clock simclock.Clock) (bulkClient, func(string, io.Writer) (int64, error), func(string, io.Reader) (int64, error)) {
			c := objstore.NewClient(d, addr, clock)
			return c,
				func(name string, w io.Writer) (int64, error) {
					n, _, err := c.Get(name, 0, -1, w)
					return n, err
				},
				c.Put
		},
	},
}

// streamBody spans four 64 KiB data frames and compresses well.
var streamBody = pattern(200_000)

// cell is one {service, direction} run of a row: its own clock, network,
// tape and client.
type cell struct {
	t        *testing.T
	sv       bulkService
	upload   bool
	v        *simclock.Virtual
	net      *simnet.Network
	tp       *tape
	client   bulkClient
	download func(string, io.Writer) (int64, error)
	put      func(string, io.Reader) (int64, error)
	stored   func(string) ([]byte, bool)
}

const cellAddr = "srv:6500"

// policy is the fast-recovering policy of the rows that retry.
func (c *cell) policy() retry.Policy {
	return retry.Policy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, AttemptTimeout: 500 * time.Millisecond, Clock: c.v}
}

func (c *cell) listen() net.Listener {
	l, err := c.net.Host("srv").Listen(cellAddr)
	if err != nil {
		c.t.Fatalf("listen: %v", err)
	}
	return tapedListener{Listener: l, tp: c.tp}
}

// real starts the service's own server.
func (c *cell) real(adm *admit.Controller) {
	c.stored = c.sv.serve(c.listen(), c.v, adm, streamBody)
}

// scripted serves every connection with peer, a hand-written far end.
func (c *cell) scripted(peer func(br *bufio.Reader, bw *bufio.Writer)) {
	serveScripted(c.v, c.listen(), peer)
}

// serveScripted runs peer on every connection l accepts.
func serveScripted(v *simclock.Virtual, l net.Listener, peer func(br *bufio.Reader, bw *bufio.Writer)) {
	v.Go("scripted-serve", func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			v.Go("scripted-conn", func() {
				defer conn.Close()
				peer(bufio.NewReader(conn), bufio.NewWriter(conn))
			})
		}
	})
}

// transfer runs the cell's direction once: a download of "in" into a buffer
// (returned), or an upload of src as "out".
func (c *cell) transfer(src io.Reader) (got []byte, n int64, err error) {
	if c.upload {
		n, err = c.put("out", src)
		return nil, n, err
	}
	var sink bytes.Buffer
	n, err = c.download("in", &sink)
	return sink.Bytes(), n, err
}

// wantWhole asserts a finished transfer moved streamBody exactly once.
func (c *cell) wantWhole(got []byte, n int64, err error) {
	c.t.Helper()
	if err != nil || n != int64(len(streamBody)) {
		c.t.Fatalf("transfer = %d bytes, %v; want %d, nil", n, err, len(streamBody))
	}
	if c.upload {
		var ok bool
		if got, ok = c.stored("out"); !ok {
			c.t.Fatal("upload succeeded but the server holds nothing")
		}
	}
	if !bytes.Equal(got, streamBody) {
		c.t.Fatalf("far side holds %d bytes that differ from the %d sent (a byte was lost or seen twice)", len(got), len(streamBody))
	}
}

// wantPermanent asserts the transfer failed for good on its first connection
// with an error that says why.
func (c *cell) wantPermanent(err error, substr string) {
	c.t.Helper()
	if err == nil || !strings.Contains(err.Error(), substr) {
		c.t.Fatalf("err = %v, want one containing %q", err, substr)
	}
	if d := c.tp.dials(); d != 1 {
		c.t.Fatalf("a permanent failure was retried: %d connections", d)
	}
}

func (tp *tape) dials() int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.dialed
}

// wrote reports the socket writes and bytes one end of connection idx made.
func (tp *tape) wrote(idx int, server bool) (writes, n int) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	lines := tp.at(idx).c2s
	if server {
		lines = tp.at(idx).s2c
	}
	for _, l := range lines {
		n += (len(l) - strings.IndexByte(l, ' ') - 1) / 2
	}
	return len(lines), n
}

// reply is one frame a scripted peer answers with.
func reply(bw *bufio.Writer, typ uint8, payload []byte) {
	wire.WriteFrame(bw, typ, payload)
	bw.Flush()
}

// readUpload consumes an upload up to its end frame and returns the data
// frames' payloads joined, as the wire carried them.
func readUpload(br *bufio.Reader, w streamWire) ([]byte, error) {
	var body []byte
	for {
		typ, p, err := wire.ReadFrame(br)
		if err != nil {
			return nil, err
		}
		switch typ {
		case w.putData:
			body = append(body, p...)
		case w.putEnd:
			return body, nil
		default:
			return nil, fmt.Errorf("frame %d inside an upload", typ)
		}
	}
}

func TestStreamConformance(t *testing.T) {
	rows := []struct {
		name string
		// download and upload say which directions the row has a meaning in.
		download, upload bool
		run              func(c *cell)
	}{
		{"clean", true, true, func(c *cell) {
			c.real(nil)
			c.wantWhole(c.transfer(bytes.NewReader(streamBody)))
			if d := c.tp.dials(); d != 1 {
				c.t.Fatalf("a clean transfer took %d connections, want 1", d)
			}
		}},

		// A reset mid-stream: a download resumes at the first byte the sink
		// has not seen, an upload from a seekable source replays from its
		// start; either way the far side ends up with every byte once.
		{"reset-mid-stream", true, true, func(c *cell) {
			c.real(nil)
			c.client.SetRetry(c.policy())
			if c.upload {
				c.net.FailAfter("app", "srv", 99_000)
			} else {
				c.net.FailAfter("srv", "app", 99_000)
			}
			c.wantWhole(c.transfer(bytes.NewReader(streamBody)))
			if d := c.tp.dials(); d != 2 {
				c.t.Fatalf("transfer across one reset took %d connections, want 2", d)
			}
			if !c.upload {
				// Resumed, not restarted: the second connection carried only
				// what the first had not delivered.
				if _, n := c.tp.wrote(1, true); n >= len(streamBody) {
					c.t.Fatalf("the resumed stream carried %d bytes, the whole body again", n)
				}
			}
		}},

		// A shed request: the server drains the upload it refused, so its one
		// answer on that connection is the shed, and the retry goes through
		// once the slot frees.
		{"shed-then-retry", true, true, func(c *cell) {
			adm := admit.New(admit.Options{Service: c.sv.name, MaxConcurrent: 2, ControlShare: 0.5, Clock: c.v})
			c.real(adm)
			rel, err := adm.Acquire("other", admit.Bulk)
			if err != nil {
				c.t.Fatalf("pre-acquire: %v", err)
			}
			c.client.SetRetry(c.policy())
			c.v.Go("releaser", func() {
				c.v.Sleep(120 * time.Millisecond)
				rel()
			})
			c.wantWhole(c.transfer(bytes.NewReader(streamBody)))
			if d := c.tp.dials(); d < 2 {
				c.t.Fatalf("%d connections: the request was never shed", d)
			}
			if writes, _ := c.tp.wrote(0, true); writes != 1 {
				c.t.Fatalf("the server answered the shed connection with %d writes, want the shed alone (the refused stream was not drained)", writes)
			}
		}},

		// An error frame — inside a download, or answering an upload — is the
		// server's final word: no retry.
		{"error-frame", true, true, func(c *cell) {
			w := c.sv.wire
			refusal := wire.NewEncoder().String("disk on fire").Bytes()
			c.scripted(func(br *bufio.Reader, bw *bufio.Writer) {
				if _, _, err := wire.ReadFrame(br); err != nil {
					return
				}
				if c.upload {
					if _, err := readUpload(br, w); err != nil {
						return
					}
				} else {
					wire.WriteFrame(bw, w.getHdr, w.hdr(int64(len(streamBody))))
					wire.WriteFrame(bw, w.getData, streamBody[:1000])
				}
				reply(bw, w.errorType, refusal)
			})
			c.client.SetRetry(c.policy())
			_, _, err := c.transfer(bytes.NewReader(streamBody))
			c.wantPermanent(err, c.sv.name+": disk on fire")
		}},

		// A stream that ends short of its header is corrupt, not interrupted.
		{"short-stream", true, false, func(c *cell) {
			w := c.sv.wire
			c.scripted(func(br *bufio.Reader, bw *bufio.Writer) {
				if _, _, err := wire.ReadFrame(br); err != nil {
					return
				}
				wire.WriteFrame(bw, w.getHdr, w.hdr(int64(len(streamBody))))
				wire.WriteFrame(bw, w.getData, streamBody[:1000])
				reply(bw, w.getEnd, nil)
			})
			c.client.SetRetry(c.policy())
			_, n, err := c.transfer(nil)
			c.wantPermanent(err, fmt.Sprintf("got 1000 bytes, header said %d", len(streamBody)))
			if n != 1000 {
				c.t.Fatalf("reported %d bytes delivered, want 1000", n)
			}
		}},

		// A source that cannot rewind cannot be replayed once read from.
		{"non-seekable-source", false, true, func(c *cell) {
			c.real(nil)
			c.client.SetRetry(c.policy())
			c.net.FailAfter("app", "srv", 99_000)
			_, _, err := c.transfer(struct{ io.Reader }{bytes.NewReader(streamBody)})
			c.wantPermanent(err, "source not seekable, cannot replay")
		}},

		{"lzb", true, true, func(c *cell) {
			c.real(nil)
			c.client.SetCodec(wire.CodecLZB)
			c.wantWhole(c.transfer(bytes.NewReader(streamBody)))
			if _, n := c.tp.wrote(0, !c.upload); n > len(streamBody)/4 {
				c.t.Fatalf("the sending end wrote %d bytes for a %d-byte compressible body", n, len(streamBody))
			}
		}},

		// A peer from before negotiation answers the capability frame with an
		// error frame and keeps the connection: the transfer runs raw.
		{"old-peer-falls-back-to-raw", true, true, func(c *cell) {
			w := c.sv.wire
			var mu sync.Mutex
			var uploaded []byte
			c.scripted(func(br *bufio.Reader, bw *bufio.Writer) {
				for {
					typ, _, err := wire.ReadFrame(br)
					if err != nil {
						return
					}
					switch typ {
					case w.negotiate:
						reply(bw, w.errorType, wire.NewEncoder().String("unknown message type").Bytes())
					case w.get:
						wire.WriteFrame(bw, w.getHdr, w.hdr(int64(len(streamBody))))
						for off := 0; off < len(streamBody); off += 64 << 10 {
							wire.WriteFrame(bw, w.getData, streamBody[off:min(off+64<<10, len(streamBody))])
						}
						reply(bw, w.getEnd, nil)
					case w.put:
						body, err := readUpload(br, w)
						if err != nil {
							return
						}
						mu.Lock()
						uploaded = body
						mu.Unlock()
						reply(bw, w.putResp, wire.NewEncoder().I64(int64(len(body))).Bytes())
					}
				}
			})
			c.stored = func(string) ([]byte, bool) {
				mu.Lock()
				defer mu.Unlock()
				return uploaded, uploaded != nil
			}
			c.client.SetCodec(wire.CodecLZB)
			c.wantWhole(c.transfer(bytes.NewReader(streamBody)))
		}},
	}

	for _, row := range rows {
		for _, sv := range bulkServices {
			for _, upload := range []bool{false, true} {
				if (upload && !row.upload) || (!upload && !row.download) {
					continue
				}
				dir := "download"
				if upload {
					dir = "upload"
				}
				t.Run(row.name+"/"+sv.name+"/"+dir, func(t *testing.T) {
					v := simclock.NewVirtualDefault()
					n := simnet.New(v)
					n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: time.Millisecond})
					tp := &tape{}
					c := &cell{t: t, sv: sv, upload: upload, v: v, net: n, tp: tp}
					c.client, c.download, c.put = sv.dial(tapedDialer{inner: n.Host("app"), tp: tp}, cellAddr, v)
					defer c.client.Close()
					v.Run(func() { row.run(c) })
				})
			}
		}
	}
}

// TestStreamSilentPeerMeetsDeadline is the table's last row, on the wall
// clock: against a peer that accepts, reads and never answers, every transfer
// in either direction, raw or negotiating a codec, gives up within the retry
// policy's budget. The deadline is armed when the connection is dialed, so
// there is no exchange — the capability frame included — that waits without
// one.
func TestStreamSilentPeerMeetsDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() }) // after the parallel cells below
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	clock := simclock.Real{}
	policy := retry.Policy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond, AttemptTimeout: 100 * time.Millisecond, Clock: clock}
	budget := policy.MaxElapsed() + time.Second
	const guard = 3 * time.Second

	for _, sv := range bulkServices {
		for _, upload := range []bool{false, true} {
			for _, codec := range []string{wire.CodecRaw, wire.CodecLZB} {
				dir := "download"
				if upload {
					dir = "upload"
				}
				t.Run(sv.name+"/"+dir+"/"+codec, func(t *testing.T) {
					t.Parallel()
					client, download, put := sv.dial(rpc.TCPDialer{}, l.Addr().String(), clock)
					defer client.Close()
					client.SetRetry(policy)
					client.SetCodec(codec)
					start := time.Now()
					done := make(chan error, 1)
					go func() {
						var err error
						if upload {
							_, err = put("out", bytes.NewReader(streamBody))
						} else {
							_, err = download("in", io.Discard)
						}
						done <- err
					}()
					select {
					case err := <-done:
						var timeout net.Error
						if !errors.As(err, &timeout) || !timeout.Timeout() {
							t.Fatalf("err = %v, want a deadline error", err)
						}
						if el := time.Since(start); el > budget {
							t.Fatalf("gave up after %v, budget %v", el, budget)
						}
					case <-time.After(guard):
						t.Fatalf("still waiting on a silent peer after %v (budget %v): an exchange ran without a deadline", guard, budget)
					}
				})
			}
		}
	}
}

// Reuse conformance: the rows a client that keeps its connections between
// exchanges (rpc.Channels) adds to the table. objstore is the one service that
// does; each row drives its exported client over simnet on the virtual clock,
// counts dials on the tape and counts the connections the server side still
// holds open. Every "not reused" and "stale" row fails on a cache that simply
// puts every connection back.

// liveListener counts the accepted connections not yet closed by the
// accepting side: what a server still holds.
type liveListener struct {
	net.Listener
	mu   sync.Mutex
	live int
}

type liveConn struct {
	net.Conn
	l    *liveListener
	once sync.Once
}

func (l *liveListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.live++
	l.mu.Unlock()
	return &liveConn{Conn: conn, l: l}, nil
}

func (c *liveConn) Close() error {
	c.once.Do(func() {
		c.l.mu.Lock()
		c.l.live--
		c.l.mu.Unlock()
	})
	return c.Conn.Close()
}

// reuseRig is one objstore client, its dials taped and its metrics and retry
// events observed, against a server the row starts.
type reuseRig struct {
	t     *testing.T
	v     *simclock.Virtual
	net   *simnet.Network
	tp    *tape
	obs   *obs.Observer
	c     *objstore.Client
	store *objstore.Store
	l     net.Listener
	live  *liveListener
}

func newReuseRig(t *testing.T) *reuseRig {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: time.Millisecond})
	r := &reuseRig{t: t, v: v, net: n, tp: &tape{}, obs: obs.New(v), store: objstore.NewStore()}
	r.store.PutBytes("in", streamBody)
	r.c = objstore.NewClient(r.dialer(), cellAddr, v)
	r.c.SetObserver(r.obs)
	// The zero policy in every respect but the observer: one attempt, no
	// deadline, and any retry it did make would be in the trace.
	r.c.SetRetry(retry.Policy{Obs: r.obs, Clock: v})
	return r
}

func (r *reuseRig) dialer() tapedDialer { return tapedDialer{inner: r.net.Host("app"), tp: r.tp} }

func (r *reuseRig) listen() net.Listener {
	l, err := r.net.Host("srv").Listen(cellAddr)
	if err != nil {
		r.t.Fatalf("listen: %v", err)
	}
	r.live = &liveListener{Listener: l}
	r.l = tapedListener{Listener: r.live, tp: r.tp}
	return r.l
}

// serve starts the real server on a fresh listener.
func (r *reuseRig) serve(adm *admit.Controller) {
	l := r.listen()
	srv := objstore.NewServer(r.store, r.v)
	srv.SetAdmission(adm)
	r.v.Go("objstore-serve", func() { srv.Serve(l) })
}

// restart is the server dying and coming back on the same address.
func (r *reuseRig) restart() {
	r.tp.kill(r.l)
	r.serve(nil)
}

// scripted serves every connection with peer, a hand-written far end.
func (r *reuseRig) scripted(peer func(br *bufio.Reader, bw *bufio.Writer)) {
	serveScripted(r.v, r.listen(), peer)
}

func (r *reuseRig) stat() {
	r.t.Helper()
	if size, ok, err := r.c.Stat("in"); err != nil || !ok || size != int64(len(streamBody)) {
		r.t.Fatalf("stat = %d, %v, %v", size, ok, err)
	}
}

func (r *reuseRig) get() {
	r.t.Helper()
	var sink bytes.Buffer
	if n, _, err := r.c.Get("in", 0, -1, &sink); err != nil || n != int64(len(streamBody)) || !bytes.Equal(sink.Bytes(), streamBody) {
		r.t.Fatalf("get = %d bytes, %v", n, err)
	}
}

func (r *reuseRig) put(src io.Reader) {
	r.t.Helper()
	if n, err := r.c.Put("out", src); err != nil || n != int64(len(streamBody)) {
		r.t.Fatalf("put = %d bytes, %v", n, err)
	}
	if got, _ := r.store.Get("out"); !bytes.Equal(got, streamBody) {
		r.t.Fatalf("the server holds %d bytes that differ from the %d sent", len(got), len(streamBody))
	}
}

func (r *reuseRig) wantDials(n int) {
	r.t.Helper()
	if d := r.tp.dials(); d != n {
		r.t.Fatalf("%d connections dialed, want %d", d, n)
	}
	c := r.obs.Snapshot().Counters
	if got := c["objstore.conn.dial.total"]; got != int64(n) {
		r.t.Fatalf("objstore.conn.dial.total = %d, want %d", got, n)
	}
}

// wantLive lets the server notice what the client closed, then asserts how
// many connections it still holds.
func (r *reuseRig) wantLive(n int) {
	r.t.Helper()
	if live := r.liveOnceQuiet(); live != n {
		r.t.Fatalf("the server holds %d open connections, want %d", live, n)
	}
}

func (r *reuseRig) liveOnceQuiet() int {
	r.v.Sleep(50 * time.Millisecond)
	r.live.mu.Lock()
	defer r.live.mu.Unlock()
	return r.live.live
}

func (r *reuseRig) wantNoRetry() {
	r.t.Helper()
	for _, ev := range r.obs.Events() {
		if strings.HasPrefix(ev.Type, "retry.") {
			r.t.Fatalf("the retry policy saw the failure: %s %v", ev.Type, ev)
		}
	}
}

// objWire is objstore's data channel as a scripted peer speaks it.
var objWire = bulkServices[1].wire

const objStat, objStatResp = 1, 2

func TestChannelReuse(t *testing.T) {
	seekable := func() io.Reader { return bytes.NewReader(streamBody) }
	rows := []struct {
		name string
		run  func(r *reuseRig)
	}{
		{"reused-after-clean-operations", func(r *reuseRig) {
			r.serve(nil)
			r.stat()
			if objs, err := r.c.List(""); err != nil || len(objs) != 1 {
				r.t.Fatalf("list = %v, %v", objs, err)
			}
			r.get()
			r.put(seekable())
			r.stat()
			r.wantDials(1)
			if got := r.obs.Snapshot().Counters["objstore.conn.reuse.total"]; got != 4 {
				r.t.Fatalf("objstore.conn.reuse.total = %d, want 4", got)
			}
			r.wantLive(1)
		}},

		// The exchanges that end with an error of any kind: the connection
		// they ran on is closed, not kept, and the next operation dials.
		{"not-reused-after-error-frame", func(r *reuseRig) {
			r.serve(nil)
			r.stat()
			if _, _, err := r.c.Get("missing", 0, -1, io.Discard); err == nil || !strings.Contains(err.Error(), "no such object") {
				r.t.Fatalf("get missing: %v", err)
			}
			r.stat()
			r.wantDials(2)
			r.wantLive(1)
		}},
		{"not-reused-after-shed", func(r *reuseRig) {
			adm := admit.New(admit.Options{Service: "objstore", MaxConcurrent: 1, ControlShare: -1, Clock: r.v})
			r.serve(adm)
			r.stat()
			rel, err := adm.Acquire("other", admit.Control)
			if err != nil {
				r.t.Fatalf("pre-acquire: %v", err)
			}
			var shed *admit.ShedError
			if _, _, err := r.c.Stat("in"); !errors.As(err, &shed) {
				r.t.Fatalf("stat under load: %v, want a shed", err)
			}
			rel()
			r.stat()
			r.wantDials(2)
			r.wantLive(1)
		}},
		{"not-reused-after-short-stream", func(r *reuseRig) {
			r.scriptedGets(int64(len(streamBody)), 1000)
			r.stat()
			if _, _, err := r.c.Get("in", 0, -1, io.Discard); err == nil || !strings.Contains(err.Error(), "header said") {
				r.t.Fatalf("short get: %v", err)
			}
			r.stat()
			r.wantDials(2)
		}},
		// A stream that runs past its header is refused with frames still
		// unread behind it: a reused connection would hand them to the Stat.
		{"not-reused-after-long-stream", func(r *reuseRig) {
			r.scriptedGets(1000, 3000)
			r.stat()
			if _, _, err := r.c.Get("in", 0, -1, io.Discard); err == nil || !strings.Contains(err.Error(), "runs past") {
				r.t.Fatalf("long get: %v", err)
			}
			r.stat()
			r.wantDials(2)
		}},
		// A failing sink stops the download mid-stream, the rest of it unread.
		{"not-reused-after-sink-error", func(r *reuseRig) {
			r.serve(nil)
			r.stat()
			if _, _, err := r.c.Get("in", 0, -1, failingWriter{}); !errors.Is(err, io.ErrClosedPipe) {
				r.t.Fatalf("get into a failing sink: %v", err)
			}
			r.stat()
			r.get()
			r.wantDials(2)
			r.wantLive(1)
		}},

		// The server restarts while the client's connection sits idle. The next
		// exchange finds it dead before any answer arrived and runs again on a
		// fresh dial, at once: one more dial, nothing for the retry policy —
		// which is the zero policy, so a counted failure would be final.
		{"stale-connection-rerun/stat", func(r *reuseRig) {
			r.serve(nil)
			r.stat()
			r.restart()
			r.stat()
			r.wantDials(2)
			r.wantNoRetry()
		}},
		{"stale-connection-rerun/get", func(r *reuseRig) {
			r.serve(nil)
			r.stat()
			r.restart()
			r.get()
			r.wantDials(2)
			r.wantNoRetry()
		}},
		{"stale-connection-rerun/seekable-put", func(r *reuseRig) {
			r.serve(nil)
			r.stat()
			r.restart()
			r.put(seekable())
			r.wantDials(2)
			r.wantNoRetry()
		}},
		// A source that cannot rewind could not be sent twice, so it is never
		// risked on a connection that may be stale.
		{"non-seekable-put-dials-fresh", func(r *reuseRig) {
			r.serve(nil)
			r.stat()
			r.restart()
			r.put(struct{ io.Reader }{seekable()})
			r.wantDials(2)
			r.wantNoRetry()
			if got := r.obs.Snapshot().Counters["objstore.conn.reuse.total"]; got != 0 {
				r.t.Fatalf("objstore.conn.reuse.total = %d: the upload took the idle connection", got)
			}
		}},

		// Dials are bounded by concurrency, never by the number of operations,
		// and what stays open afterwards by the cache's bound.
		{"dials-bounded-by-concurrency", func(r *reuseRig) {
			r.serve(nil)
			for i := 0; i < 1000; i++ {
				if n, _, err := r.c.Get("in", int64(i), 100, io.Discard); err != nil || n != 100 {
					r.t.Fatalf("get %d = %d, %v", i, n, err)
				}
			}
			r.wantDials(1)
			wg := simclock.NewWaitGroup(r.v)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				r.v.Go("getter", func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						if n, _, err := r.c.Get("in", int64(i), 100, io.Discard); err != nil || n != 100 {
							r.t.Errorf("concurrent get = %d, %v", n, err)
							return
						}
					}
				})
			}
			wg.Wait()
			if d := r.tp.dials(); d > 8+rpc.MaxIdle {
				r.t.Fatalf("%d dials for 8 concurrent readers, want at most %d", d, 8+rpc.MaxIdle)
			}
			if live := r.liveOnceQuiet(); live > rpc.MaxIdle {
				r.t.Fatalf("the server holds %d connections once quiet, want at most %d", live, rpc.MaxIdle)
			}
		}},

		{"client-close-leaves-nothing-open", func(r *reuseRig) {
			r.serve(nil)
			r.stat()
			r.get()
			r.wantLive(1)
			if err := r.c.Close(); err != nil {
				r.t.Fatalf("close: %v", err)
			}
			r.wantLive(0)
			// A closed client still works; it just keeps nothing.
			r.stat()
			r.wantLive(0)
		}},
		{"multiplexer-close-leaves-nothing-open", func(r *reuseRig) {
			r.serve(nil)
			names := gns.NewStore(r.v)
			names.Set("app", "object", gns.Mapping{Mode: gns.ModeObject, RemoteHost: cellAddr, RemotePath: "in"})
			fm, err := core.New(core.Config{Machine: "app", Clock: r.v, FS: vfs.NewMemFS(), Dialer: r.dialer(), GNS: names})
			if err != nil {
				r.t.Fatalf("core.New: %v", err)
			}
			f, err := fm.Open("object")
			if err != nil {
				r.t.Fatalf("open: %v", err)
			}
			if got, err := io.ReadAll(f); err != nil || !bytes.Equal(got, streamBody) {
				r.t.Fatalf("read %d bytes, %v", len(got), err)
			}
			if err := f.Close(); err != nil {
				r.t.Fatalf("close file: %v", err)
			}
			r.wantLive(1)
			if err := fm.Close(); err != nil {
				r.t.Fatalf("close multiplexer: %v", err)
			}
			r.wantLive(0)
		}},

		// idle bounds silence inside an exchange, not between two: a kept
		// connection carries no deadline, and the next exchange arms its own.
		{"idle-connection-outlives-the-attempt-timeout", func(r *reuseRig) {
			r.serve(nil)
			p := retry.Policy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, AttemptTimeout: 500 * time.Millisecond, Clock: r.v, Obs: r.obs}
			r.c.SetRetry(p)
			r.stat()
			r.v.Sleep(10 * p.AttemptTimeout)
			r.stat()
			r.get()
			r.wantDials(1)
			r.wantNoRetry()
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newReuseRig(t)
			defer r.c.Close()
			r.v.Run(func() { row.run(r) })
		})
	}
}

// scriptedGets is a far end that answers Stat truthfully and every GET with a
// header promising promised bytes followed by sent bytes of data.
func (r *reuseRig) scriptedGets(promised int64, sent int) {
	w := objWire
	r.scripted(func(br *bufio.Reader, bw *bufio.Writer) {
		for {
			typ, _, err := wire.ReadFrame(br)
			if err != nil {
				return
			}
			switch typ {
			case objStat:
				reply(bw, objStatResp, wire.NewEncoder().Bool(true).I64(int64(len(streamBody))).Bytes())
			case w.get:
				wire.WriteFrame(bw, w.getHdr, wire.NewEncoder().I64(promised).I64(int64(len(streamBody))).Bytes())
				wire.WriteFrame(bw, w.getData, streamBody[:sent])
				reply(bw, w.getEnd, nil)
			}
		}
	})
}
