package soap

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"griddles/internal/gridbuffer"
	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/vfs"
	"griddles/internal/wire"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	in := []byte{0, 0, 0, 2, 3, 0xff, 0}
	data := encode(in)
	if !strings.Contains(string(data), "schemas.xmlsoap.org/soap/envelope") {
		t.Errorf("not a SOAP envelope:\n%s", data)
	}
	out, f, err := decode(data)
	if err != nil || f != nil || !bytes.Equal(out, in) {
		t.Errorf("round trip = %x, fault %v, err %v", out, f, err)
	}
}

func TestEnvelopeFault(t *testing.T) {
	out, f, err := decode(faultBody("Server", `no buffer "k" & <more>`))
	if err != nil || out != nil || f == nil || f.Code != "soap:Server" || f.String != `no buffer "k" & <more>` {
		t.Errorf("fault round trip: %+v err=%v", f, err)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	for _, body := range []string{
		"not xml at all",
		`<Envelope xmlns="` + nsEnvelope + `"><Body xmlns="` + nsEnvelope + `"></Body></Envelope>`,
		`<Envelope xmlns="` + nsEnvelope + `"><Body xmlns="` + nsEnvelope + `"><Frames>!!</Frames></Body></Envelope>`,
	} {
		if _, _, err := decode([]byte(body)); err == nil {
			t.Errorf("accepted %q", body)
		}
	}
}

func TestReadRequestParsing(t *testing.T) {
	raw := "POST /GridBufferService HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"
	line, body, err := readMessage(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if line[0] != "POST" || line[1] != "/GridBufferService" || line[2] != "HTTP/1.1" || string(body) != "hello" {
		t.Errorf("parsed %q %q", line, body)
	}
}

func TestReadRequestRejectsBadLength(t *testing.T) {
	for _, raw := range []string{
		"POST / HTTP/1.1\r\nContent-Length: -3\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: zillion\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort",
		"GARBAGE\r\n\r\n",
	} {
		if _, _, err := readMessage(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("accepted %q", raw)
		}
	}
}

// TestMaxBodyHoldsTheLargestFrame: the body bound is the envelope of one
// frame of wire.MaxFrame payload, so any block a service accepts can be put.
// A request whose Content-Length is exactly the bound parses; one byte more
// is refused.
func TestMaxBodyHoldsTheLargestFrame(t *testing.T) {
	if n := len(encode(make([]byte, 5+wire.MaxFrame))); n != MaxBody {
		t.Fatalf("envelope of the largest frame = %d bytes, MaxBody = %d", n, MaxBody)
	}
	body := bytes.Repeat([]byte{'A'}, MaxBody+1)
	for _, n := range []int{MaxBody, MaxBody + 1} {
		raw := io.MultiReader(strings.NewReader(fmt.Sprintf("POST %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n", servicePath, n)), bytes.NewReader(body[:n]))
		_, got, err := readMessage(bufio.NewReader(raw))
		if ok := err == nil && len(got) == n; ok != (n == MaxBody) {
			t.Errorf("Content-Length %d (MaxBody%+d): %d bytes read, err %v", n, n-MaxBody, len(got), err)
		}
	}
}

// rig is a Grid Buffer service behind the SOAP endpoint, on simnet.
type rig struct {
	v   *simclock.Virtual
	net *simnet.Network
	reg *gridbuffer.Registry
}

func newRig(spec simnet.LinkSpec) *rig {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("w", "svc", spec)
	n.SetLinkBoth("r", "svc", simnet.LinkSpec{Latency: 100 * time.Microsecond})
	return &rig{v: v, net: n, reg: gridbuffer.NewRegistry(v, vfs.NewMemFS())}
}

func (r *rig) start(t *testing.T) {
	t.Helper()
	l, err := r.net.Host("svc").Listen("svc:8000")
	if err != nil {
		t.Fatal(err)
	}
	srv := gridbuffer.NewServer(r.reg, r.v)
	r.v.Go("soap-serve", func() { Serve(l, r.v, srv.ServeConn) })
}

// writer and reader are the SOAP transport's two ends, as core builds them.
func (r *rig) writer(opts gridbuffer.Options, p retry.Policy) (*gridbuffer.Writer, error) {
	return gridbuffer.NewWriter(Dialer{r.net.Host("w")}, "svc:8000", r.v, "k", opts, gridbuffer.WriterOptions{ConnPerCall: true, Retry: p})
}

func (r *rig) reader(opts gridbuffer.Options, p retry.Policy) (*gridbuffer.Reader, error) {
	return gridbuffer.NewReader(Dialer{r.net.Host("r")}, "svc:8000", r.v, "k", opts, gridbuffer.ReaderOptions{ConnPerCall: true, Retry: p})
}

// pipe writes want through a SOAP writer while a SOAP reader reads it all.
func (r *rig) pipe(t *testing.T, opts gridbuffer.Options, want []byte) []byte {
	t.Helper()
	var got []byte
	done := simclock.NewWaitGroup(r.v)
	done.Add(1)
	r.v.Go("reader", func() {
		defer done.Done()
		rd, err := r.reader(opts, retry.Policy{})
		if err != nil {
			t.Errorf("reader: %v", err)
			return
		}
		defer rd.Close()
		if got, err = io.ReadAll(rd); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	w, err := r.writer(opts, retry.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	done.Wait()
	return got
}

func TestSOAPStreamEndToEnd(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: 2 * time.Millisecond})
	want := make([]byte, 60_000)
	rand.New(rand.NewSource(7)).Read(want)
	r.v.Run(func() {
		r.start(t)
		if got := r.pipe(t, gridbuffer.Options{}, want); !bytes.Equal(got, want) {
			t.Errorf("SOAP stream corrupted: %d vs %d bytes", len(got), len(want))
		}
	})
}

func TestSOAPBlockingRead(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	r.v.Run(func() {
		r.start(t)
		var firstRead time.Duration
		done := simclock.NewWaitGroup(r.v)
		done.Add(1)
		r.v.Go("reader", func() {
			defer done.Done()
			rd, err := r.reader(gridbuffer.Options{}, retry.Policy{})
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			defer rd.Close()
			buf := make([]byte, 16)
			io.ReadFull(rd, buf)
			firstRead = r.v.Elapsed()
			io.Copy(io.Discard, rd)
		})
		r.v.Sleep(30 * time.Second)
		w, _ := r.writer(gridbuffer.Options{BlockSize: 16}, retry.Policy{})
		w.Write(bytes.Repeat([]byte{7}, 64))
		w.Close()
		done.Wait()
		if firstRead < 30*time.Second {
			t.Errorf("read returned at %v, before any data existed", firstRead)
		}
	})
}

// TestSOAPFaultOnUnknownBuffer: a request the service refuses travels back
// as a SOAP fault and reaches the caller as the service's own error frame.
func TestSOAPFaultOnUnknownBuffer(t *testing.T) {
	r := newRig(simnet.LinkSpec{})
	r.v.Run(func() {
		r.start(t)
		s, err := rpc.Open("gridbuffer", Dialer{r.net.Host("w")}, "svc:8000", r.v, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		_, _, err = s.Call(3, wire.NewEncoder().String("ghost").I64(0).Bytes32(nil).Bytes()) // a PUT
		if want := `gridbuffer: gridbuffer: no buffer "ghost"`; err == nil || err.Error() != want {
			t.Errorf("err = %v, want %q", err, want)
		}
	})
}

// TestSOAPFaultOnOutOfRangeAttach: the block size reaches the same range
// check as the binary ATTACH — a block past one wire frame is a fault, and
// no buffer is made.
func TestSOAPFaultOnOutOfRangeAttach(t *testing.T) {
	r := newRig(simnet.LinkSpec{})
	r.v.Run(func() {
		r.start(t)
		_, err := r.writer(gridbuffer.Options{BlockSize: 1 << 30}, retry.Policy{})
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("err = %v, want the service's range error", err)
		}
		if r.reg.Len() != 0 {
			t.Error("an attach out of range created its buffer")
		}
	})
}

func TestSOAPRejectsWrongPathAndMethod(t *testing.T) {
	r := newRig(simnet.LinkSpec{})
	r.v.Run(func() {
		r.start(t)
		for _, tc := range []struct{ req, status string }{
			{"POST /wrong HTTP/1.1\r\nContent-Length: 0\r\n\r\n", "400"},
			{"POST " + servicePath + " HTTP/1.1\r\nContent-Length: 4\r\n\r\nnope", "400"},
			{"POST " + servicePath + " HTTP/1.1\r\nContent-Length: " + fmt.Sprint(len(faultBody("Client", "x"))) + "\r\n\r\n" + string(faultBody("Client", "x")), "400"},
			{"POST / SPDY\r\n\r\n", "400"},
			{"GET / HTTP/1.1\r\n\r\n", "405"},
		} {
			conn, err := r.net.Host("w").Dial("svc:8000")
			if err != nil {
				t.Fatal(err)
			}
			io.WriteString(conn, tc.req)
			resp, _ := io.ReadAll(conn)
			conn.Close()
			if !strings.HasPrefix(string(resp), "HTTP/1.1 "+tc.status) {
				t.Errorf("%.30q answered %.40q, want %s", tc.req, resp, tc.status)
			}
		}
	})
}

// TestSOAPDialerRefusesWriteAfterPost: a SOAP connection holds one exchange.
func TestSOAPDialerRefusesWriteAfterPost(t *testing.T) {
	r := newRig(simnet.LinkSpec{})
	r.v.Run(func() {
		r.start(t)
		conn, err := Dialer{r.net.Host("w")}.Dial("svc:8000")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wire.WriteFrame(conn, 11, wire.NewEncoder().String("k").Bytes()) // a DROP
		if typ, _, err := wire.ReadFrame(conn); err != nil || typ != 12 {
			t.Fatalf("drop answered with type %d, %v", typ, err)
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("read past the answer: %v, want EOF", err)
		}
		if _, err := conn.Write([]byte{0}); err == nil {
			t.Error("a second request was accepted on a posted call")
		}
	})
}

// TestSOAPSilentPeerTimesOut: against a listener that accepts and never
// answers, a SOAP writer and a SOAP reader each fail once the retry policy's
// attempts have timed out, instead of waiting for ever.
func TestSOAPSilentPeerTimesOut(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	p := retry.Policy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond, AttemptTimeout: 500 * time.Millisecond, Clock: r.v}
	budget := p.MaxElapsed() + 10*time.Millisecond // and a dial per attempt
	r.v.Run(func() {
		l, err := r.net.Host("svc").Listen("svc:8000")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		r.v.Go("silent", func() {
			for {
				if _, err := l.Accept(); err != nil {
					return
				}
			}
		})
		for _, end := range []struct {
			name string
			open func() error
		}{
			{"writer", func() error { _, err := r.writer(gridbuffer.Options{}, p); return err }},
			{"reader", func() error { _, err := r.reader(gridbuffer.Options{}, p); return err }},
		} {
			start := r.v.Now()
			err := end.open()
			if took := r.v.Now().Sub(start); err == nil || took > budget {
				t.Errorf("%s against a silent peer: err %v after %v, want an error within %v", end.name, err, took, budget)
			}
		}
	})
}

// TestSOAPLostResponseKeepsBlock: the connection carrying a get's answer is
// reset mid-answer. The block stays resident until a later get acknowledges
// it, so the reader's retry fetches it again and every byte arrives in order.
func TestSOAPLostResponseKeepsBlock(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, 8*4096)
	rand.New(rand.NewSource(11)).Read(want)
	o := obs.New(r.v)
	p := retry.Policy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, AttemptTimeout: time.Second, Clock: r.v, Obs: o}
	r.v.Run(func() {
		r.start(t)
		w, err := r.writer(gridbuffer.Options{}, retry.Policy{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(want); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := r.reader(gridbuffer.Options{}, p)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		// An answer carries one 4 KiB block as ~5.7 KB of base64: the cut
		// lands inside the third.
		r.net.FailAfter("svc", "r", 14_000)
		got, err := io.ReadAll(rd)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d of %d bytes across a lost answer: %v", len(got), len(want), err)
		}
	})
	if n := o.Snapshot().Counters["retry.attempt.total{op=gb.get}"]; n == 0 {
		t.Errorf("no retried get: the reset never cut an answer (counters %v)", o.Snapshot().Counters)
	}
}

func TestSOAPIsSlowerThanBinaryOnWAN(t *testing.T) {
	// The ablation claim: over a high-latency link the SOAP envelope +
	// base64 + connection-per-call stack is measurably slower than the
	// binary connection-per-call transport for the same payload.
	const total = 100 * 4096
	lat := simnet.LinkSpec{Latency: 50 * time.Millisecond, Bandwidth: 1 << 20}

	soapTime := func() time.Duration {
		r := newRig(lat)
		r.v.Run(func() {
			r.start(t)
			r.pipe(t, gridbuffer.Options{}, make([]byte, total))
		})
		return r.v.Elapsed()
	}()

	binTime := func() time.Duration {
		v := simclock.NewVirtualDefault()
		n := simnet.New(v)
		n.SetLinkBoth("w", "svc", lat)
		n.SetLinkBoth("r", "svc", simnet.LinkSpec{Latency: 100 * time.Microsecond})
		reg := gridbuffer.NewRegistry(v, vfs.NewMemFS())
		v.Run(func() {
			l, err := n.Host("svc").Listen("svc:7000")
			if err != nil {
				t.Fatal(err)
			}
			v.Go("serve", func() { gridbuffer.NewServer(reg, v).Serve(l) })
			done := simclock.NewWaitGroup(v)
			done.Add(1)
			v.Go("reader", func() {
				defer done.Done()
				rd, _ := gridbuffer.NewReader(n.Host("r"), "svc:7000", v, "k", gridbuffer.Options{}, gridbuffer.ReaderOptions{})
				defer rd.Close()
				io.Copy(io.Discard, rd)
			})
			w, _ := gridbuffer.NewWriter(n.Host("w"), "svc:7000", v, "k", gridbuffer.Options{},
				gridbuffer.WriterOptions{ConnPerCall: true})
			w.Write(make([]byte, total))
			w.Close()
			done.Wait()
		})
		return v.Elapsed()
	}()

	if soapTime <= binTime {
		t.Errorf("SOAP (%v) not slower than binary conn-per-call (%v)", soapTime, binTime)
	}
}

// Property: any payload survives the SOAP writer/reader round trip intact.
func TestSOAPStreamProperty(t *testing.T) {
	f := func(seed int64, sizeRaw uint16, bsRaw uint8) bool {
		size := int(sizeRaw) % 20000
		bs := int(bsRaw)%700 + 1
		want := make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(want)
		r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
		var got []byte
		r.v.Run(func() {
			r.start(t)
			got = r.pipe(t, gridbuffer.Options{BlockSize: bs}, want)
		})
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
