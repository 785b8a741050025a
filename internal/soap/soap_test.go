package soap

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"griddles/internal/gridbuffer"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/vfs"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	in := Body{Put: &PutReq{Key: "wf/file", Index: 42, Data: "AAEC"}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "schemas.xmlsoap.org/soap/envelope") {
		t.Errorf("not a SOAP envelope:\n%s", data)
	}
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Put == nil || *out.Put != *in.Put {
		t.Errorf("round trip = %+v", out.Put)
	}
}

func TestEnvelopeFault(t *testing.T) {
	data, _ := Marshal(Body{Fault: &Fault{Code: "soap:Server", String: "boom"}})
	out, err := Unmarshal(data)
	if err != nil || out.Fault == nil || out.Fault.String != "boom" {
		t.Errorf("fault round trip: %+v err=%v", out.Fault, err)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not xml at all")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReadRequestParsing(t *testing.T) {
	raw := "POST /GridBufferService HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"
	method, path, body, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if method != "POST" || path != "/GridBufferService" || string(body) != "hello" {
		t.Errorf("parsed %q %q %q", method, path, body)
	}
}

func TestReadRequestRejectsBadLength(t *testing.T) {
	for _, raw := range []string{
		"POST / HTTP/1.1\r\nContent-Length: -3\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: zillion\r\n\r\n",
		"GARBAGE\r\n\r\n",
	} {
		if _, _, _, err := ReadRequest(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("accepted %q", raw)
		}
	}
}

// rig is a SOAP buffer service on simnet.
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
	r.v.Go("soap-serve", func() { ServeBuffer(r.v, r.reg).Serve(l) })
}

func TestSOAPStreamEndToEnd(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: 2 * time.Millisecond})
	want := make([]byte, 60_000)
	rand.New(rand.NewSource(7)).Read(want)
	r.v.Run(func() {
		r.start(t)
		var got []byte
		done := simclock.NewWaitGroup(r.v)
		done.Add(1)
		r.v.Go("reader", func() {
			defer done.Done()
			rd, err := NewBufferReader(r.v, r.net.Host("r"), "svc:8000", "k", gridbuffer.Options{})
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			defer rd.Close()
			got, _ = io.ReadAll(rd)
		})
		w, err := NewBufferWriter(r.v, r.net.Host("w"), "svc:8000", "k", gridbuffer.Options{})
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
		if !bytes.Equal(got, want) {
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
			rd, err := NewBufferReader(r.v, r.net.Host("r"), "svc:8000", "k", gridbuffer.Options{})
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
		w, _ := NewBufferWriter(r.v, r.net.Host("w"), "svc:8000", "k", gridbuffer.Options{BlockSize: 16})
		w.Write(bytes.Repeat([]byte{7}, 64))
		w.Close()
		done.Wait()
		if firstRead < 30*time.Second {
			t.Errorf("read returned at %v, before any data existed", firstRead)
		}
	})
}

func TestSOAPFaultOnUnknownBuffer(t *testing.T) {
	r := newRig(simnet.LinkSpec{})
	r.v.Run(func() {
		r.start(t)
		_, err := call(r.v, r.net.Host("w"), "svc:8000", Body{Put: &PutReq{Key: "ghost", Index: 0, Data: ""}})
		if err == nil || !strings.Contains(err.Error(), "fault") {
			t.Errorf("err = %v, want SOAP fault", err)
		}
	})
}

// TestSOAPFaultOnOutOfRangeAttach: the envelope's block size reaches the same
// range check as the binary ATTACH — a block past one wire frame is a fault,
// and no buffer is made.
func TestSOAPFaultOnOutOfRangeAttach(t *testing.T) {
	r := newRig(simnet.LinkSpec{})
	r.v.Run(func() {
		r.start(t)
		_, err := NewBufferWriter(r.v, r.net.Host("w"), "svc:8000", "huge", gridbuffer.Options{BlockSize: 1 << 30})
		if err == nil || !strings.Contains(err.Error(), "fault") {
			t.Errorf("err = %v, want SOAP fault", err)
		}
		if _, ok := r.reg.Lookup("huge"); ok {
			t.Error("an attach out of range created its buffer")
		}
	})
}

func TestSOAPRejectsWrongPathAndMethod(t *testing.T) {
	r := newRig(simnet.LinkSpec{})
	r.v.Run(func() {
		r.start(t)
		payload, _ := Marshal(Body{Attach: &AttachReq{Key: "k", Role: "writer"}})
		if _, err := Post(r.net.Host("w"), "svc:8000", "/wrong", payload); err == nil {
			t.Error("wrong path accepted")
		}
		// Raw GET is rejected.
		conn, err := r.net.Host("w").Dial("svc:8000")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		io.WriteString(conn, "GET / HTTP/1.1\r\n\r\n")
		resp, _ := io.ReadAll(conn)
		if !strings.Contains(string(resp), "405") {
			t.Errorf("GET response: %q", resp)
		}
	})
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
			done := simclock.NewWaitGroup(r.v)
			done.Add(1)
			r.v.Go("reader", func() {
				defer done.Done()
				rd, _ := NewBufferReader(r.v, r.net.Host("r"), "svc:8000", "k", gridbuffer.Options{})
				defer rd.Close()
				io.Copy(io.Discard, rd)
			})
			w, _ := NewBufferWriter(r.v, r.net.Host("w"), "svc:8000", "k", gridbuffer.Options{})
			w.Write(make([]byte, total))
			w.Close()
			done.Wait()
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
		ok := true
		r.v.Run(func() {
			l, err := r.net.Host("svc").Listen("svc:8000")
			if err != nil {
				ok = false
				return
			}
			r.v.Go("serve", func() { ServeBuffer(r.v, r.reg).Serve(l) })
			opts := gridbuffer.Options{BlockSize: bs}
			var got []byte
			done := simclock.NewWaitGroup(r.v)
			done.Add(1)
			r.v.Go("reader", func() {
				defer done.Done()
				rd, err := NewBufferReader(r.v, r.net.Host("r"), "svc:8000", "k", opts)
				if err != nil {
					ok = false
					return
				}
				defer rd.Close()
				got, _ = io.ReadAll(rd)
			})
			w, err := NewBufferWriter(r.v, r.net.Host("w"), "svc:8000", "k", opts)
			if err != nil {
				ok = false
				return
			}
			if _, err := w.Write(want); err != nil {
				ok = false
				return
			}
			if err := w.Close(); err != nil {
				ok = false
				return
			}
			done.Wait()
			ok = ok && bytes.Equal(got, want)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
