package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"griddles/internal/fault"
	"griddles/internal/objstore"
	"griddles/internal/obs"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
)

// rawRig is one objstoreRaw handle over a real objstore server on simnet,
// with the bytes its dialer moved and its GETs counted.
type rawRig struct {
	v     *simclock.Virtual
	net   *simnet.Network
	obs   *obs.Observer
	c     *objstore.Client
	moved atomic.Int64 // bytes read and written on every dialed connection
}

type meteredConn struct {
	net.Conn
	n *atomic.Int64
}

func (c meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

type meteredDialer struct {
	inner *simnet.Host
	n     *atomic.Int64
}

func (d meteredDialer) Dial(addr string) (net.Conn, error) {
	conn, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return meteredConn{conn, d.n}, nil
}

type loopbackDialer struct{}

func (loopbackDialer) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// withRaw runs fn inside a fresh world holding object under "k", handing it
// a read handle built the way objstoreBackend.Open builds one.
func withRaw(t *testing.T, object []byte, fn func(r *rawRig, f *objstoreRaw)) {
	t.Helper()
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: 100 * time.Microsecond})
	r := &rawRig{v: v, net: n, obs: obs.New(v)}
	store := objstore.NewStore()
	store.PutBytes("k", object)
	v.Run(func() {
		l, err := n.Host("srv").Listen("srv:7100")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer l.Close()
		v.Go("objstore-serve", func() { objstore.NewServer(store, v).Serve(l) })
		r.c = objstore.NewClient(meteredDialer{n.Host("app"), &r.moved}, "srv:7100", v)
		r.c.SetObserver(r.obs)
		defer r.c.Close()
		fn(r, &objstoreRaw{client: r.c, key: "k", size: int64(len(object))})
	})
}

func (r *rawRig) gets() int64 { return r.obs.Snapshot().Counters["objstore.get.total"] }

// TestObjstoreReadAheadProperty: whatever the window does, a handle reads
// what a bytes.Reader over the same object reads. Ninety seeded scripts of
// random reads and seeks over objects sized around every edge of the window
// (empty, one byte, the 64 KiB floor ± 1, the cap ± 1, and 1 MiB + 3); a third
// of them lose a connection in the middle of a refill, under the zero retry
// policy: that read fails, and a seek back into the window the failed refill
// was overwriting must still return the object's bytes, not the array's.
func TestObjstoreReadAheadProperty(t *testing.T) {
	sizes := []int{0, 1, rpc.WindowMin - 1, rpc.WindowMin, rpc.WindowMin + 1,
		rpc.WindowMax - 1, rpc.WindowMax, rpc.WindowMax + 1, 1<<20 + 3}
	lengths := []int{1, 100, 4096, rpc.WindowMin, rpc.WindowMin + 1, 300_000}
	for seed := 0; seed < 90; seed++ {
		size := sizes[seed%len(sizes)]
		faulty := seed/len(sizes)%3 == 2
		t.Run(fmt.Sprintf("seed%d-size%d-faulty=%v", seed, size, faulty), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			object := make([]byte, size)
			rng.Read(object)
			model := bytes.NewReader(object)
			withRaw(t, object, func(r *rawRig, f *objstoreRaw) {
				// step makes the same call on the handle and on the model.
				read := func(n int) error {
					got, want := make([]byte, n), make([]byte, n)
					gn, gerr := io.ReadFull(f, got)
					wn, werr := io.ReadFull(model, want)
					if gerr != nil && gerr != io.EOF && gerr != io.ErrUnexpectedEOF {
						return gerr // a transport failure: the caller decides
					}
					if gn != wn || gerr != werr || !bytes.Equal(got[:gn], want[:wn]) {
						t.Fatalf("read(%d) at %d = %d, %v; the model says %d, %v (bytes equal: %v)",
							n, f.pos-int64(gn), gn, gerr, wn, werr, bytes.Equal(got[:gn], want[:wn]))
					}
					return nil
				}
				seek := func(off int64, whence int) {
					gp, gerr := f.Seek(off, whence)
					wp, werr := model.Seek(off, whence)
					if (gerr != nil) != (werr != nil) || (gerr == nil && gp != wp) {
						t.Fatalf("seek(%d, %d) = %d, %v; the model says %d, %v", off, whence, gp, gerr, wp, werr)
					}
				}
				script := func(steps int) {
					for i := 0; i < steps; i++ {
						switch rng.Intn(4) {
						case 0:
							seek(rng.Int63n(int64(size)+20)-10, io.SeekStart)
						case 1:
							seek(rng.Int63n(200_000)-100_000, io.SeekCurrent)
						case 2:
							seek(-rng.Int63n(int64(size)+20)+10, io.SeekEnd)
						}
						if err := read(lengths[rng.Intn(len(lengths))]); err != nil {
							t.Fatalf("read failed with no fault armed: %v", err)
						}
					}
				}
				script(20)
				if faulty {
					// Scan from the start until the window stops growing, so the
					// refill that fails is as large as refills get.
					seek(0, io.SeekStart)
					for f.pos < f.size && (f.ahead < rpc.WindowMax || f.pos < f.bufOff+int64(len(f.buf))) {
						if err := read(rpc.WindowMin); err != nil {
							t.Fatalf("scan: %v", err)
						}
					}
					prevOff, prevLen := f.bufOff, int64(len(f.buf))
					// Cut the server's side somewhere inside the next GET: far
					// enough in, when the object allows, that whole data frames
					// have already landed in the window's array.
					cut := 1 + rng.Int63n(max(f.size-f.pos, 1))
					if f.size-f.pos > 200_000 {
						cut = 110_000 + rng.Int63n(80_000)
					}
					(&fault.Schedule{Clock: r.v, Net: r.net, Actions: []fault.Action{
						{Kind: fault.FailAfter, From: "srv", To: "app", Bytes: cut},
					}}).Start().Wait()
					pos := f.pos
					if err := read(rpc.WindowMin); err != nil {
						if f.pos != pos {
							t.Fatalf("a failed read moved the position from %d to %d", pos, f.pos)
						}
						model.Seek(pos, io.SeekStart)
						if prevLen > 0 {
							seek(prevOff+rng.Int63n(prevLen), io.SeekStart)
							if err := read(1000); err != nil {
								t.Fatalf("read back in the previous window after a failed refill: %v", err)
							}
						}
					} else if f.size-pos > 200_000 {
						t.Fatalf("a reset %d bytes into a %d-byte refill went unnoticed", cut, f.size-pos)
					}
					r.net.FailAfter("srv", "app", 0) // disarm what a short object never tripped
					script(20)
				}
			})
		})
	}
}

// TestObjstoreReadAheadCost pins what the window costs: a sequential scan
// grows it to the cap, a refill at the cap reuses the window's array, and
// random access never asks for more than the floor.
func TestObjstoreReadAheadCost(t *testing.T) {
	const total = 16 << 20
	object := make([]byte, total)
	rand.New(rand.NewSource(1)).Read(object)
	call := make([]byte, rpc.WindowMin)

	withRaw(t, object, func(r *rawRig, f *objstoreRaw) {
		var n int64
		for {
			c, err := f.Read(call)
			if !bytes.Equal(call[:c], object[n:n+int64(c)]) {
				t.Fatalf("bytes at %d differ", n)
			}
			n += int64(c)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		// 64 + 128 KiB, then 256 KiB at a time: 66 GETs, where a fixed 64 KiB
		// window made 256.
		if gets := r.gets(); n != total || gets > 70 {
			t.Fatalf("read %d bytes in %d GETs, want %d bytes in at most 70", n, gets, total)
		}
	})

	// Allocation is measured over loopback TCP: simnet copies every segment it
	// carries, which would drown what the handle itself allocates.
	t.Run("refill-at-the-cap-allocates-nothing-window-sized", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		store := objstore.NewStore()
		store.Put("k", object)
		go objstore.NewServer(store, simclock.Real{}).Serve(l)
		c := objstore.NewClient(loopbackDialer{}, l.Addr().String(), simclock.Real{})
		defer c.Close()
		f := &objstoreRaw{client: c, key: "k", size: total}
		for f.ahead < rpc.WindowMax {
			if _, err := f.Read(call); err != nil {
				t.Fatal(err)
			}
		}
		// Eight refills at the cap, both ends of each in this process; the
		// cheapest one is free of whatever a GC in between made a pool refill.
		least := uint64(1 << 62)
		for i := 0; i < 8; i++ {
			if _, err := f.Seek(f.bufOff+int64(len(f.buf)), io.SeekStart); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := f.Read(call); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if len(f.buf) != rpc.WindowMax {
				t.Fatalf("refill %d fetched %d bytes, want the cap", i, len(f.buf))
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 4096 {
			t.Fatalf("a refill at the cap allocated %d bytes, want under 4 KiB", least)
		}
	})

	// Random access: every miss moves the floor, as a fixed 64 KiB window did,
	// and no longer pays for a connection.
	withRaw(t, object, func(r *rawRig, f *objstoreRaw) {
		rng := rand.New(rand.NewSource(2))
		small := make([]byte, 4096)
		for i := 0; i < 64; i++ {
			off := rng.Int63n(total - 4096)
			if _, err := f.Seek(off, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(f, small); err != nil || !bytes.Equal(small, object[off:off+4096]) {
				t.Fatalf("read at %d: %v", off, err)
			}
		}
		// What the fixed 64 KiB window moved for the same script, measured at
		// the parent commit with this dialer.
		const parentMoved = 4_148_241
		if moved := r.moved.Load(); moved > parentMoved {
			t.Fatalf("64 random 4 KiB reads moved %d bytes at the dialer, the fixed window moved %d", moved, parentMoved)
		}
	})
}
