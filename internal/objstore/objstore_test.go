package objstore

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"time"

	"griddles/internal/retry"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
)

// rig is a server on host "srv" plus a client on host "app".
type rig struct {
	v      *simclock.Virtual
	net    *simnet.Network
	store  *Store
	client *Client
}

func newRig() *rig {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: time.Millisecond})
	return &rig{v: v, net: n, store: NewStore(), client: NewClient(n.Host("app"), "srv:7100", v)}
}

// start must be called inside v.Run.
func (r *rig) start(t *testing.T) {
	t.Helper()
	l, err := r.net.Host("srv").Listen("srv:7100")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(r.store, r.v)
	r.v.Go("objstore-serve", func() { srv.Serve(l) })
}

func payload(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestStoreSemantics(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("a"); ok {
		t.Fatal("empty store reported an object")
	}
	s.PutBytes("dir/a", []byte("first"))
	s.PutBytes("dir/b", []byte("second!"))
	s.PutBytes("other", []byte("x"))
	if size, ok := s.Stat("dir/b"); !ok || size != 7 {
		t.Fatalf("stat dir/b = %d,%v", size, ok)
	}
	// Replace is whole-object and atomic from the API's point of view.
	s.PutBytes("dir/a", []byte("replaced"))
	if b, _ := s.Get("dir/a"); string(b) != "replaced" {
		t.Fatalf("replace left %q", b)
	}
	got := s.List("dir/")
	if len(got) != 2 || got[0].Key != "dir/a" || got[1].Key != "dir/b" || got[0].Size != 8 {
		t.Fatalf("list dir/ = %+v", got)
	}
	if all := s.List(""); len(all) != 3 {
		t.Fatalf("list \"\" = %+v", all)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestClientStatGetList(t *testing.T) {
	r := newRig()
	want := payload(1, 200_000)
	r.store.PutBytes("data/obj", want)
	r.store.PutBytes("data/other", []byte("tiny"))
	r.v.Run(func() {
		r.start(t)
		size, exists, err := r.client.Stat("data/obj")
		if err != nil || !exists || size != int64(len(want)) {
			t.Fatalf("stat = %d,%v,%v", size, exists, err)
		}
		if _, exists, err = r.client.Stat("missing"); err != nil || exists {
			t.Fatalf("missing stat = %v,%v", exists, err)
		}

		// Whole-object GET.
		var buf bytes.Buffer
		n, sz, err := r.client.Get("data/obj", 0, -1, &buf)
		if err != nil || n != int64(len(want)) || sz != int64(len(want)) {
			t.Fatalf("get = %d,%d,%v", n, sz, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatal("get returned wrong bytes")
		}

		// Ranged GET.
		buf.Reset()
		n, sz, err = r.client.Get("data/obj", 100_000, 1234, &buf)
		if err != nil || n != 1234 || sz != int64(len(want)) {
			t.Fatalf("ranged get = %d,%d,%v", n, sz, err)
		}
		if !bytes.Equal(buf.Bytes(), want[100_000:101_234]) {
			t.Fatal("ranged get returned wrong bytes")
		}

		// Range past EOF clamps.
		buf.Reset()
		n, _, err = r.client.Get("data/obj", int64(len(want))-10, 100, &buf)
		if err != nil || n != 10 {
			t.Fatalf("tail get = %d,%v", n, err)
		}

		// Missing object is a server-reported (permanent) error.
		if _, _, err := r.client.Get("missing", 0, -1, io.Discard); err == nil {
			t.Fatal("get of missing object succeeded")
		}

		metas, err := r.client.List("data/")
		if err != nil || len(metas) != 2 || metas[0].Key != "data/obj" || metas[1].Key != "data/other" {
			t.Fatalf("list = %+v, %v", metas, err)
		}
	})
}

func TestClientPutCommitsAtomically(t *testing.T) {
	r := newRig()
	want := payload(2, 150_000)
	r.v.Run(func() {
		r.start(t)
		n, err := r.client.Put("out/obj", bytes.NewReader(want))
		if err != nil || n != int64(len(want)) {
			t.Fatalf("put = %d,%v", n, err)
		}
		got, ok := r.store.Get("out/obj")
		if !ok || !bytes.Equal(got, want) {
			t.Fatal("committed object does not match upload")
		}
		// Replace with a new complete body.
		n, err = r.client.Put("out/obj", bytes.NewReader([]byte("v2")))
		if err != nil || n != 2 {
			t.Fatalf("replace = %d,%v", n, err)
		}
		if got, _ := r.store.Get("out/obj"); string(got) != "v2" {
			t.Fatalf("replace left %q", got)
		}
		// An empty object is legal.
		if n, err := r.client.Put("out/empty", bytes.NewReader(nil)); err != nil || n != 0 {
			t.Fatalf("empty put = %d,%v", n, err)
		}
		if _, ok := r.store.Get("out/empty"); !ok {
			t.Fatal("empty object not committed")
		}
		// An empty key is rejected by the server, and the error comes back.
		if _, err := r.client.Put("", bytes.NewReader([]byte("x"))); err == nil {
			t.Fatal("empty-key put succeeded")
		}
	})
}

// TestGetResumesAfterReset breaks the link mid-stream and verifies the
// retrying client delivers each byte exactly once.
func TestGetResumesAfterReset(t *testing.T) {
	r := newRig()
	want := payload(3, 400_000)
	r.store.PutBytes("big", want)
	r.client.SetRetry(retry.Policy{Clock: r.v, MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond, AttemptTimeout: time.Second})
	r.v.Run(func() {
		r.start(t)
		r.net.FailAfter("srv", "app", 150_000)
		var buf bytes.Buffer
		n, sz, err := r.client.Get("big", 0, -1, &buf)
		if err != nil {
			t.Fatalf("get after reset: %v", err)
		}
		if n != int64(len(want)) || sz != int64(len(want)) {
			t.Fatalf("get = %d,%d", n, sz)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatal("resumed get corrupted the stream")
		}
	})
}

// TestPutReplaysAfterReset breaks the upload path and verifies the seekable
// replay commits the object exactly once, complete.
func TestPutReplaysAfterReset(t *testing.T) {
	r := newRig()
	want := payload(4, 300_000)
	r.client.SetRetry(retry.Policy{Clock: r.v, MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond, AttemptTimeout: time.Second})
	r.v.Run(func() {
		r.start(t)
		r.net.FailAfter("app", "srv", 100_000)
		n, err := r.client.Put("big", bytes.NewReader(want))
		if err != nil {
			t.Fatalf("put after reset: %v", err)
		}
		if n != int64(len(want)) {
			t.Fatalf("put = %d", n)
		}
		got, ok := r.store.Get("big")
		if !ok || !bytes.Equal(got, want) {
			t.Fatal("replayed put did not commit the complete object")
		}
	})
}

func TestCodecRejectsCorruptPayloads(t *testing.T) {
	if _, err := decodeGetReq([]byte{0x00}); err == nil {
		t.Error("truncated get request decoded")
	}
	if _, err := decodeGetReq(getReq{Key: "k", Off: -1, Length: 2}.encode()); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := decodeGetHdr(getHdr{Total: 10, Size: 5}.encode()); err == nil {
		t.Error("header with total > size accepted")
	}
	if _, err := decodePutBegin(putBegin{Key: ""}.encode()); err == nil {
		t.Error("empty put key accepted")
	}
	if _, err := decodeListResp([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("oversized list count accepted")
	}
}

// TestBodyCollectsPieces: a body written in one piece is handed over as the
// one exact allocation it took, and one written in many small pieces comes
// back joined, byte for byte, from chunks of at least a data frame each.
func TestBodyCollectsPieces(t *testing.T) {
	whole := payload(1, 16<<10)
	var one Body
	one.Write(whole)
	if got := one.Bytes(); !bytes.Equal(got, whole) || cap(got) != len(whole) || &got[0] == &whole[0] {
		t.Fatalf("one piece: %d bytes, cap %d, aliasing the caller's slice: %v", len(got), cap(got), &got[0] == &whole[0])
	}
	want := payload(2, 3*streamChunk+777)
	var many Body
	for off := 0; off < len(want); off += 1000 {
		many.Write(want[off:min(off+1000, len(want))])
	}
	if got := many.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("many pieces: %d bytes joined, want %d", len(got), len(want))
	}
	if n := len(many.chunks); n > 5 {
		t.Fatalf("%d chunks for %d bytes written 1000 at a time, want about one per data frame", n, len(want))
	}
	if got := (&Body{}).Bytes(); len(got) != 0 {
		t.Fatalf("empty body = %d bytes", len(got))
	}
}
