package gridbuffer

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"griddles/internal/simclock"
	"griddles/internal/simnet"
)

// TestReconnectKeepsTheAckLoopsBuffers: reconnect closes the writer's stream
// while its ack loop, on another goroutine, is blocked in Await on it. That
// stream is not a one-shot exchange, so Close leaves its buffers with it:
// the old loop ends on a transport error, and the closed stream still reads
// through its own buffers, not ones a connection-per-call writer running
// beside it meanwhile took from the same pool. Run it under -race.
func TestReconnectKeepsTheAckLoopsBuffers(t *testing.T) {
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, 3*DefaultBlockSize)
	rand.New(rand.NewSource(36)).Read(want)
	b.v.Run(func() {
		b.start(t)
		var got []byte
		done := simclock.NewWaitGroup(b.v)
		done.Add(2)
		b.v.Go("reader", func() {
			defer done.Done()
			r, err := NewReader(b.net.Host("r"), b.addr, b.v, "k", Options{}, ReaderOptions{})
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			defer r.Close()
			if got, err = io.ReadAll(r); err != nil {
				t.Errorf("readall: %v", err)
			}
		})
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{}, WriterOptions{Retry: bPolicy(b.v)})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		if _, err := w.Write(want[:DefaultBlockSize]); err != nil {
			t.Fatal(err)
		}
		b.v.Sleep(100 * time.Millisecond) // acknowledged: the ack loop waits in Await
		old, oldDone := w.s, w.done

		b.v.Go("per-call", func() {
			defer done.Done()
			pw, err := NewWriter(b.net.Host("w"), b.addr, b.v, "per-call", Options{}, WriterOptions{ConnPerCall: true})
			if err != nil {
				t.Errorf("per-call writer: %v", err)
				return
			}
			pw.Write(want)
			if err := pw.Close(); err != nil {
				t.Errorf("per-call close: %v", err)
			}
		})
		w.setBroken()
		if _, err := w.Write(want[DefaultBlockSize:]); err != nil { // reconnects first
			t.Fatal(err)
		}
		oldDone.Wait() // the old loop saw its stream closed under it
		if w.s == old {
			t.Fatal("the writer did not reconnect")
		}
		if _, _, err := old.Await(); err == nil {
			t.Error("the closed stream read a frame")
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		done.Wait()
		if !bytes.Equal(got, want) {
			t.Fatalf("reader got %d bytes, want %d", len(got), len(want))
		}
	})
}

// TestPinnedBlockIsNotRecycled: the service frames a resident block outside
// the shard lock while it holds it pinned. Each way a block leaves the table
// runs here while one is pinned: an overwriting replayed Put of the same
// index, the last expected reader's AckBelow or Detach, and Drop. A burst of
// new Puts afterwards must not be handed the pinned block's memory, and the
// bytes a framer would send must still be the original ones. Run it under
// -race.
func TestPinnedBlockIsNotRecycled(t *testing.T) {
	const bs = 512
	orig := bytes.Repeat([]byte{0xAA}, bs)
	cases := []struct {
		name    string
		readers int
		// leave runs the recycle path on a, where block 0 is pinned, and
		// returns the buffer that takes the burst (one sharing a's pool).
		leave func(t *testing.T, reg *Registry, a *Buffer, ids []int) *Buffer
	}{
		{"replayed put", 1, func(t *testing.T, _ *Registry, a *Buffer, _ []int) *Buffer {
			if err := a.Put(0, bytes.Repeat([]byte{0xBB}, bs)); err != nil {
				t.Fatal(err)
			}
			return a
		}},
		{"last reader's ack", 2, func(_ *testing.T, _ *Registry, a *Buffer, ids []int) *Buffer {
			for _, id := range ids {
				a.AckBelow(id, 1)
			}
			return a
		}},
		{"last reader's detach", 2, func(_ *testing.T, _ *Registry, a *Buffer, ids []int) *Buffer {
			for _, id := range ids {
				a.Detach(id)
			}
			return a
		}},
		{"drop", 1, func(t *testing.T, reg *Registry, _ *Buffer, _ []int) *Buffer {
			reg.Drop("a")
			return getOrCreate(t, reg, "c", Options{BlockSize: bs, Capacity: 1024})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry(simclock.Real{}, nil)
			a := getOrCreate(t, reg, "a", Options{BlockSize: bs, Capacity: 1024, Readers: tc.readers})
			ids := make([]int, tc.readers)
			for i := range ids {
				ids[i] = a.Attach()
			}
			if err := a.Put(0, orig); err != nil {
				t.Fatal(err)
			}
			blk, framed, _, err := a.pin(ids[0], 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(framed, orig) {
				t.Fatal("the pinned block does not hold what was put")
			}
			burst := tc.leave(t, reg, a, ids)
			for i := int64(1); i <= 64; i++ {
				if err := burst.Put(i, bytes.Repeat([]byte{byte(i)}, bs)); err != nil {
					t.Fatal(err)
				}
			}
			for i := range burst.shards {
				for idx, other := range burst.shards[i].blocks {
					if &other.data[0] == &blk.data[0] {
						t.Errorf("block %d was handed the pinned block's memory", idx)
					}
				}
			}
			if !bytes.Equal(framed, orig) {
				t.Error("the pinned block's bytes changed before it was released")
			}
			a.release(blk)
			if n := blk.refs.Load(); n != 0 {
				t.Errorf("%d holds left on the block after its last release", n)
			}
		})
	}
}

// TestPinnedBlocksUnderConcurrentReaders: two broadcast readers frame
// pinned blocks while the writer puts, replays every block once more (an
// overwrite while a reader may hold the old copy pinned) and the readers'
// acknowledgements recycle what both have read. Every pinned block must
// hold exactly what was put at its index. Run it under -race.
func TestPinnedBlocksUnderConcurrentReaders(t *testing.T) {
	const bs, n = 256, 2000
	buf := NewBuffer(simclock.Real{}, "k", Options{BlockSize: bs, Capacity: 16, Readers: 2})
	content := func(idx int64) []byte { return bytes.Repeat([]byte{byte(idx), byte(idx >> 8)}, bs/2) }
	ids := []int{buf.Attach(), buf.Attach()}
	var wg sync.WaitGroup
	wg.Add(len(ids))
	for _, id := range ids {
		go func() {
			defer wg.Done()
			for idx := int64(0); idx < n; idx++ {
				blk, data, _, err := buf.pin(id, idx, false)
				if err != nil {
					t.Errorf("reader %d, block %d: %v", id, idx, err)
					return
				}
				if !bytes.Equal(data, content(idx)) {
					t.Errorf("reader %d framed the wrong bytes for block %d", id, idx)
				}
				buf.release(blk)
				buf.AckBelow(id, idx+1)
			}
		}()
	}
	for idx := int64(0); idx < n; idx++ {
		for range 2 {
			if err := buf.Put(idx, content(idx)); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	buf.Drop()
}
