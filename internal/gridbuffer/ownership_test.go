package gridbuffer

import (
	"bytes"
	"io"
	"math/rand"
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
