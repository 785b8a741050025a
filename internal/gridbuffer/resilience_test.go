package gridbuffer

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

// bPolicy is a fast-recovering policy for the buffer resilience tests.
func bPolicy(v *simclock.Virtual) retry.Policy {
	p := retry.Default(v)
	p.MaxAttempts = 6
	p.BaseDelay = 10 * time.Millisecond
	p.AttemptTimeout = 500 * time.Millisecond
	return p
}

// pump writes want through w in odd-sized chunks and closes it.
func pump(t *testing.T, w *Writer, want []byte) {
	t.Helper()
	for off := 0; off < len(want); off += 7919 {
		end := off + 7919
		if end > len(want) {
			end = len(want)
		}
		if _, err := w.Write(want[off:end]); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestWriterReplaysAfterReset(t *testing.T) {
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, 120_000)
	rand.New(rand.NewSource(21)).Read(want)
	b.v.Run(func() {
		b.start(t)
		// Kill the writer's connection mid-stream: the unacked window must
		// replay so the reader still sees every byte exactly once.
		b.net.FailAfter("w", "buf", 40_000)
		var got []byte
		done := simclock.NewWaitGroup(b.v)
		done.Add(1)
		b.v.Go("reader", func() {
			defer done.Done()
			r, err := NewReader(b.net.Host("r"), b.addr, b.v, "k", Options{}, ReaderOptions{})
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			defer r.Close()
			got, err = io.ReadAll(r)
			if err != nil {
				t.Errorf("readall: %v", err)
			}
		})
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{},
			WriterOptions{Retry: bPolicy(b.v)})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		pump(t, w, want)
		done.Wait()
		if !bytes.Equal(got, want) {
			t.Fatalf("stream corrupted through writer reset: got %d bytes want %d", len(got), len(want))
		}
	})
}

func TestWriterReplaysAfterAckLoss(t *testing.T) {
	// Reset the ack direction (buf -> w) instead of the data direction: the
	// writer may have blocks delivered-but-unacknowledged, and the replay of
	// those must be absorbed idempotently by the server.
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, 120_000)
	rand.New(rand.NewSource(22)).Read(want)
	b.v.Run(func() {
		b.start(t)
		b.net.FailAfter("buf", "w", 40)
		var got []byte
		done := simclock.NewWaitGroup(b.v)
		done.Add(1)
		b.v.Go("reader", func() {
			defer done.Done()
			r, err := NewReader(b.net.Host("r"), b.addr, b.v, "k", Options{}, ReaderOptions{})
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			defer r.Close()
			got, err = io.ReadAll(r)
			if err != nil {
				t.Errorf("readall: %v", err)
			}
		})
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{},
			WriterOptions{Retry: bPolicy(b.v)})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		pump(t, w, want)
		done.Wait()
		if !bytes.Equal(got, want) {
			t.Fatalf("stream corrupted through ack loss: got %d bytes want %d", len(got), len(want))
		}
	})
}

func TestReaderResumesAfterReset(t *testing.T) {
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, 120_000)
	rand.New(rand.NewSource(23)).Read(want)
	b.v.Run(func() {
		b.start(t)
		// Kill the response stream mid-transfer: unacknowledged blocks stayed
		// resident on the server, so the reconnected reader resumes at its
		// position with nothing lost.
		b.net.FailAfter("buf", "r", 40_000)
		var got []byte
		done := simclock.NewWaitGroup(b.v)
		done.Add(1)
		b.v.Go("reader", func() {
			defer done.Done()
			r, err := NewReader(b.net.Host("r"), b.addr, b.v, "k", Options{},
				ReaderOptions{Retry: bPolicy(b.v)})
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			defer r.Close()
			got, err = io.ReadAll(r)
			if err != nil {
				t.Errorf("readall: %v", err)
			}
		})
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{}, WriterOptions{})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		pump(t, w, want)
		done.Wait()
		if !bytes.Equal(got, want) {
			t.Fatalf("stream corrupted through reader reset: got %d bytes want %d", len(got), len(want))
		}
	})
}

func TestReaderRecoversFromBlackhole(t *testing.T) {
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, 60_000)
	rand.New(rand.NewSource(24)).Read(want)
	b.v.Run(func() {
		b.start(t)
		// Silence (not reset) the response stream for a while: only the read
		// deadline gets the reader out, and recovery is a reconnect after the
		// route heals.
		b.net.SetBlackhole("buf", "r", true)
		b.v.Go("healer", func() {
			b.v.Sleep(800 * time.Millisecond)
			b.net.SetBlackhole("buf", "r", false)
		})
		var got []byte
		done := simclock.NewWaitGroup(b.v)
		done.Add(1)
		b.v.Go("reader", func() {
			defer done.Done()
			r, err := NewReader(b.net.Host("r"), b.addr, b.v, "k", Options{},
				ReaderOptions{Retry: bPolicy(b.v)})
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			defer r.Close()
			got, err = io.ReadAll(r)
			if err != nil {
				t.Errorf("readall: %v", err)
			}
		})
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{}, WriterOptions{})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		pump(t, w, want)
		done.Wait()
		if !bytes.Equal(got, want) {
			t.Fatalf("stream corrupted through blackhole: got %d bytes want %d", len(got), len(want))
		}
	})
}

func TestConnPerCallWriterRetries(t *testing.T) {
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, 40_000)
	rand.New(rand.NewSource(25)).Read(want)
	b.v.Run(func() {
		b.start(t)
		var got []byte
		done := simclock.NewWaitGroup(b.v)
		done.Add(1)
		b.v.Go("reader", func() {
			defer done.Done()
			r, err := NewReader(b.net.Host("r"), b.addr, b.v, "k", Options{}, ReaderOptions{})
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			defer r.Close()
			got, err = io.ReadAll(r)
			if err != nil {
				t.Errorf("readall: %v", err)
			}
		})
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{},
			WriterOptions{ConnPerCall: true, Retry: bPolicy(b.v)})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		// Every call gets a fresh connection; kill one mid-request and the
		// whole request/response call retries.
		b.net.FailAfter("w", "buf", 10_000)
		pump(t, w, want)
		done.Wait()
		if !bytes.Equal(got, want) {
			t.Fatalf("stream corrupted in conn-per-call retry: got %d bytes want %d", len(got), len(want))
		}
	})
}

// TestConnPerCallReaderRetries: a connection-per-call reader fetches each
// block with a one-block windowed GET that acknowledges the blocks before it.
// A reset mid-answer costs nothing: with no cache file to fall back on, the
// block is still resident because nothing acknowledged it, and the retried
// call fetches it again.
func TestConnPerCallReaderRetries(t *testing.T) {
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, 40_000)
	rand.New(rand.NewSource(27)).Read(want)
	b.v.Run(func() {
		b.start(t)
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{}, WriterOptions{ConnPerCall: true})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		pump(t, w, want)
		r, err := NewReader(b.net.Host("r"), b.addr, b.v, "k", Options{}, ReaderOptions{ConnPerCall: true, Retry: bPolicy(b.v)})
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		b.net.FailAfter("buf", "r", 10_000)
		got, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d of %d bytes across a reset: %v", len(got), len(want), err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("detach: %v", err)
		}
	})
}

// TestIdleWriterKeepsItsConnection: a writer that goes quiet between blocks
// for three times its attempt timeout keeps the one connection it attached
// on. What bounds its wait for acknowledgements is the window, not a read
// deadline, so an application that is merely slow is not taken for a dead
// service — a write deadline armed in both directions would be, and would
// re-dial after every pause.
func TestIdleWriterKeepsItsConnection(t *testing.T) {
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	p := bPolicy(b.v)
	want := make([]byte, 3*DefaultBlockSize)
	rand.New(rand.NewSource(26)).Read(want)
	wd := &countingDialer{Dialer: b.net.Host("w")}
	b.v.Run(func() {
		b.start(t)
		var got []byte
		done := simclock.NewWaitGroup(b.v)
		done.Add(1)
		b.v.Go("reader", func() {
			defer done.Done()
			r, err := NewReader(b.net.Host("r"), b.addr, b.v, "k", Options{}, ReaderOptions{})
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			defer r.Close()
			got, err = io.ReadAll(r)
			if err != nil {
				t.Errorf("readall: %v", err)
			}
		})
		w, err := NewWriter(wd, b.addr, b.v, "k", Options{}, WriterOptions{Retry: p})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		for off := 0; off < len(want); off += DefaultBlockSize {
			if off > 0 {
				b.v.Sleep(3 * p.AttemptTimeout)
			}
			if _, err := w.Write(want[off : off+DefaultBlockSize]); err != nil {
				t.Fatalf("write at %d: %v", off, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		done.Wait()
		if !bytes.Equal(got, want) {
			t.Fatalf("reader got %d bytes, want %d", len(got), len(want))
		}
	})
	if n := len(wd.conns); n != 1 {
		t.Errorf("an idle writer dialed %d times, want 1", n)
	}
}

func TestWriterFailsFastWithoutPolicy(t *testing.T) {
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	b.v.Run(func() {
		b.start(t)
		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k", Options{}, WriterOptions{})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		b.net.FailAfter("w", "buf", 8_000)
		data := make([]byte, 120_000)
		_, werr := w.Write(data)
		if werr == nil {
			werr = w.Close()
		}
		if werr == nil {
			t.Fatal("writer with no retry policy survived a reset")
		}
	})
}
