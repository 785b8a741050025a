package simnet

import (
	"io"
	"net"
	"os"
	"sync"
	"time"

	"griddles/internal/simclock"
)

// Conn is one endpoint of a simulated connection. It implements net.Conn.
type Conn struct {
	clock  simclock.Clock
	local  Addr
	remote Addr
	r      *stream // data flowing toward this endpoint
	w      *stream // data flowing away from this endpoint

	mu            sync.Mutex
	closed        bool
	readDeadline  time.Time
	writeDeadline time.Time
}

// Read implements net.Conn. It blocks (in simulated time) until data that
// has propagated across the link is available, EOF, or the read deadline.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	dl := c.readDeadline
	c.mu.Unlock()
	return c.r.read(p, dl)
}

// Write implements net.Conn. Writes larger than the link chunk size are
// split; each chunk consumes window space, pays link serialization time and
// becomes readable one propagation delay later. A blocked writer (the peer
// stopped reading, or the link is dropping traffic) fails with
// os.ErrDeadlineExceeded once the write deadline passes.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	dl := c.writeDeadline
	c.mu.Unlock()
	return c.w.write(p, dl)
}

// Close implements net.Conn. The peer reads any already-sent data and then
// EOF.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.w.closeWrite(nil)
	c.r.closeRead()
	return nil
}

// CloseWrite half-closes the connection: the peer sees EOF after draining,
// but this endpoint can keep reading.
func (c *Conn) CloseWrite() error {
	c.w.closeWrite(nil)
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn for both directions.
func (c *Conn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	c.SetWriteDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn. A writer blocked on window space
// (the in-flight bytes the peer has not consumed) fails with
// os.ErrDeadlineExceeded when the deadline passes — without it a peer that
// stops reading, or a blackholed link, stalls the writer forever.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return nil
}

// segment is a chunk of bytes that becomes readable at ready. Its bytes are
// a recycled maxChunk array, returned when the reader drains it.
type segment struct {
	buf   *[maxChunk]byte
	data  []byte // the unread part of buf
	ready time.Time
}

var chunks = sync.Pool{New: func() any { return new([maxChunk]byte) }}

// stream is one direction of a connection: a bounded FIFO of segments with
// propagation delay. The window counts bytes written but not yet consumed by
// the reader, which is what gives request/response protocols their latency
// sensitivity and bulk transfers their backpressure.
type stream struct {
	clock simclock.Clock
	link  *link
	peer  *stream // opposite direction of the same connection (reset pairing)

	mu       sync.Mutex
	rcond    simclock.Cond // readers wait for data
	wcond    simclock.Cond // writers wait for window space
	segs     []segment     // the FIFO is segs[head:]; the backing array is kept
	head     int
	buffered int
	window   int
	wclosed  bool
	rclosed  bool
	err      error
}

func newStream(clock simclock.Clock, l *link, window int) *stream {
	s := &stream{clock: clock, link: l, window: window}
	s.rcond = clock.NewCond(&s.mu)
	s.wcond = clock.NewCond(&s.mu)
	l.register(s)
	return s
}

func (s *stream) write(p []byte, deadline time.Time) (int, error) {
	total := 0
	for len(p) > 0 {
		chunk := len(p)
		if chunk > maxChunk {
			chunk = maxChunk
		}
		if chunk > s.window {
			chunk = s.window
		}

		// Reserve window space.
		s.mu.Lock()
		for s.buffered+chunk > s.window && !s.wclosed && !s.rclosed {
			if deadline.IsZero() {
				s.wcond.Wait()
				continue
			}
			wait := deadline.Sub(s.clock.Now())
			if wait <= 0 || !s.wcond.WaitTimeout(wait) {
				if s.buffered+chunk <= s.window || s.wclosed || s.rclosed {
					break
				}
				s.mu.Unlock()
				return total, os.ErrDeadlineExceeded
			}
		}
		if s.wclosed {
			err := s.err
			s.mu.Unlock()
			if err != nil {
				return total, err
			}
			return total, net.ErrClosed
		}
		if s.rclosed {
			s.mu.Unlock()
			return total, io.ErrClosedPipe
		}
		s.buffered += chunk
		s.mu.Unlock()

		// Injected faults: a byte-count-armed reset kills the connection
		// here; a blackholed link swallows the chunk after charging it to
		// the window, which is what starves the peer and stalls this writer.
		drop, extra, reset := s.link.noteWrite(chunk)
		if reset {
			s.resetPair(ErrConnReset)
			return total, ErrConnReset
		}

		// Pay serialization on the shared link, outside the stream lock.
		if bw := s.link.spec.Bandwidth; bw > 0 {
			s.link.xmit.Lock()
			s.clock.Sleep(time.Duration(int64(chunk) * int64(time.Second) / bw))
			s.link.xmit.Unlock()
		}

		if !drop {
			// Deliver after propagation delay (plus any injected spike).
			buf := chunks.Get().(*[maxChunk]byte)
			data := buf[:copy(buf[:], p[:chunk])]
			s.mu.Lock()
			if s.wclosed { // reset raced with this chunk; surface its error
				err := s.err
				s.mu.Unlock()
				chunks.Put(buf)
				if err == nil {
					err = net.ErrClosed
				}
				return total, err
			}
			s.pushLocked(segment{buf: buf, data: data, ready: s.clock.Now().Add(s.link.spec.Latency + extra)})
			s.rcond.Broadcast()
			s.mu.Unlock()
		}

		p = p[chunk:]
		total += chunk
	}
	return total, nil
}

func (s *stream) read(p []byte, deadline time.Time) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.rclosed {
			return 0, net.ErrClosed
		}
		if s.head < len(s.segs) {
			wait := s.segs[s.head].ready.Sub(s.clock.Now())
			if wait <= 0 {
				break
			}
			if !deadline.IsZero() {
				if dwait := deadline.Sub(s.clock.Now()); dwait < wait {
					if dwait <= 0 || !s.rcond.WaitTimeout(dwait) {
						return 0, os.ErrDeadlineExceeded
					}
					continue
				}
			}
			s.rcond.WaitTimeout(wait)
			continue
		}
		if s.wclosed {
			if s.err != nil {
				return 0, s.err
			}
			return 0, io.EOF
		}
		if !deadline.IsZero() {
			dwait := deadline.Sub(s.clock.Now())
			if dwait <= 0 || !s.rcond.WaitTimeout(dwait) {
				return 0, os.ErrDeadlineExceeded
			}
			continue
		}
		s.rcond.Wait()
	}

	// Drain as much ready data as fits.
	n := 0
	now := s.clock.Now()
	for n < len(p) && s.head < len(s.segs) && !s.segs[s.head].ready.After(now) {
		seg := &s.segs[s.head]
		c := copy(p[n:], seg.data)
		n += c
		if c == len(seg.data) {
			s.popLocked()
		} else {
			seg.data = seg.data[c:]
		}
	}
	s.buffered -= n
	s.wcond.Broadcast()
	return n, nil
}

// pushLocked appends seg to the FIFO. An append that would grow a backing
// array whose front has been drained moves the queue down instead.
func (s *stream) pushLocked(seg segment) {
	if s.head > 0 && len(s.segs) == cap(s.segs) {
		n := copy(s.segs, s.segs[s.head:])
		clear(s.segs[n:])
		s.segs, s.head = s.segs[:n], 0
	}
	s.segs = append(s.segs, seg)
}

// popLocked drops the front segment and recycles its bytes.
func (s *stream) popLocked() {
	chunks.Put(s.segs[s.head].buf)
	s.segs[s.head] = segment{}
	if s.head++; s.head == len(s.segs) {
		s.segs, s.head = s.segs[:0], 0
	}
}

// closeWrite marks the writer side done; readers drain then see EOF (or err
// if non-nil).
func (s *stream) closeWrite(err error) {
	s.mu.Lock()
	if !s.wclosed {
		s.wclosed = true
		s.err = err
		s.rcond.Broadcast()
		s.wcond.Broadcast()
	}
	s.mu.Unlock()
}

// closeRead aborts the reader side; pending and future writes fail.
func (s *stream) closeRead() {
	s.mu.Lock()
	if !s.rclosed {
		s.rclosed = true
		s.rcond.Broadcast()
		s.wcond.Broadcast()
	}
	s.mu.Unlock()
}

// reset kills this direction like a TCP RST: in-flight data is discarded
// (not delivered-then-failed) and blocked readers and writers fail with err.
func (s *stream) reset(err error) {
	s.mu.Lock()
	if !s.wclosed || s.err == nil {
		s.wclosed = true
		if s.err == nil {
			s.err = err
		}
		for s.head < len(s.segs) {
			s.popLocked()
		}
		s.buffered = 0
		s.rcond.Broadcast()
		s.wcond.Broadcast()
	}
	s.mu.Unlock()
}

// resetPair resets both directions of the connection this stream belongs to.
func (s *stream) resetPair(err error) {
	s.reset(err)
	if s.peer != nil {
		s.peer.reset(err)
	}
}

// dead reports whether both sides of the stream are finished (prunable from
// the link's registry).
func (s *stream) dead() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wclosed && s.rclosed
}
