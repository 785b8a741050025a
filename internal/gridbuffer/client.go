package gridbuffer

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Dialer opens connections to service addresses.
type Dialer = rpc.Dialer

// The default in-flight budgets are bytes, not blocks: what a pipe needs in
// flight depends on the path (bandwidth x delay), not on how the application
// happens to chunk its writes. The writer's unacknowledged window is the
// budget divided by the negotiated block size — 64 blocks at the paper's
// 4096-byte writes, 4 at 64 KiB — and the reader's prefetch depth likewise,
// with a floor of two blocks so a stream always overlaps one block's transfer
// with the next, and a ceiling of 256 so tiny blocks do not buy an unbounded
// replay window (or a GET window past what the service accepts). An explicit
// WriterOptions.Window or ReaderOptions.Depth is in blocks, as it always
// was; the experiment harness pins both at 2, the shallow request/response
// pipelining of the paper's 2004 Web-Services transport. (Window never was
// "the knob behind Table 5": those rows run connection-per-call, where the
// window is ignored. `go test -bench=AblationTransport` sweeps it against
// that discipline.)
const (
	DefaultWriterWindowBytes = 256 << 10
	DefaultReaderDepthBytes  = 128 << 10
)

// inFlightBlocks turns an explicit block count, or else a byte budget, into
// a window in blocks of blockSize.
func inFlightBlocks(explicit, budget, blockSize int) int {
	if explicit > 0 {
		return explicit
	}
	return min(max(budget/blockSize, 2), 256)
}

// wblock is one block the writer has sent but the server has not yet
// acknowledged. Acks arrive in send order, so the set is a FIFO; on
// reconnect the whole window replays (the server accepts replayed blocks
// idempotently). data is the partial block it was filled in, and once
// acknowledged it becomes a partial block again.
type wblock struct {
	idx  int64
	data []byte
}

// Writer streams an application's sequential writes into a remote Grid
// Buffer as fixed-size blocks. It implements io.WriteCloser.
//
// With a retry policy set (WriterOptions.Retry), the writer survives
// transport faults: it reconnects, replays the unacknowledged block window,
// and continues. Without one it fails fast, as the paper's service did: the
// zero policy is the same code making one attempt with no timeouts.
type Writer struct {
	endpoint

	// wmu guards the send side of the current stream, which the application
	// goroutine and the ack loop share (the ack loop sends held frames when
	// the last in-flight block is acknowledged). It is held across socket
	// writes, hence clock-aware.
	wmu   *simclock.Mutex
	hdr   wire.Encoder // PUT header scratch; a per-call writer's whole PUT payload
	wrote int64        // index after the last block queued on this stream

	window  *simclock.Semaphore
	winSize int64
	done    *simclock.Event

	mu      sync.Mutex // guards err, broken, gen, unacked, spare, flushed
	err     error
	broken  bool
	gen     uint64
	unacked []wblock
	spare   [][]byte // acknowledged blocks' memory, for the next partials
	flushed int64    // every block below this index has been handed to the socket
	closed  bool

	partial []byte
	nextIdx int64
	total   int64
}

// WriterOptions tunes a Writer beyond the buffer Options.
type WriterOptions struct {
	// Window is the number of unacknowledged in-flight Puts; 0 derives it
	// from DefaultWriterWindowBytes and the negotiated block size.
	Window int
	// Codec names the block codec proposed at attach ("" or "raw" keeps the
	// stream raw and the attach request free of any codec field).
	// Connection-per-call mode never negotiates and ignores this.
	Codec string
	// ConnPerCall reproduces the paper's Web-Services transport behaviour:
	// every block is delivered on a fresh, politely closed connection (see
	// endpoint.call), as 2004 connection-per-call SOAP stacks did. This is
	// dramatically latency-sensitive — the very effect the paper observes
	// on its trans-continental Table 5 rows — and is the default in the
	// experiment harness. Window and Codec are ignored in this mode.
	ConnPerCall bool
	// Retry is the resilience policy; the zero policy fails fast.
	Retry retry.Policy
}

// endpoint is what a Writer and a Reader share: where the buffer is, what
// every attach proposes, and the stream the last attach opened.
//
// Block-codec negotiation rides the Attach exchange: a client that wants a
// compressed stream appends the codec name after the attach fields every
// peer sends (old servers ignore trailing bytes), and a new server appends its
// choice to the attach response (old clients ignore it likewise; new
// clients treat a response without the field as an old server and stay
// raw). A client configured raw appends nothing, so the default wire bytes
// are identical to the pre-codec protocol. Only block payloads are
// transformed — framing, indices and acknowledgements stay raw — with the
// same rpc.StreamCodec the bulk streams use, without a schema.
// Connection-per-call mode (the paper's 2004 SOAP discipline) never
// negotiates: its data connections skip the Attach exchange entirely.
type endpoint struct {
	dialer    Dialer
	addr      string
	clock     simclock.Clock
	key       string
	opts      Options
	codec     string // proposed at every attach; "" or "raw" stays raw
	perCall   bool   // every request after the first attach on a connection of its own
	retry     retry.Policy
	bufs      rpc.Buffers
	blockSize int // what the first attach negotiated

	s  *rpc.Stream
	cs *rpc.StreamCodec // what the server settled on; raw against an old server
}

func newEndpoint(dialer Dialer, addr string, clock simclock.Clock, key string, opts Options, codec string, perCall bool, p retry.Policy, side string) endpoint {
	if perCall {
		// Per-call connections skip the Attach exchange, so there is nowhere
		// to negotiate; the paper's SOAP discipline stays raw.
		codec = ""
	}
	return endpoint{
		dialer: dialer, addr: addr, clock: clock, key: key, opts: opts, codec: codec, perCall: perCall, retry: p,
		// Frames per socket write land in the observer the retry policy
		// already carries (nil discards).
		bufs: rpc.Buffers{Size: connBufSize, Flushes: p.Obs.Histogram(obs.Key("buf.flush.blocks", "side", side))},
	}
}

// attach opens a stream to the service and performs the Attach exchange on
// it, under the policy's per-attempt timeout. prev is the reader ID a
// reconnecting reader resumes (-1 for writers and first attaches). It
// returns the reader ID and block size the service settled on.
func (e *endpoint) attach(role uint8, prev int) (readerID, blockSize int, err error) {
	open := rpc.OpenBuffered
	if e.perCall {
		open = rpc.OpenOnce // open closes it at once
	}
	s, err := open("gridbuffer", e.bufs, e.dialer, e.addr, e.clock, e.retry.Timeout())
	if err != nil {
		return 0, 0, err
	}
	req := wire.NewEncoder()
	req.String(e.key).U8(role)
	encodeOptions(req, e.opts)
	req.I64(int64(prev))
	if e.codec != "" && e.codec != wire.CodecRaw {
		req.String(e.codec)
	}
	// A shed here is a stream-setup shed: the service is at its stream limit,
	// and the attach-level retry policy waits out the hint and redials.
	_, resp, err := s.Call(msgAttach, req.Bytes(), msgAttachResp)
	var cs *rpc.StreamCodec
	if err == nil {
		readerID, blockSize, cs, err = decodeAttachResp(resp)
	}
	if err != nil {
		s.Close()
		return 0, 0, err
	}
	e.s, e.cs = s, cs
	return readerID, blockSize, nil
}

// open performs the first attach under the retry policy and settles the
// block size. A per-call endpoint closes that stream at once: it only made
// the buffer, and every later request travels on a connection of its own.
func (e *endpoint) open(role uint8) (readerID int, err error) {
	err = e.retry.Do("gb.attach", func(int) error {
		var err error
		readerID, e.blockSize, err = e.attach(role, -1)
		return err
	})
	if err == nil && e.perCall {
		e.s.Close()
		e.s = nil
	}
	return readerID, err
}

// call opens a fresh connection, makes one request, returns the payload of
// a reply of type want, closes the connection and waits out the teardown —
// the 2004 connection-per-call SOAP discipline. Per call that is a TCP
// handshake, one request round trip, and a FIN handshake before the stack
// reuses the port (2004 SOAP clients closed politely and serially), i.e. ~3
// round trips. The teardown is charged as the measured connection-setup
// time, so it scales with the actual link rather than a constant. The
// exchange is one-shot (rpc.OpenOnce): the connection's buffers are
// recycled, and the reply payload, which Call read into memory of its own,
// is the caller's.
func (e *endpoint) call(reqType uint8, payload []byte, want uint8) ([]byte, error) {
	t0 := e.clock.Now()
	s, err := rpc.OpenOnce("gridbuffer", rpc.Buffers{}, e.dialer, e.addr, e.clock, e.retry.Timeout())
	if err != nil {
		return nil, err
	}
	setup := e.clock.Now().Sub(t0)
	defer func() {
		s.Close()
		e.clock.Sleep(setup)
	}()
	_, resp, err := s.Call(reqType, payload, want)
	return resp, err
}

// decodeAttachResp reads the service's answer to an Attach.
func decodeAttachResp(resp []byte) (readerID, blockSize int, cs *rpc.StreamCodec, err error) {
	d := wire.NewDecoder(resp)
	readerID, blockSize = int(d.I64()), int(d.U32())
	// A codec-capable server echoes its choice; an old server's response
	// ends at blockSize, which means the stream is raw.
	chosen := ""
	if d.Err() == nil && d.Remaining() > 0 {
		chosen = d.String()
	}
	if err := d.Err(); err != nil {
		return 0, 0, nil, retry.Permanent(err)
	}
	block, err := wire.ForName(chosen)
	if err != nil {
		return 0, 0, nil, retry.Permanent(fmt.Errorf("gridbuffer: server chose %w", err))
	}
	if blockSize <= 0 {
		return 0, 0, nil, retry.Permanent(fmt.Errorf("gridbuffer: server negotiated block size %d", blockSize))
	}
	return readerID, blockSize, &rpc.StreamCodec{Block: block}, nil
}

// BlockSize reports the negotiated block size.
func (e *endpoint) BlockSize() int { return e.blockSize }

// NewWriter attaches to (or creates) the buffer key on the service at addr
// and returns a Writer.
func NewWriter(dialer Dialer, addr string, clock simclock.Clock, key string, opts Options, wopts WriterOptions) (*Writer, error) {
	w := &Writer{
		endpoint: newEndpoint(dialer, addr, clock, key, opts, wopts.Codec, wopts.ConnPerCall, wopts.Retry, "writer"),
		wmu:      simclock.NewMutex(clock),
		done:     simclock.NewEvent(clock),
	}
	if _, err := w.open(roleWriter); err != nil {
		return nil, err
	}
	w.winSize = int64(inFlightBlocks(wopts.Window, DefaultWriterWindowBytes, w.blockSize))
	w.window = simclock.NewSemaphore(clock, w.winSize)
	if !w.perCall {
		w.spawnAckLoop()
	}
	return w, nil
}

func (w *Writer) spawnAckLoop() {
	w.mu.Lock()
	gen := w.gen
	w.mu.Unlock()
	s, window, done := w.s, w.window, w.done
	w.clock.Go("gridbuffer-writer-acks", func() { w.ackLoop(s, window, done, gen) })
}

// ackLoop consumes Put acknowledgements, releasing window permits. One loop
// runs per connection generation; window/done belong to that generation, so
// a stale loop can never release permits of a successor connection.
func (w *Writer) ackLoop(s *rpc.Stream, window *simclock.Semaphore, done *simclock.Event, gen uint64) {
	// However the loop ends, nothing more will be acknowledged on this
	// connection: unblock whoever waits on it.
	defer func() {
		window.Release(w.winSize)
		done.Set()
	}()
	for {
		// No deadline: what bounds the wait for an acknowledgement is the
		// window (acquire), so a writer that is merely idle keeps its stream.
		typ, payload, err := s.Await()
		if err != nil {
			w.noteTransport(gen, err)
			return
		}
		switch typ {
		case msgPutResp:
			kick := w.popAcked(gen)
			window.Release(1)
			if kick && w.flushHeld() != nil {
				return
			}
		case msgCloseWriteResp:
			return
		case msgError:
			w.failServer(errors.New("gridbuffer: " + wire.NewDecoder(payload).String()))
			return
		default:
			w.failServer(fmt.Errorf("gridbuffer: unexpected writer frame %d", typ))
			return
		}
	}
}

// popAcked drops the oldest unacknowledged block (acks arrive in send order)
// if the acknowledging connection is still current. It reports whether that
// leaves frames held in the buffer with nothing in flight ahead of them —
// the moment the ack loop, not the application, has to send them.
func (w *Writer) popAcked(gen uint64) (kick bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.gen != gen || len(w.unacked) == 0 {
		return false
	}
	// The server holds its own copy now, and no frame refers to the
	// block's memory any more: it was sent before it was acknowledged.
	w.spare = append(w.spare, w.unacked[0].data[:0])
	w.unacked = w.unacked[1:]
	return len(w.unacked) > 0 && !w.inFlightLocked()
}

// inFlightLocked reports whether the socket has been handed a block that is
// not yet acknowledged.
func (w *Writer) inFlightLocked() bool {
	return len(w.unacked) > 0 && w.unacked[0].idx < w.flushed
}

// noteTransport records a transport fault seen by the gen ackLoop.
func (w *Writer) noteTransport(gen uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.gen != gen {
		return // a stale loop observing its own connection being replaced
	}
	w.lostLocked(err)
}

// lostLocked records a transport fault on the current connection: with a
// retry policy the connection is marked broken (the app goroutine
// reconnects); without one it is the writer's terminal error.
func (w *Writer) lostLocked(err error) {
	if w.retry.Enabled() {
		w.broken = true
		return
	}
	if w.err == nil {
		w.err = err
	}
}

func (w *Writer) lost(err error) {
	w.mu.Lock()
	w.lostLocked(err)
	w.mu.Unlock()
}

// failServer records a server-reported error: permanent in every mode.
func (w *Writer) failServer(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// Err reports the first permanent error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *Writer) setBroken() {
	w.mu.Lock()
	w.broken = true
	w.mu.Unlock()
}

// Write implements io.Writer: bytes accumulate into blocks; each full block
// is queued for the service as soon as the in-flight window permits.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("gridbuffer: write after close")
	}
	if err := w.Err(); err != nil {
		return 0, err
	}
	total := 0
	for len(p) > 0 {
		space := w.blockSize - len(w.partial)
		n := len(p)
		if n > space {
			n = space
		}
		w.partial = append(w.partial, p[:n]...)
		p = p[n:]
		total += n
		if len(w.partial) == w.blockSize {
			if err := w.sendBlock(); err != nil {
				return total, err
			}
		}
	}
	w.total += int64(total)
	return total, nil
}

// sendBlock delivers the filled partial block over the configured transport
// discipline.
func (w *Writer) sendBlock() error {
	if w.perCall {
		// The block is encoded once, from the partial buffer into a payload
		// sized for it, and every attempt sends that: a call has written
		// its request before it returns, so the scratch is free again then.
		w.hdr.Reset()
		w.hdr.Grow(4 + len(w.key) + 8 + 4 + len(w.partial)).String(w.key).I64(w.nextIdx).Bytes32(w.partial)
		w.nextIdx++
		w.partial = w.partial[:0]
		err := w.retry.Do("gb.put", func(int) error {
			_, err := w.call(msgPut, w.hdr.Bytes(), msgPutResp)
			return err
		})
		if err != nil {
			w.failServer(err)
		}
		return err
	}

	// The filled partial becomes the unacknowledged block as it is, and an
	// acknowledged block's memory the next partial.
	blk := wblock{idx: w.nextIdx, data: w.partial}
	w.nextIdx++
	w.partial = w.nextPartial()

	queued := false
	return w.retry.Do("gb.put", func(int) error {
		if err := w.usable(); err != nil {
			return err
		}
		if queued {
			// The reconnect above replayed this block with the rest of the
			// unacknowledged window.
			return nil
		}
		if err := w.acquire(1); err != nil {
			return err
		}
		w.mu.Lock()
		w.unacked = append(w.unacked, blk)
		w.mu.Unlock()
		queued = true
		return w.queue(blk)
	})
}

// nextPartial returns memory for the next partial block: an acknowledged
// block's, or fresh while the window fills.
func (w *Writer) nextPartial() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.spare); n > 0 {
		p := w.spare[n-1]
		w.spare = w.spare[:n-1]
		return p
	}
	return make([]byte, 0, w.blockSize)
}

// usable starts an attempt: it surfaces a permanent error and replaces a
// broken connection.
func (w *Writer) usable() error {
	if err := w.state(); err != errBroken {
		return err
	}
	return w.reconnect()
}

var errBroken = errors.New("gridbuffer: connection broken")

// state reports the writer's standing for an attempt: its permanent error,
// errBroken when the connection was lost, or nil.
func (w *Writer) state() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return retry.Permanent(w.err)
	}
	if w.broken {
		return errBroken
	}
	return nil
}

// acquire takes n window permits, bounded by the policy's per-attempt
// timeout if there is one. Before it waits it sends the frames the writer is
// holding: the acknowledgements it is about to wait for may be theirs.
func (w *Writer) acquire(n int64) error {
	if !w.window.TryAcquire(n) {
		if err := w.flushHeld(); err != nil {
			return err
		}
		if t := w.retry.Timeout(); t <= 0 {
			w.window.Acquire(n)
		} else if !w.window.AcquireTimeout(n, t) {
			w.setBroken()
			return fmt.Errorf("gridbuffer: no acknowledgement within %v", t)
		}
	}
	// A dying ack loop releases the whole window; those permits belong to a
	// dead connection.
	return w.state()
}

// queue puts one block's PUT frame on the stream under Nagle's rule, clocked
// by acknowledgements instead of a timer: with nothing in flight the frame
// leaves at once, so a lone block is never delayed; otherwise it waits in the
// stream's buffer for company until the buffer fills, the application has to
// wait (acquire, Close), or the ack loop sees the last in-flight block
// acknowledged. It is the flush-before-block rule of every endpoint — the
// service's is rpc.ServeConn's — which makes a legacy code's 4 KiB records
// cost one socket write per buffer-full rather than two per record.
func (w *Writer) queue(blk wblock) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if err := w.putLocked(blk); err != nil {
		return err
	}
	w.mu.Lock()
	// A full buffer sends the frames ahead of this one on its own.
	w.flushed = w.wrote - int64(w.s.Queued())
	idle := !w.inFlightLocked()
	w.mu.Unlock()
	if idle {
		return w.flushLocked()
	}
	return nil
}

// putLocked queues one PUT frame; wmu is held. The payload goes vectored from
// the block (or the compression arena) into the stream's buffer, and the
// frame is byte-identical to a one-block PUT sent from a flat buffer.
func (w *Writer) putLocked(blk wblock) error {
	data, err := w.cs.Encode(blk.data)
	if err != nil {
		return err
	}
	w.hdr.Reset()
	w.hdr.String(w.key).I64(blk.idx).U32(uint32(len(data)))
	if err := w.s.Frame(msgPut, w.hdr.Bytes(), data); err != nil {
		w.lost(err)
		return err
	}
	w.wrote = blk.idx + 1
	return nil
}

// flushLocked hands every queued frame to the socket; wmu is held.
func (w *Writer) flushLocked() error {
	if err := w.s.Flush(); err != nil {
		w.lost(err)
		return err
	}
	w.mu.Lock()
	w.flushed = w.wrote
	w.mu.Unlock()
	return nil
}

func (w *Writer) flushHeld() error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.flushLocked()
}

// reconnect re-attaches the writer, replays the unacknowledged block window
// through the same held-frame path, and restarts the ack loop. Only the
// application goroutine calls it.
func (w *Writer) reconnect() error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.s.Close()
	// The replacement stream renegotiates from scratch — a failover to an
	// older server build downgrades the stream to raw mid-flight.
	if _, _, err := w.attach(roleWriter, -1); err != nil {
		return err
	}
	w.mu.Lock()
	w.gen++
	w.broken = false
	replay := append([]wblock(nil), w.unacked...)
	w.mu.Unlock()
	for _, blk := range replay {
		if err := w.putLocked(blk); err != nil {
			return err
		}
	}
	if err := w.flushLocked(); err != nil {
		return err
	}
	w.window = simclock.NewSemaphore(w.clock, max(w.winSize-int64(len(replay)), 0))
	w.done = simclock.NewEvent(w.clock)
	w.spawnAckLoop()
	return nil
}

// Close flushes the tail block, waits for all acknowledgements, marks
// end-of-stream and releases the connection.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if !w.perCall {
		defer func() {
			w.wmu.Lock()
			w.s.Close()
			w.wmu.Unlock()
		}()
	}
	if len(w.partial) > 0 {
		if err := w.sendBlock(); err != nil {
			return err
		}
	}
	closeWrite := wire.NewEncoder().String(w.key).I64(w.total).Bytes()
	if w.perCall {
		err := w.retry.Do("gb.close", func(int) error {
			_, err := w.call(msgCloseWrite, closeWrite, msgCloseWriteResp)
			return err
		})
		if err != nil {
			return err
		}
		return w.Err()
	}
	return w.retry.Do("gb.close", func(int) error {
		if err := w.usable(); err != nil {
			return err
		}
		// Wait for every outstanding Put to be acknowledged.
		if err := w.acquire(w.winSize); err != nil {
			return err
		}
		if err := w.sendCloseWrite(closeWrite); err != nil {
			return err
		}
		if t := w.retry.Timeout(); t <= 0 {
			w.done.Wait()
		} else if !w.done.WaitTimeout(t) {
			w.setBroken()
			return errors.New("gridbuffer: close-write not acknowledged in time")
		}
		return w.state()
	})
}

func (w *Writer) sendCloseWrite(payload []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if err := w.s.Frame(msgCloseWrite, payload); err != nil {
		w.lost(err)
		return err
	}
	return w.flushLocked()
}

// Reader streams a Grid Buffer to an application, prefetching blocks ahead
// of the read position. It implements io.ReadSeekCloser. Reads of blocks
// the writer has not produced yet stall (in simulated or real time) until
// the data arrives — the paper's blocking-read semantics.
//
// With a retry policy set (ReaderOptions.Retry), the reader survives
// transport faults: blocks stay resident on the server until the reader
// acknowledges delivery (piggybacked on the next request), so after a
// reconnect it resumes at the current position with nothing lost. The
// per-attempt timeout then also bounds how long the reader tolerates
// silence, so a producer that stalls longer than the policy's attempt
// budget is indistinguishable from a dead one — raise the timeout for
// slow producers. A connection-per-call reader (ReaderOptions.ConnPerCall)
// keeps the same rule: every request acknowledges what was delivered.
type Reader struct {
	endpoint
	readerID int
	depth    int
	broken   bool

	inflight []int64 // block indices with pending responses, in order
	nextReq  int64
	acked    int64 // every block < acked has been delivered to the app

	pos    int64
	cur    []byte // remainder of the current block at pos
	total  int64  // stream length, or best upper bound so far (-1 unknown)
	closed bool
}

// ReaderOptions tunes a Reader beyond the buffer Options.
type ReaderOptions struct {
	// Depth is the prefetch pipeline depth in blocks; 0 derives it from
	// DefaultReaderDepthBytes and the negotiated block size. Either way it is
	// held below the buffer's Capacity: the service answers a reader's
	// requests in order and frees blocks only on the acknowledgement the
	// next request carries.
	Depth int
	// Codec names the block codec proposed at attach ("" or "raw" keeps the
	// stream raw and the attach request free of any codec field).
	Codec string
	// ConnPerCall fetches every block on a connection of its own (see
	// endpoint.call): one windowed GET of one block, which acknowledges
	// every block before it, and the Detach at Close. It is the reader of
	// the SOAP transport, whose envelope holds one exchange. Depth and Codec
	// are ignored in this mode.
	ConnPerCall bool
	// Retry is the resilience policy; the zero policy fails fast.
	Retry retry.Policy
}

// NewReader attaches to (or creates) the buffer key on the service at addr.
func NewReader(dialer Dialer, addr string, clock simclock.Clock, key string, opts Options, ropts ReaderOptions) (*Reader, error) {
	r := &Reader{endpoint: newEndpoint(dialer, addr, clock, key, opts, ropts.Codec, ropts.ConnPerCall, ropts.Retry, "reader"), total: -1}
	var err error
	if r.readerID, err = r.open(roleReader); err != nil {
		return nil, err
	}
	// The service answers a window in order and frees a block only on the
	// acknowledgement of the next request, so a window of Capacity blocks
	// waits for a block the writer has no room to put.
	r.depth = max(min(inFlightBlocks(ropts.Depth, DefaultReaderDepthBytes, r.blockSize), opts.capacity()-1), 1)
	return r, nil
}

// noteTotal tightens the known stream length. EOF responses give upper
// bounds (idx*blockSize); a short block gives the exact length. min() of
// all observations converges on the true total.
func (r *Reader) noteTotal(v int64) {
	if r.total < 0 || v < r.total {
		r.total = v
	}
}

// reconnect re-attaches the reader under its previous identity and resets
// the request pipeline; the next fill re-requests from the current
// position, whose blocks the server retained (they were never
// acknowledged).
func (r *Reader) reconnect() error {
	r.s.Close()
	id, _, err := r.attach(roleReader, r.readerID)
	if err != nil {
		return err
	}
	r.readerID = id
	r.inflight = nil
	r.broken = false
	return nil
}

// sendWindow sends one windowed GET for blocks [first, first+count),
// acknowledging everything already delivered. The server streams one
// response frame per block as each becomes available, so the reader keeps
// count requests outstanding at the cost of a single request frame. The
// request leaves at once: it is what keeps the reader from blocking later.
func (r *Reader) sendWindow(first int64, count int) error {
	e := wire.NewEncoder()
	encodeGetWin(e, getWinReq{
		key: r.key, readerID: r.readerID,
		first: first, count: count, ackBelow: r.acked,
	})
	if err := r.s.Request(msgGetWin, e.Bytes()); err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		r.inflight = append(r.inflight, first+int64(i))
	}
	return nil
}

// block decodes the response for block idx, tightening the known stream
// length by what it says: an EOF response gives an upper bound, a short
// block (the tail) the exact length. The data is the frame's own payload (or
// the codec's arena), valid until the stream's next read: readOnce hands it
// to the application as r.cur, which is empty again before any read.
func (r *Reader) block(idx int64, payload []byte) (int64, []byte, bool, error) {
	d := wire.NewDecoder(payload)
	gotIdx := d.I64()
	eof := d.Bool()
	raw := d.Bytes32()
	if err := d.Err(); err != nil {
		return idx, nil, false, err
	}
	data, err := r.cs.Decode(raw)
	if err != nil {
		return idx, nil, false, retry.Permanent(err)
	}
	if gotIdx != idx {
		return idx, nil, false, retry.Permanent(fmt.Errorf("gridbuffer: response for block %d, expected %d", gotIdx, idx))
	}
	if bs := int64(r.blockSize); eof {
		r.noteTotal(idx * bs)
	} else if len(data) < r.blockSize {
		r.noteTotal(idx*bs + int64(len(data)))
	}
	return idx, data, eof, nil
}

// fetch asks for block idx alone, on a connection of its own, acknowledging
// every block before it (connection-per-call mode).
func (r *Reader) fetch(idx int64) (int64, []byte, bool, error) {
	e := wire.NewEncoder()
	encodeGetWin(e, getWinReq{key: r.key, readerID: r.readerID, first: idx, count: 1, ackBelow: r.acked})
	resp, err := r.call(msgGetWin, e.Bytes(), msgGetWinResp)
	if err != nil {
		return idx, nil, false, err
	}
	return r.block(idx, resp)
}

// recvOne consumes the response for inflight[0] (see block).
func (r *Reader) recvOne() (idx int64, data []byte, eof bool, err error) {
	if len(r.inflight) == 0 {
		return 0, nil, false, errors.New("gridbuffer: no in-flight request")
	}
	idx = r.inflight[0]
	typ, payload, err := r.s.Next()
	if err != nil {
		return idx, nil, false, err
	}
	r.inflight = r.inflight[1:]
	switch typ {
	case msgGetWinResp:
		return r.block(idx, payload)
	case msgError:
		return idx, nil, false, rpc.Reply("gridbuffer", typ, payload)
	default:
		return idx, nil, false, retry.Permanent(fmt.Errorf("gridbuffer: unexpected reader frame %d", typ))
	}
}

// drain consumes every outstanding response (used before repositioning),
// keeping whatever stream-length information they carry.
func (r *Reader) drain() error {
	for len(r.inflight) > 0 {
		if _, _, _, err := r.recvOne(); err != nil {
			return err
		}
	}
	return nil
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, errors.New("gridbuffer: read after close")
	}
	if !r.retry.Enabled() {
		return r.readOnce(p)
	}
	var n int
	var eof bool
	err := r.retry.Do("gb.get", func(int) error {
		if r.broken {
			if err := r.reconnect(); err != nil {
				return err
			}
		}
		nn, rerr := r.readOnce(p)
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				n, eof = nn, true
				return nil
			}
			if !retry.IsPermanent(rerr) && !r.perCall {
				r.broken = true // a per-call reader dials afresh every attempt anyway
			}
			return rerr
		}
		n = nn
		return nil
	})
	if err != nil {
		return 0, err
	}
	if eof {
		return n, io.EOF
	}
	return n, nil
}

// readOnce is one fill attempt against the current connection.
func (r *Reader) readOnce(p []byte) (int, error) {
	bs := int64(r.blockSize)
	for len(r.cur) == 0 {
		if r.total >= 0 && r.pos >= r.total {
			return 0, io.EOF
		}
		idx := r.pos / bs
		// Everything below the block holding pos has been delivered; the
		// next request acknowledges it (monotonic: a backward seek re-reads
		// from the cache file, exactly as with eager consumption).
		if idx > r.acked {
			r.acked = idx
		}
		get := r.pipelined
		if r.perCall {
			get = r.fetch
		}
		gotIdx, data, eof, err := get(idx)
		if err != nil {
			return 0, err
		}
		if eof {
			continue // the loop re-checks pos against the tighter total
		}
		off := r.pos - gotIdx*bs
		if off < 0 || off >= int64(len(data)) {
			continue // stale block for an old position; re-check
		}
		r.cur = data[off:]
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	r.pos += int64(n)
	return n, nil
}

// pipelined returns the next response of the request pipeline, first aligning
// the pipeline with block idx and topping it up. It reports io.EOF when
// nothing is requestable below the known end.
func (r *Reader) pipelined(idx int64) (int64, []byte, bool, error) {
	bs := int64(r.blockSize)
	// Keep the pipeline aligned with the read position.
	if len(r.inflight) > 0 && r.inflight[0] != idx {
		if err := r.drain(); err != nil {
			return idx, nil, false, err
		}
	}
	if len(r.inflight) == 0 {
		r.nextReq = idx
	}
	// Refill in runs of half the window, not a request per block: the
	// other half is still in flight, so the pipe never drains, and the
	// service hears from the reader 2/depth times per block.
	if want := r.depth - len(r.inflight); want >= (r.depth+1)/2 {
		count := 0
		for count < want {
			if r.total >= 0 && (r.nextReq+int64(count))*bs >= r.total {
				break
			}
			count++
		}
		if count > 0 {
			if err := r.sendWindow(r.nextReq, count); err != nil {
				return idx, nil, false, err
			}
			r.nextReq += int64(count)
		}
	}
	if len(r.inflight) == 0 {
		// Nothing requestable below the known end: the position must be
		// at or past it.
		return idx, nil, false, io.EOF
	}
	return r.recvOne()
}

// Seek implements io.Seeker for offsets from the start and from the current
// position. Seeking relative to the end is refused, even once EOF was seen:
// a stream's end is not a position its reader names.
func (r *Reader) Seek(offset int64, whence int) (int64, error) {
	if r.closed {
		return 0, errors.New("gridbuffer: seek after close")
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = r.pos
	case io.SeekEnd:
		return 0, errors.New("gridbuffer: seek from end of a stream is not supported")
	default:
		return 0, fmt.Errorf("gridbuffer: bad whence %d", whence)
	}
	npos := base + offset
	if npos < 0 {
		return 0, errors.New("gridbuffer: negative seek")
	}
	if npos != r.pos {
		r.cur = nil
		r.pos = npos
	}
	return npos, nil
}

// Close detaches the reader and releases the connection. A streaming reader
// sends the Detach and does not wait: the connection is going away.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	detach := wire.NewEncoder().String(r.key).I64(int64(r.readerID)).Bytes()
	if r.perCall {
		_, err := r.call(msgDetach, detach, msgDetachResp)
		return err
	}
	_ = r.s.Request(msgDetach, detach)
	return r.s.Close()
}
