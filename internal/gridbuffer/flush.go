package gridbuffer

import (
	"bufio"
	"io"
	"sync"

	"griddles/internal/obs"
	"griddles/internal/wire"
)

// The binary transport has one rule for when bytes leave an endpoint, the
// same at the writer, the server and the reader: frames queue in a
// connection-sized buffer and are flushed only when the endpoint is about to
// block — on a read, on the in-flight window, on buffer capacity, or on
// Close — or when the buffer is full. A legacy code writing 4 KiB records
// then costs one socket write per buffer-full rather than two per record,
// while an endpoint with nothing else to do never sits on a frame.

// connBufSize is the size of every read and write buffer on a Grid Buffer
// connection: 15 PUT or GET-WIN response frames at the paper's 4096-byte
// block, and the size a loopback or LAN socket moves in one call anyway.
const connBufSize = 64 << 10

// Servers see one connection per block from connection-per-call writers, so
// their buffers are recycled rather than allocated per connection.
var (
	readBufPool  = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, connBufSize) }}
	writeBufPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, connBufSize) }}
)

// frameWriter queues frames for one connection and counts how many each
// flush carries.
type frameWriter struct {
	bw     *bufio.Writer
	frames int64          // queued since the last flush
	hist   *obs.Histogram // buf.flush.blocks
}

func newFrameWriter(w io.Writer, hist *obs.Histogram) *frameWriter {
	return &frameWriter{bw: bufio.NewWriterSize(w, connBufSize), hist: hist}
}

// frame queues one frame. A frame that does not fit behind the queued ones
// sends those first, so a socket write always carries whole frames.
func (f *frameWriter) frame(typ uint8, parts ...[]byte) error {
	need := 5
	for _, p := range parts {
		need += len(p)
	}
	if need > f.bw.Available() && f.bw.Buffered() > 0 {
		if err := f.flush(); err != nil {
			return err
		}
	}
	f.frames++
	return wire.WriteFrameV(f.bw, typ, parts...)
}

// flush sends everything queued in one socket write.
func (f *frameWriter) flush() error {
	if f.frames > 0 {
		f.hist.Observe(f.frames)
		f.frames = 0
	}
	return f.bw.Flush()
}
