package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// hdrPool recycles the 5-byte frame headers: written through the io.Writer
// interface they would otherwise escape and cost one heap allocation per
// frame, which is exactly what the zero-copy loops are pinning away.
var hdrPool = sync.Pool{New: func() any { return new([5]byte) }}

// WriteFrameV writes one frame whose payload is the concatenation of parts,
// without joining them into a temporary buffer first. Hot senders (the Grid
// Buffer GET-WIN loop, gridftp bulk streams) build a small header with an
// Encoder and pass the block payload as a separate part, so the block bytes
// flow straight from their pool into the connection's buffered writer.
func WriteFrameV(w io.Writer, msgType uint8, parts ...[]byte) error {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total > MaxFrame {
		return ErrFrameTooLarge
	}
	hdr := hdrPool.Get().(*[5]byte)
	binary.BigEndian.PutUint32(hdr[:4], uint32(total))
	hdr[4] = msgType
	_, err := w.Write(hdr[:])
	hdrPool.Put(hdr)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrameInto reads one frame like ReadFrame but reuses *buf for the
// payload, growing it only when a frame exceeds its capacity. The returned
// payload aliases *buf and is valid until the next call that passes the same
// buffer. Per-frame receive loops (gridftp fetch/put, Grid Buffer acks and
// windowed gets) use this to amortise the per-frame allocation away.
func ReadFrameInto(r io.Reader, buf *[]byte) (msgType uint8, payload []byte, err error) {
	hdr := hdrPool.Get().(*[5]byte)
	defer hdrPool.Put(hdr)
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	payload = (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame body: %w", err)
	}
	return hdr[4], payload, nil
}

// FrameBuffered reports whether br already holds one whole frame, so the next
// ReadFrame returns without touching the connection. Servers that queue their
// responses in a buffered writer ask before every read and flush only when
// the answer is no: every request that arrived in one segment is answered in
// one segment.
func FrameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 5 {
		return false
	}
	hdr, err := br.Peek(5)
	if err != nil {
		return false
	}
	return br.Buffered()-5 >= int(binary.BigEndian.Uint32(hdr[:4]))
}
