// Package wire implements the framed binary message layer shared by the
// GriddLeS services (GNS, GridFTP-like file service, Grid Buffer binary
// transport).
//
// A frame is: u32 payload length, u8 message type, payload. Payloads are
// encoded with the sticky-error Encoder/Decoder below: big-endian fixed-width
// integers and length-prefixed byte strings. The format is deliberately
// simpler than 2004-era XDR-over-SOAP but plays the same role; the SOAP
// transport in internal/soap is the faithful alternative for the Grid Buffer
// service.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// MaxFrame bounds a frame payload (16 MiB) to catch corrupt length prefixes.
const MaxFrame = 16 << 20

// ErrFrameTooLarge is returned when a length prefix exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// WriteFrame writes one frame of the given type to w.
func WriteFrame(w io.Writer, msgType uint8, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = msgType
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame from r.
func ReadFrame(r io.Reader) (msgType uint8, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame body: %w", err)
	}
	return hdr[4], payload, nil
}

// Encoder builds a payload. Append methods never fail; the buffer grows as
// needed.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty Encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes reports the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset clears the encoder for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Grow makes room for n more bytes, so the appends that follow copy nothing
// already encoded.
func (e *Encoder) Grow(n int) *Encoder {
	e.buf = slices.Grow(e.buf, n)
	return e
}

// U8 appends a byte.
func (e *Encoder) U8(v uint8) *Encoder {
	e.buf = append(e.buf, v)
	return e
}

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) *Encoder {
	if v {
		return e.U8(1)
	}
	return e.U8(0)
}

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) *Encoder {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
	return e
}

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) *Encoder {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
	return e
}

// I64 appends a big-endian int64.
func (e *Encoder) I64(v int64) *Encoder { return e.U64(uint64(v)) }

// Bytes32 appends a u32 length prefix followed by b.
func (e *Encoder) Bytes32(b []byte) *Encoder {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) *Encoder { return e.Bytes32([]byte(s)) }

// StringSlice appends a u32 count followed by each string.
func (e *Encoder) StringSlice(ss []string) *Encoder {
	e.U32(uint32(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
	return e
}

// Decoder consumes a payload with a sticky error: after the first decode
// failure all further reads return zero values, and Err reports the failure.
type Decoder struct {
	buf []byte
	pos int
	err error
}

// NewDecoder returns a Decoder over payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Err reports the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated payload reading %s at offset %d", what, d.pos)
	}
}

func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if d.pos+n > len(d.buf) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bytes32 reads a u32-length-prefixed byte string. The returned slice
// aliases the payload.
func (d *Decoder) Bytes32() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > MaxFrame {
		d.fail("oversized bytes")
		return nil
	}
	return d.take(int(n), "bytes")
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes32()) }

// StringSlice reads a u32 count followed by that many strings.
func (d *Decoder) StringSlice() []string {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > MaxFrame/4 {
		d.fail("oversized string slice")
		return nil
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, d.String())
		if d.err != nil {
			return nil
		}
	}
	return out
}
