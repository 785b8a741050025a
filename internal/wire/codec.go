package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Codec names negotiated at stream open. Raw is the wire format every peer
// speaks: it adds no framing at all, so a stream negotiated (or defaulted)
// to raw is byte-identical to the pre-negotiation protocol.
const (
	CodecRaw = "raw"
	CodecLZB = "lzb"
)

// Codec transforms a block payload for the wire. Encode appends the encoded
// form of src to dst and returns the extended slice; Decode reverses it.
// Implementations must be safe for concurrent use and must round-trip any
// byte string exactly.
type Codec interface {
	Name() string
	Encode(dst, src []byte) []byte
	Decode(dst, src []byte) ([]byte, error)
}

// ErrBadBlock is wrapped by Decode errors for malformed encoded blocks.
var ErrBadBlock = errors.New("wire: malformed codec block")

// Block methods inside an encoded payload: [u8 method][u32 rawLen][body].
// A compressing encoder stores blocks that don't shrink, so the encoded
// form is never more than 5 bytes larger than the input.
const (
	blockStored = 0
	blockLZB    = 1
)

// CodecSupported reports whether name is a codec this build speaks.
func CodecSupported(name string) bool {
	return name == CodecRaw || name == CodecLZB
}

// ForName returns the codec for name. Raw (and the empty string) return nil:
// a nil Codec means "leave payloads alone", which is how every call site
// keeps the negotiated-raw path byte-identical to a stream with no codec.
func ForName(name string) (Codec, error) {
	switch name {
	case "", CodecRaw:
		return nil, nil
	case CodecLZB:
		return lzbCodec{}, nil
	default:
		return nil, fmt.Errorf("wire: unknown codec %q", name)
	}
}

// NegotiateCodec picks the codec a server answers with: the client's request
// when the server both speaks it and accepts it, raw otherwise. accept is
// the server's -codecs allow list; empty accepts everything supported.
func NegotiateCodec(requested string, accept []string) string {
	if requested == "" || requested == CodecRaw || !CodecSupported(requested) {
		return CodecRaw
	}
	if len(accept) == 0 {
		return requested
	}
	for _, a := range accept {
		if a == requested {
			return requested
		}
	}
	return CodecRaw
}

// ParseCodecList parses a comma-separated -codecs flag value, validating
// every name.
func ParseCodecList(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		if !CodecSupported(name) {
			return nil, fmt.Errorf("wire: unknown codec %q in list %q", name, s)
		}
		out = append(out, name)
	}
	return out, nil
}

// lzbCodec is the native LZ4-style block compressor. Encoded form:
// [u8 method][u32 rawLen][body], where method 1 is an lzb token stream and
// method 0 stores the raw bytes verbatim (chosen whenever compression
// fails to shrink the block).
type lzbCodec struct{}

// Name implements Codec.
func (lzbCodec) Name() string { return CodecLZB }

// Encode implements Codec.
func (lzbCodec) Encode(dst, src []byte) []byte {
	dst = append(dst, blockLZB)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(src)))
	mark := len(dst)
	dst = lzbCompress(dst, src)
	if len(dst)-mark >= len(src) {
		dst = dst[:mark]
		dst[mark-5] = blockStored
		dst = append(dst, src...)
	}
	return dst
}

// Decode implements Codec.
func (lzbCodec) Decode(dst, src []byte) ([]byte, error) {
	if len(src) < 5 {
		return nil, fmt.Errorf("%w: %d-byte block header", ErrBadBlock, len(src))
	}
	method := src[0]
	rawLen := binary.BigEndian.Uint32(src[1:5])
	if rawLen > MaxFrame {
		return nil, fmt.Errorf("%w: raw length %d exceeds frame bound", ErrBadBlock, rawLen)
	}
	body := src[5:]
	switch method {
	case blockStored:
		if len(body) != int(rawLen) {
			return nil, fmt.Errorf("%w: stored block is %d bytes, header says %d", ErrBadBlock, len(body), rawLen)
		}
		return append(dst, body...), nil
	case blockLZB:
		return lzbDecompress(dst, body, int(rawLen))
	default:
		return nil, fmt.Errorf("%w: unknown method %d", ErrBadBlock, method)
	}
}
