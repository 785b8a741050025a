package gridbuffer

import "griddles/internal/wire"

// Block-codec negotiation rides the Attach exchange: a client that wants a
// compressed stream appends the codec name after the historical attach
// fields (old servers ignore trailing bytes), and a new server appends its
// choice to the attach response (old clients ignore it likewise; new
// clients treat a response without the field as an old server and stay
// raw). A client configured raw appends nothing, so the default wire bytes
// are identical to the pre-codec protocol. Only block payloads are
// transformed — framing, indices and acknowledgements stay raw.
//
// Connection-per-call mode (the paper's 2004 SOAP discipline) never
// negotiates: its data connections skip the Attach exchange entirely.

// codecState is one connection's negotiated block codec plus reusable
// transform buffers, so a steady stream allocates nothing per block.
type codecState struct {
	codec  wire.Codec
	encBuf []byte
	decBuf []byte
}

func (cs *codecState) active() bool { return cs != nil && cs.codec != nil }

// enc compresses one block payload; the result aliases an internal buffer
// valid until the next enc. Raw state passes data through untouched.
func (cs *codecState) enc(data []byte) []byte {
	if !cs.active() {
		return data
	}
	cs.encBuf = cs.codec.Encode(cs.encBuf[:0], data)
	return cs.encBuf
}

// dec reverses enc; the result aliases an internal buffer valid until the
// next dec.
func (cs *codecState) dec(data []byte) ([]byte, error) {
	if !cs.active() {
		return data, nil
	}
	var err error
	cs.decBuf, err = cs.codec.Decode(cs.decBuf[:0], data)
	return cs.decBuf, err
}
