package gridftp

import (
	"encoding/binary"
	"fmt"

	"griddles/internal/wire"
	"griddles/internal/xdr"
)

// Stream encoding negotiation (msgNegotiate/msgNegotiateResp): a client
// that wants a non-raw codec on a bulk fetch/put connection sends one
// capability frame before the transfer request. A new server answers with
// the codec it settled on (and whether it accepted the columnar record
// schema); an old server answers msgError for the unknown message type and
// keeps the connection usable, so the client transparently falls back to
// raw frames. A client configured for raw sends nothing at all — the wire
// bytes are identical to the pre-negotiation protocol.

const (
	maxSchemaFields = 64
	maxFieldCount   = 1 << 20
)

func orderToCode(o binary.ByteOrder) (uint8, error) {
	switch o.String() {
	case "LittleEndian":
		return 0, nil
	case "BigEndian":
		return 1, nil
	}
	return 0, fmt.Errorf("gridftp: unsupported byte order %v", o)
}

func orderFromCode(c uint8) (binary.ByteOrder, error) {
	switch c {
	case 0:
		return binary.LittleEndian, nil
	case 1:
		return binary.BigEndian, nil
	}
	return nil, fmt.Errorf("gridftp: unknown byte-order code %d", c)
}

// encodeNegotiate builds the capability frame payload: requested codec,
// then an optional record schema (field layout + the byte order the record
// bytes are in) for columnar encoding.
func encodeNegotiate(codec string, schema *xdr.Schema, order binary.ByteOrder) ([]byte, error) {
	e := wire.NewEncoder().String(codec)
	if schema == nil {
		e.Bool(false)
		return e.Bytes(), nil
	}
	oc, err := orderToCode(order)
	if err != nil {
		return nil, err
	}
	e.Bool(true).U8(oc).U32(uint32(len(schema.Fields)))
	for _, f := range schema.Fields {
		cnt := f.Count
		if cnt <= 0 {
			cnt = 1
		}
		// Field names do not travel — only the layout matters to the peer.
		e.U8(uint8(f.Kind)).U32(uint32(cnt))
	}
	return e.Bytes(), nil
}

func decodeNegotiate(payload []byte) (codec string, schema *xdr.Schema, order binary.ByteOrder, err error) {
	d := wire.NewDecoder(payload)
	codec = d.String()
	hasSchema := d.Bool()
	if err := d.Err(); err != nil {
		return "", nil, nil, err
	}
	if !hasSchema {
		return codec, nil, nil, nil
	}
	oc := d.U8()
	n := d.U32()
	if err := d.Err(); err != nil {
		return "", nil, nil, err
	}
	if n == 0 || n > maxSchemaFields {
		return "", nil, nil, fmt.Errorf("gridftp: implausible schema with %d fields", n)
	}
	s := &xdr.Schema{Fields: make([]xdr.Field, 0, n)}
	for i := uint32(0); i < n; i++ {
		kind := xdr.Kind(d.U8())
		count := d.U32()
		if err := d.Err(); err != nil {
			return "", nil, nil, err
		}
		if count > maxFieldCount {
			return "", nil, nil, fmt.Errorf("gridftp: implausible field count %d", count)
		}
		s.Fields = append(s.Fields, xdr.Field{Name: "f", Kind: kind, Count: int(count)})
	}
	if err := s.Validate(); err != nil {
		return "", nil, nil, err
	}
	order, err = orderFromCode(oc)
	if err != nil {
		return "", nil, nil, err
	}
	return codec, s, order, nil
}
