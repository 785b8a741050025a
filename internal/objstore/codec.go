package objstore

import (
	"errors"
	"fmt"

	"griddles/internal/rpc"
	"griddles/internal/wire"
)

// Protocol message types. A GET response is a header frame, zero or more
// data frames, then an end frame — one rpc.Stream transfer, as a gridftp
// fetch is, so a broken stream is resumable from the bytes delivered. A PUT
// is a begin frame, zero or more data frames, then an end frame; the server
// commits the object only when the end frame arrives, which is what makes
// the upload atomic.
const (
	msgStat     = 1
	msgStatResp = 2
	msgGet      = 3
	msgGetHdr   = 4
	msgGetData  = 5
	msgGetEnd   = 6
	msgPutBegin = 7
	msgPutData  = 8
	msgPutEnd   = 9
	msgPutResp  = 10
	msgList     = 11
	msgListResp = 12
	// Stream-encoding negotiation: a client that wants a compressed
	// connection sends one capability frame (the codec name) before its
	// operation; a new server answers with the codec it settled on, while an
	// old server answers msgError for the unknown type and keeps the
	// connection usable, so the client transparently falls back to raw. A
	// client configured raw sends nothing at all — byte-identical wire.
	msgNegotiate     = 13
	msgNegotiateResp = 14
	msgError         = rpc.MsgError
)

// streamChunk is the frame size GET/PUT bulk streaming uses.
const streamChunk = 64 * 1024

// maxListKeys bounds a LIST reply against corrupt counts.
const maxListKeys = 1 << 20

// statReq asks for one object's existence and size.
type statReq struct {
	Key string
}

func (r statReq) encode() []byte {
	return wire.NewEncoder().String(r.Key).Bytes()
}

func decodeStatReq(p []byte) (statReq, error) {
	d := wire.NewDecoder(p)
	r := statReq{Key: d.String()}
	return r, d.Err()
}

// statResp answers a statReq.
type statResp struct {
	Exists bool
	Size   int64
}

func (r statResp) encode() []byte {
	return wire.NewEncoder().Bool(r.Exists).I64(r.Size).Bytes()
}

func decodeStatResp(p []byte) (statResp, error) {
	d := wire.NewDecoder(p)
	r := statResp{Exists: d.Bool(), Size: d.I64()}
	return r, d.Err()
}

// getReq asks for [Off, Off+Length) of an object; Length < 0 means the rest
// of the object.
type getReq struct {
	Key    string
	Off    int64
	Length int64
}

func (r getReq) encode() []byte {
	return wire.NewEncoder().String(r.Key).I64(r.Off).I64(r.Length).Bytes()
}

func decodeGetReq(p []byte) (getReq, error) {
	d := wire.NewDecoder(p)
	r := getReq{Key: d.String(), Off: d.I64(), Length: d.I64()}
	if err := d.Err(); err != nil {
		return getReq{}, err
	}
	if r.Off < 0 {
		return getReq{}, fmt.Errorf("objstore: negative get offset %d", r.Off)
	}
	return r, nil
}

// getHdr opens a GET stream: Total is the byte count the data frames will
// carry; Size is the full object size (so a ranged reader learns the end).
type getHdr struct {
	Total int64
	Size  int64
}

func (r getHdr) encode() []byte {
	return wire.NewEncoder().I64(r.Total).I64(r.Size).Bytes()
}

func decodeGetHdr(p []byte) (getHdr, error) {
	d := wire.NewDecoder(p)
	r := getHdr{Total: d.I64(), Size: d.I64()}
	if err := d.Err(); err != nil {
		return getHdr{}, err
	}
	if r.Total < 0 || r.Size < 0 || r.Total > r.Size {
		return getHdr{}, errors.New("objstore: inconsistent get header")
	}
	return r, nil
}

// putBegin opens a PUT stream for one object key.
type putBegin struct {
	Key string
}

func (r putBegin) encode() []byte {
	return wire.NewEncoder().String(r.Key).Bytes()
}

func decodePutBegin(p []byte) (putBegin, error) {
	d := wire.NewDecoder(p)
	r := putBegin{Key: d.String()}
	if err := d.Err(); err != nil {
		return putBegin{}, err
	}
	if r.Key == "" {
		return putBegin{}, errors.New("objstore: empty object key")
	}
	return r, nil
}

// putResp acknowledges a committed PUT with the object size.
type putResp struct {
	Size int64
}

func (r putResp) encode() []byte {
	return wire.NewEncoder().I64(r.Size).Bytes()
}

func decodePutResp(p []byte) (putResp, error) {
	d := wire.NewDecoder(p)
	r := putResp{Size: d.I64()}
	return r, d.Err()
}

// listReq asks for the objects under a key prefix.
type listReq struct {
	Prefix string
}

func (r listReq) encode() []byte {
	return wire.NewEncoder().String(r.Prefix).Bytes()
}

func decodeListReq(p []byte) (listReq, error) {
	d := wire.NewDecoder(p)
	r := listReq{Prefix: d.String()}
	return r, d.Err()
}

// listResp answers a listReq with the matching objects, sorted by key.
type listResp struct {
	Objects []Meta
}

func (r listResp) encode() []byte {
	e := wire.NewEncoder().U32(uint32(len(r.Objects)))
	for _, o := range r.Objects {
		e.String(o.Key).I64(o.Size)
	}
	return e.Bytes()
}

func decodeListResp(p []byte) (listResp, error) {
	d := wire.NewDecoder(p)
	n := d.U32()
	if err := d.Err(); err != nil {
		return listResp{}, err
	}
	if n > maxListKeys {
		return listResp{}, fmt.Errorf("objstore: oversized list reply (%d keys)", n)
	}
	r := listResp{}
	for i := uint32(0); i < n; i++ {
		m := Meta{Key: d.String(), Size: d.I64()}
		if err := d.Err(); err != nil {
			return listResp{}, err
		}
		r.Objects = append(r.Objects, m)
	}
	return r, nil
}
