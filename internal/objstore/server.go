package objstore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"

	"griddles/internal/admit"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Server serves one Store to remote File Multiplexers.
type Server struct {
	store  *Store
	clock  simclock.Clock
	adm    *admit.Controller
	codecs []string
}

// NewServer returns a Server exporting store.
func NewServer(store *Store, clock simclock.Clock) *Server {
	return &Server{store: store, clock: clock}
}

// Store reports the object table this server exports (for seeding tests).
func (s *Server) Store() *Store { return s.store }

// SetAdmission installs an admission controller; nil (the default) admits
// everything, preserving the unprotected server's behaviour bit for bit.
// Stat and list are Control class; object gets and puts are Bulk.
func (s *Server) SetAdmission(c *admit.Controller) { s.adm = c }

// SetCodecs restricts the stream codecs this server will negotiate (the
// daemon's -codecs flag). Empty (the default) accepts everything this build
// supports; raw is always available regardless.
func (s *Server) SetCodecs(names []string) { s.codecs = names }

// classOf maps a request type to its admission class.
func classOf(typ uint8) admit.Class {
	switch typ {
	case msgStat, msgList, msgNegotiate:
		return admit.Control
	}
	return admit.Bulk
}

// Serve accepts connections until l is closed; each runs the shared request
// loop (see rpc.Serve, rpc.ServeConn) with its own negotiated codec state.
func (s *Server) Serve(l net.Listener) {
	rpc.Serve(l, s.clock, "objstore-conn", s.adm, func(conn net.Conn) {
		sc := &rpc.StreamCodec{}
		rpc.ServeConn(conn, s.adm, rpc.Handler{
			Class: classOf,
			Dispatch: func(w io.Writer, r *bufio.Reader, typ uint8, payload []byte) error {
				return s.dispatch(w, r, typ, payload, sc)
			},
			Drain: func(r *bufio.Reader, typ uint8) {
				if typ == msgPutBegin {
					// The client streams the upload regardless of the shed.
					rpc.Drain(r, msgPutEnd)
				}
			},
		})
	})
}

func (s *Server) dispatch(w io.Writer, r *bufio.Reader, typ uint8, payload []byte, sc *rpc.StreamCodec) error {
	switch typ {
	case msgNegotiate:
		d := wire.NewDecoder(payload)
		req := d.String()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		chosen := wire.NegotiateCodec(req, s.codecs)
		codec, err := wire.ForName(chosen)
		if err != nil {
			return rpc.WriteError(w, err)
		}
		sc.Block = codec
		return wire.WriteFrame(w, msgNegotiateResp, wire.NewEncoder().String(chosen).Bytes())

	case msgStat:
		req, err := decodeStatReq(payload)
		if err != nil {
			return rpc.WriteError(w, err)
		}
		size, exists := s.store.Stat(req.Key)
		return wire.WriteFrame(w, msgStatResp, statResp{Exists: exists, Size: size}.encode())

	case msgGet:
		req, err := decodeGetReq(payload)
		if err != nil {
			return rpc.WriteError(w, err)
		}
		return s.get(w, req, sc)

	case msgList:
		req, err := decodeListReq(payload)
		if err != nil {
			return rpc.WriteError(w, err)
		}
		return wire.WriteFrame(w, msgListResp, listResp{Objects: s.store.List(req.Prefix)}.encode())

	case msgPutBegin:
		req, err := decodePutBegin(payload)
		if err != nil {
			rpc.Drain(r, msgPutEnd)
			return rpc.WriteError(w, err)
		}
		return s.put(w, r, req.Key, sc)

	default:
		return rpc.WriteError(w, fmt.Errorf("objstore: unknown message type %d", typ))
	}
}

// get streams the requested range as header, data frames, end.
func (s *Server) get(w io.Writer, req getReq, sc *rpc.StreamCodec) error {
	data, ok := s.store.Get(req.Key)
	if !ok {
		return rpc.WriteError(w, fmt.Errorf("objstore: %s: no such object", req.Key))
	}
	size := int64(len(data))
	off := req.Off
	if off > size {
		off = size
	}
	end := size
	if req.Length >= 0 && off+req.Length < end {
		end = off + req.Length
	}
	st := rpc.Over("objstore", w, nil)
	err := st.Send(getFrames, getHdr{Total: end - off, Size: size}.encode(), bytes.NewReader(data[off:end]), streamChunk, sc)
	return st.Finish(err)
}

// put accumulates the upload stream and commits it atomically when the end
// frame arrives. A connection that dies mid-stream commits nothing — that
// is the whole-object atomic PUT contract, and it is what makes a client
// replay after a transport fault safe (the object appears exactly once,
// complete).
func (s *Server) put(w io.Writer, r *bufio.Reader, key string, sc *rpc.StreamCodec) error {
	var body Body
	st := rpc.Over("objstore", w, r)
	if _, err := st.Recv(putFrames, -1, &body, sc); err != nil {
		return st.Finish(err)
	}
	data := body.Bytes()
	s.store.Put(key, data)
	return wire.WriteFrame(w, msgPutResp, putResp{Size: int64(len(data))}.encode())
}
