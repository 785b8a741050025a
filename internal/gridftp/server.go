// Package gridftp implements the remote file service GriddLeS leans on for
// IO mechanisms 2-5: block-granular remote reads and writes (the paper's
// "proxy file server", as in Condor), whole-file stage-in/stage-out copies,
// and optional parallel-stream transfers (the paper's nod to GridFTP's
// latency hiding).
//
// In the paper this role is played by a stock Globus GridFTP server; here it
// is a framed binary protocol over any net.Conn, so the same code runs on
// simnet in experiments and TCP in cmd/gridftpd.
package gridftp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"

	"griddles/internal/admit"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
	"griddles/internal/wire"
)

// Protocol message types.
const (
	msgOpen      = 1
	msgOpenResp  = 2
	msgRead      = 3
	msgReadResp  = 4
	msgWrite     = 5
	msgWriteResp = 6
	msgClose     = 7
	msgCloseResp = 8
	msgStat      = 9
	msgStatResp  = 10
	msgFetch     = 11
	msgFetchHdr  = 12
	msgFetchData = 13
	msgFetchEnd  = 14
	msgPut       = 15
	msgPutData   = 16
	msgPutEnd    = 17
	msgPutResp   = 18
	// Stream-encoding negotiation (see codec.go). Old servers answer the
	// unknown type with msgError and keep the connection usable, which is
	// exactly the raw fallback the client needs.
	msgNegotiate     = 19
	msgNegotiateResp = 20
	msgError         = rpc.MsgError
)

// streamChunk is the frame size used by Fetch/Put bulk streaming.
const streamChunk = 64 * 1024

// Server serves one machine's file system to remote File Multiplexers.
type Server struct {
	fs     vfs.FS
	clock  simclock.Clock
	adm    *admit.Controller
	codecs []string
}

// NewServer returns a Server exporting fsys.
func NewServer(fsys vfs.FS, clock simclock.Clock) *Server {
	return &Server{fs: fsys, clock: clock}
}

// SetAdmission installs an admission controller; nil (the default) admits
// everything, preserving the unprotected server's behaviour bit for bit.
// Control-plane operations (open, close, stat) are admitted in the Control
// class; reads, writes and the streaming fetch/put transfers are Bulk.
func (s *Server) SetAdmission(c *admit.Controller) { s.adm = c }

// SetCodecs restricts the stream codecs this server will negotiate (the
// daemon's -codecs flag). Empty (the default) accepts everything this
// build supports; raw is always available regardless.
func (s *Server) SetCodecs(names []string) { s.codecs = names }

// classOf maps a request type to its admission class.
func classOf(typ uint8) admit.Class {
	switch typ {
	case msgOpen, msgClose, msgStat, msgNegotiate:
		return admit.Control
	}
	return admit.Bulk
}

// Serve accepts connections until l is closed; each gets a session and runs
// the shared request loop (see rpc.Serve, rpc.ServeConn).
func (s *Server) Serve(l net.Listener) {
	rpc.Serve(l, s.clock, "gridftp-conn", s.adm, s.handle)
}

// session is the per-connection handle table plus the negotiated stream
// encoding state.
type session struct {
	srv     *Server
	mu      sync.Mutex
	next    uint64
	handles map[uint64]vfs.File
	sc      *rpc.StreamCodec
	// reply is the msgReadResp payload every read up to the window cap is
	// read into and sent from; requests are answered one at a time, so it is
	// free again when the next one arrives.
	reply []byte
}

func (s *Server) handle(conn net.Conn) {
	sess := &session{srv: s, next: 1, handles: make(map[uint64]vfs.File)}
	defer func() {
		sess.mu.Lock()
		for _, f := range sess.handles {
			f.Close()
		}
		sess.mu.Unlock()
	}()
	rpc.ServeConn(conn, s.adm, rpc.Handler{
		Class:    classOf,
		Dispatch: sess.dispatch,
		Drain: func(r *bufio.Reader, typ uint8) {
			if typ == msgPut {
				// The client streams the upload regardless of the shed.
				rpc.Drain(r, msgPutEnd)
			}
		},
	})
}

func (sess *session) file(h uint64) (vfs.File, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	f, ok := sess.handles[h]
	if !ok {
		return nil, fmt.Errorf("gridftp: unknown handle %d", h)
	}
	return f, nil
}

func (sess *session) dispatch(w io.Writer, r *bufio.Reader, typ uint8, payload []byte) error {
	d := wire.NewDecoder(payload)
	switch typ {
	case msgOpen:
		path := d.String()
		flag := int(d.U32())
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		f, err := sess.srv.fs.OpenFile(path, flag, 0o644)
		if err != nil {
			return rpc.WriteError(w, err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return rpc.WriteError(w, err)
		}
		sess.mu.Lock()
		h := sess.next
		sess.next++
		sess.handles[h] = f
		sess.mu.Unlock()
		return wire.WriteFrame(w, msgOpenResp, wire.NewEncoder().U64(h).I64(fi.Size()).Bytes())

	case msgRead:
		h, off, n := d.U64(), d.I64(), d.U32()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		if n > wire.MaxFrame/2 {
			return rpc.WriteError(w, errors.New("gridftp: read too large"))
		}
		f, err := sess.file(h)
		if err != nil {
			return rpc.WriteError(w, err)
		}
		return sess.read(w, f, off, int(n))

	case msgWrite:
		h, off := d.U64(), d.I64()
		data := d.Bytes32()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		f, err := sess.file(h)
		if err != nil {
			return rpc.WriteError(w, err)
		}
		n, werr := f.WriteAt(data, off)
		if werr != nil {
			return rpc.WriteError(w, werr)
		}
		return wire.WriteFrame(w, msgWriteResp, wire.NewEncoder().U32(uint32(n)).Bytes())

	case msgClose:
		h := d.U64()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		sess.mu.Lock()
		f, ok := sess.handles[h]
		delete(sess.handles, h)
		sess.mu.Unlock()
		if !ok {
			return rpc.WriteError(w, fmt.Errorf("gridftp: unknown handle %d", h))
		}
		if err := f.Close(); err != nil {
			return rpc.WriteError(w, err)
		}
		return wire.WriteFrame(w, msgCloseResp, nil)

	case msgStat:
		path := d.String()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		fi, err := sess.srv.fs.Stat(path)
		e := wire.NewEncoder()
		if err != nil {
			e.Bool(false).I64(0)
		} else {
			e.Bool(true).I64(fi.Size())
		}
		return wire.WriteFrame(w, msgStatResp, e.Bytes())

	case msgFetch:
		path := d.String()
		off, length := d.I64(), d.I64()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		return sess.fetch(w, path, off, length)

	case msgPut:
		path := d.String()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		return sess.put(w, r, path)

	case msgNegotiate:
		req, schema, order, err := decodeNegotiate(payload)
		if err != nil {
			return rpc.WriteError(w, err)
		}
		chosen := wire.NegotiateCodec(req, sess.srv.codecs)
		codec, err := wire.ForName(chosen)
		if err != nil {
			return rpc.WriteError(w, err)
		}
		columnar := false
		if codec != nil {
			sess.sc = &rpc.StreamCodec{Block: codec}
			if schema != nil {
				sess.sc.Schema, sess.sc.Order = schema, order
				columnar = true
			}
		} else {
			sess.sc = nil
		}
		e := wire.NewEncoder().String(chosen).Bool(columnar)
		return wire.WriteFrame(w, msgNegotiateResp, e.Bytes())

	default:
		return rpc.WriteError(w, fmt.Errorf("gridftp: unknown message type %d", typ))
	}
}

// readPrefix is the length of what leads the data in a msgReadResp payload:
// the eof flag and the data length (wire.Encoder's Bool and Bytes32).
const readPrefix = 5

// read answers one msgRead. The file is read straight into the reply payload,
// behind its prefix, and the payload leaves as one frame: no copy between the
// file and the connection's writer. A read up to the window cap lands in the
// session's reply buffer; a larger one gets a buffer of its own, so a session
// holds at most the cap plus the prefix between requests.
func (sess *session) read(w io.Writer, f vfs.File, off int64, n int) error {
	var buf []byte
	if n <= rpc.WindowMax {
		if cap(sess.reply) < readPrefix+n {
			sess.reply = make([]byte, readPrefix+n)
		}
		buf = sess.reply[:readPrefix+n]
	} else {
		buf = make([]byte, readPrefix+n)
	}
	got, err := f.ReadAt(buf[readPrefix:], off)
	if err != nil && err != io.EOF {
		return rpc.WriteError(w, err)
	}
	buf[0] = 0
	if err == io.EOF {
		buf[0] = 1
	}
	binary.BigEndian.PutUint32(buf[1:readPrefix], uint32(got))
	return wire.WriteFrameV(w, msgReadResp, buf[:readPrefix+got])
}

// fetch streams [off, off+length) of path; length < 0 means "to EOF".
func (sess *session) fetch(w io.Writer, path string, off, length int64) error {
	f, err := sess.srv.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return rpc.WriteError(w, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return rpc.WriteError(w, err)
	}
	if off < 0 {
		off = 0
	}
	end := fi.Size()
	if length >= 0 && off+length < end {
		end = off + length
	}
	if off > end {
		off = end
	}
	st := rpc.Over("gridftp", w, nil)
	err = st.Send(fetchFrames, wire.NewEncoder().I64(end-off).Bytes(), io.NewSectionReader(f, off, end-off), streamChunk, sess.sc)
	return st.Finish(err)
}

// put receives streamed data frames and writes them to path.
func (sess *session) put(w io.Writer, r *bufio.Reader, path string) error {
	f, err := sess.srv.fs.OpenFile(path, vfs.CreateTruncFlag, 0o644)
	if err != nil {
		// Drain the incoming stream so the connection stays usable.
		rpc.Drain(r, msgPutEnd)
		return rpc.WriteError(w, err)
	}
	st := rpc.Over("gridftp", w, r)
	total, err := st.Recv(putFrames, -1, f, sess.sc)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = retry.Permanent(cerr)
	}
	if err != nil {
		return st.Finish(err)
	}
	return wire.WriteFrame(w, msgPutResp, wire.NewEncoder().I64(total).Bytes())
}
