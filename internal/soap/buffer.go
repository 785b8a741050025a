package soap

import (
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"

	"griddles/internal/gridbuffer"
	"griddles/internal/simclock"
)

// BufferPath is the endpoint the Grid Buffer service is exposed at.
const BufferPath = "/GridBufferService"

// Envelope is a SOAP 1.1 envelope holding exactly one operation element.
type Envelope struct {
	XMLName xml.Name `xml:"http://schemas.xmlsoap.org/soap/envelope/ Envelope"`
	Body    Body     `xml:"http://schemas.xmlsoap.org/soap/envelope/ Body"`
}

// Body carries the operation or a fault.
type Body struct {
	Attach         *AttachReq  `xml:"Attach,omitempty"`
	AttachResp     *AttachResp `xml:"AttachResponse,omitempty"`
	Put            *PutReq     `xml:"Put,omitempty"`
	PutResp        *OKResp     `xml:"PutResponse,omitempty"`
	Get            *GetReq     `xml:"Get,omitempty"`
	GetResp        *GetResp    `xml:"GetResponse,omitempty"`
	CloseWrite     *CloseReq   `xml:"CloseWrite,omitempty"`
	CloseWriteResp *OKResp     `xml:"CloseWriteResponse,omitempty"`
	Detach         *DetachReq  `xml:"Detach,omitempty"`
	DetachResp     *OKResp     `xml:"DetachResponse,omitempty"`
	Fault          *Fault      `xml:"Fault,omitempty"`
}

// Fault is a SOAP fault.
type Fault struct {
	Code   string `xml:"faultcode"`
	String string `xml:"faultstring"`
}

// AttachReq creates/joins a buffer. Role is "writer" or "reader".
type AttachReq struct {
	Key       string `xml:"key"`
	Role      string `xml:"role"`
	BlockSize int    `xml:"blockSize"`
	Cache     bool   `xml:"cache"`
	Readers   int    `xml:"readers"`
}

// AttachResp reports the negotiated parameters.
type AttachResp struct {
	ReaderID  int `xml:"readerId"`
	BlockSize int `xml:"blockSize"`
}

// PutReq stores one block; Data is base64 (as 2004 SOAP stacks shipped
// binary).
type PutReq struct {
	Key   string `xml:"key"`
	Index int64  `xml:"index"`
	Data  string `xml:"data"`
}

// GetReq fetches one block.
type GetReq struct {
	Key      string `xml:"key"`
	ReaderID int    `xml:"readerId"`
	Index    int64  `xml:"index"`
}

// GetResp returns a block or the end-of-stream marker.
type GetResp struct {
	EOF  bool   `xml:"eof"`
	Data string `xml:"data"`
}

// CloseReq marks end-of-stream.
type CloseReq struct {
	Key   string `xml:"key"`
	Total int64  `xml:"total"`
}

// DetachReq releases a reader.
type DetachReq struct {
	Key      string `xml:"key"`
	ReaderID int    `xml:"readerId"`
}

// OKResp is an empty acknowledgement.
type OKResp struct{}

// Marshal encodes a body into a full envelope document.
func Marshal(body Body) ([]byte, error) {
	data, err := xml.Marshal(Envelope{Body: body})
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), data...), nil
}

// Unmarshal decodes an envelope document.
func Unmarshal(data []byte) (Body, error) {
	var env Envelope
	if err := xml.Unmarshal(data, &env); err != nil {
		return Body{}, fmt.Errorf("soap: %w", err)
	}
	return env.Body, nil
}

// BufferServer exposes a gridbuffer.Registry as the SOAP service.
type BufferServer struct {
	reg *gridbuffer.Registry
}

// NewBufferServer returns the service for reg; install its Handle with an
// HTTPServer.
func NewBufferServer(reg *gridbuffer.Registry) *BufferServer {
	return &BufferServer{reg: reg}
}

// Handle implements Handler.
func (s *BufferServer) Handle(path string, reqBody []byte) (int, []byte) {
	if path != BufferPath {
		return 400, fault("Client", "unknown endpoint "+path)
	}
	body, err := Unmarshal(reqBody)
	if err != nil {
		return 400, fault("Client", err.Error())
	}
	resp, err := s.dispatch(body)
	if err != nil {
		return 500, fault("Server", err.Error())
	}
	out, err := Marshal(resp)
	if err != nil {
		return 500, fault("Server", err.Error())
	}
	return 200, out
}

func fault(code, msg string) []byte {
	out, err := Marshal(Body{Fault: &Fault{Code: "soap:" + code, String: msg}})
	if err != nil {
		return []byte(msg)
	}
	return out
}

func (s *BufferServer) dispatch(body Body) (Body, error) {
	switch {
	case body.Attach != nil:
		r := body.Attach
		b, err := s.reg.GetOrCreate(r.Key, gridbuffer.Options{
			BlockSize: r.BlockSize, Cache: r.Cache, Readers: r.Readers,
		})
		if err != nil {
			return Body{}, err
		}
		id := -1
		if r.Role == "reader" {
			id = b.Attach()
		}
		return Body{AttachResp: &AttachResp{ReaderID: id, BlockSize: b.BlockSize()}}, nil

	case body.Put != nil:
		r := body.Put
		b, ok := s.reg.Lookup(r.Key)
		if !ok {
			return Body{}, fmt.Errorf("no buffer %q", r.Key)
		}
		data, err := base64.StdEncoding.DecodeString(r.Data)
		if err != nil {
			return Body{}, fmt.Errorf("bad block data: %w", err)
		}
		if err := b.Put(r.Index, data); err != nil {
			return Body{}, err
		}
		return Body{PutResp: &OKResp{}}, nil

	case body.Get != nil:
		r := body.Get
		b, ok := s.reg.Lookup(r.Key)
		if !ok {
			return Body{}, fmt.Errorf("no buffer %q", r.Key)
		}
		data, eof, err := b.Get(r.ReaderID, r.Index)
		if err != nil {
			return Body{}, err
		}
		return Body{GetResp: &GetResp{EOF: eof, Data: base64.StdEncoding.EncodeToString(data)}}, nil

	case body.CloseWrite != nil:
		r := body.CloseWrite
		b, ok := s.reg.Lookup(r.Key)
		if !ok {
			return Body{}, fmt.Errorf("no buffer %q", r.Key)
		}
		if err := b.CloseWrite(r.Total); err != nil {
			return Body{}, err
		}
		return Body{CloseWriteResp: &OKResp{}}, nil

	case body.Detach != nil:
		r := body.Detach
		if b, ok := s.reg.Lookup(r.Key); ok {
			b.Detach(r.ReaderID)
		}
		return Body{DetachResp: &OKResp{}}, nil

	default:
		return Body{}, fmt.Errorf("empty SOAP body")
	}
}

// call performs one SOAP round trip with the period's polite-close
// teardown.
func call(clock simclock.Clock, dialer Dialer, addr string, req Body) (Body, error) {
	payload, err := Marshal(req)
	if err != nil {
		return Body{}, err
	}
	respBytes, err := PostWithClock(clock, dialer, addr, BufferPath, payload)
	if err != nil {
		if he, ok := err.(*HTTPError); ok {
			if body, uerr := Unmarshal([]byte(he.Body)); uerr == nil && body.Fault != nil {
				return Body{}, fmt.Errorf("soap fault %s: %s", body.Fault.Code, body.Fault.String)
			}
		}
		return Body{}, err
	}
	resp, err := Unmarshal(respBytes)
	if err != nil {
		return Body{}, err
	}
	if resp.Fault != nil {
		return Body{}, fmt.Errorf("soap fault %s: %s", resp.Fault.Code, resp.Fault.String)
	}
	return resp, nil
}

// BufferWriter streams sequential writes into a Grid Buffer over SOAP, one
// envelope per block. It implements io.WriteCloser.
type BufferWriter struct {
	clock     simclock.Clock
	dialer    Dialer
	addr      string
	key       string
	blockSize int
	partial   []byte
	nextIdx   int64
	total     int64
	closed    bool
}

// NewBufferWriter attaches (as writer) to key at addr.
func NewBufferWriter(clock simclock.Clock, dialer Dialer, addr, key string, opts gridbuffer.Options) (*BufferWriter, error) {
	resp, err := call(clock, dialer, addr, Body{Attach: &AttachReq{
		Key: key, Role: "writer", BlockSize: opts.BlockSize, Cache: opts.Cache, Readers: opts.Readers,
	}})
	if err != nil {
		return nil, err
	}
	if resp.AttachResp == nil {
		return nil, fmt.Errorf("soap: attach returned no response")
	}
	return &BufferWriter{clock: clock, dialer: dialer, addr: addr, key: key, blockSize: resp.AttachResp.BlockSize}, nil
}

// Write implements io.Writer.
func (w *BufferWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("soap: write after close")
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
			if err := w.flushBlock(); err != nil {
				return total, err
			}
		}
	}
	w.total += int64(total)
	return total, nil
}

func (w *BufferWriter) flushBlock() error {
	req := Body{Put: &PutReq{Key: w.key, Index: w.nextIdx, Data: base64.StdEncoding.EncodeToString(w.partial)}}
	w.nextIdx++
	w.partial = w.partial[:0]
	_, err := call(w.clock, w.dialer, w.addr, req)
	return err
}

// Close flushes the tail and marks end-of-stream.
func (w *BufferWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.partial) > 0 {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	_, err := call(w.clock, w.dialer, w.addr, Body{CloseWrite: &CloseReq{Key: w.key, Total: w.total}})
	return err
}

// BufferReader consumes a Grid Buffer over SOAP, one envelope per block.
// It implements io.ReadSeekCloser; backward seeks are served by the
// service's cache file exactly as with the binary transport.
type BufferReader struct {
	clock     simclock.Clock
	dialer    Dialer
	addr      string
	key       string
	readerID  int
	blockSize int
	pos       int64
	cur       []byte
	total     int64 // stream length or best upper bound; -1 unknown
	closed    bool
}

// NewBufferReader attaches (as reader) to key at addr.
func NewBufferReader(clock simclock.Clock, dialer Dialer, addr, key string, opts gridbuffer.Options) (*BufferReader, error) {
	resp, err := call(clock, dialer, addr, Body{Attach: &AttachReq{
		Key: key, Role: "reader", BlockSize: opts.BlockSize, Cache: opts.Cache, Readers: opts.Readers,
	}})
	if err != nil {
		return nil, err
	}
	if resp.AttachResp == nil {
		return nil, fmt.Errorf("soap: attach returned no response")
	}
	return &BufferReader{
		clock: clock, dialer: dialer, addr: addr, key: key,
		readerID: resp.AttachResp.ReaderID, blockSize: resp.AttachResp.BlockSize,
		total: -1,
	}, nil
}

func (r *BufferReader) noteTotal(v int64) {
	if r.total < 0 || v < r.total {
		r.total = v
	}
}

// Read implements io.Reader: blocks (in simulated or real time) until the
// writer produces the next block.
func (r *BufferReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, fmt.Errorf("soap: read after close")
	}
	bs := int64(r.blockSize)
	for len(r.cur) == 0 {
		if r.total >= 0 && r.pos >= r.total {
			return 0, io.EOF
		}
		idx := r.pos / bs
		resp, err := call(r.clock, r.dialer, r.addr, Body{Get: &GetReq{Key: r.key, ReaderID: r.readerID, Index: idx}})
		if err != nil {
			return 0, err
		}
		if resp.GetResp == nil {
			return 0, fmt.Errorf("soap: get returned no response")
		}
		if resp.GetResp.EOF {
			r.noteTotal(idx * bs)
			continue
		}
		data, err := base64.StdEncoding.DecodeString(resp.GetResp.Data)
		if err != nil {
			return 0, fmt.Errorf("soap: bad block data: %w", err)
		}
		if len(data) < r.blockSize {
			r.noteTotal(idx*bs + int64(len(data)))
		}
		off := r.pos - idx*bs
		if off < 0 || off >= int64(len(data)) {
			continue // position past a short tail; the total re-check exits
		}
		r.cur = data[off:]
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	r.pos += int64(n)
	return n, nil
}

// Seek implements io.Seeker (start- and current-relative).
func (r *BufferReader) Seek(offset int64, whence int) (int64, error) {
	if r.closed {
		return 0, fmt.Errorf("soap: seek after close")
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = r.pos
	default:
		return 0, fmt.Errorf("soap: unsupported whence %d", whence)
	}
	npos := base + offset
	if npos < 0 {
		return 0, fmt.Errorf("soap: negative seek")
	}
	if npos != r.pos {
		r.cur = nil
		r.pos = npos
	}
	return npos, nil
}

// Close detaches the reader.
func (r *BufferReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	_, err := call(r.clock, r.dialer, r.addr, Body{Detach: &DetachReq{Key: r.key, ReaderID: r.readerID}})
	return err
}

// ServeBuffer is a convenience: an HTTPServer wired to a BufferServer.
func ServeBuffer(clock simclock.Clock, reg *gridbuffer.Registry) *HTTPServer {
	return NewHTTPServer(clock, NewBufferServer(reg).Handle)
}
