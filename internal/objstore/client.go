package objstore

import (
	"bufio"
	"fmt"
	"io"
	"net"

	"griddles/internal/admit"
	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Dialer opens connections to service addresses.
type Dialer = rpc.Dialer

// Client talks to one object-store server. In cloud-storage style every
// operation runs on its own connection — there is no per-client session
// state, so the Client is safe for concurrent use (the FM's prefetch
// workers issue ranged Gets in parallel with the reader).
//
// With a retry policy set (SetRetry), operations survive transport faults:
// an interrupted GET stream resumes from the last byte delivered, and an
// interrupted PUT replays from the start of a seekable source — safe,
// because the server commits an object only when the complete upload's end
// frame arrives. Server-reported errors ("no such object") are never
// retried.
type Client struct {
	dialer Dialer
	addr   string
	clock  simclock.Clock
	retry  retry.Policy

	// codecName is the stream codec proposed for bulk Get/Put transfers
	// ("" or "raw" = no negotiation frame at all, byte-identical wire).
	codecName string

	getTotal  *obs.Counter
	getBytes  *obs.Counter
	putTotal  *obs.Counter
	putBytes  *obs.Counter
	statTotal *obs.Counter
	listTotal *obs.Counter
}

// NewClient returns a Client for the object store at addr.
func NewClient(dialer Dialer, addr string, clock simclock.Clock) *Client {
	c := &Client{dialer: dialer, addr: addr, clock: clock}
	c.SetObserver(nil)
	return c
}

// SetObserver routes this client's metrics (objstore.* in OBSERVABILITY.md)
// to o; nil discards them. Call before issuing requests.
func (c *Client) SetObserver(o *obs.Observer) {
	c.getTotal = o.Counter("objstore.get.total")
	c.getBytes = o.Counter("objstore.get.bytes")
	c.putTotal = o.Counter("objstore.put.total")
	c.putBytes = o.Counter("objstore.put.bytes")
	c.statTotal = o.Counter("objstore.stat.total")
	c.listTotal = o.Counter("objstore.list.total")
}

// SetRetry installs the resilience policy.
func (c *Client) SetRetry(p retry.Policy) { c.retry = p }

// SetCodec requests a stream codec for bulk Get/Put transfers. "" or "raw"
// (the default) sends no negotiation frame at all; any other codec is
// proposed per connection and transparently dropped to raw when the peer
// does not speak it.
func (c *Client) SetCodec(name string) { c.codecName = name }

// Codec reports the codec SetCodec configured.
func (c *Client) Codec() string { return c.codecName }

// readNegotiateReply consumes the server's answer to a capability frame:
// the negotiated state, nil for raw (including the msgError an old server
// answers for the unknown message type).
func readNegotiateReply(br *bufio.Reader) (*connCodec, error) {
	typ, resp, err := wire.ReadFrame(br)
	if err != nil {
		return nil, err
	}
	switch typ {
	case msgError:
		return nil, nil // old peer: rejected the type, connection usable
	case admit.MsgShed:
		return nil, rpc.Reply("objstore", typ, resp)
	case msgNegotiateResp:
		d := wire.NewDecoder(resp)
		chosen := d.String()
		if err := d.Err(); err != nil {
			return nil, retry.Permanent(err)
		}
		codec, err := wire.ForName(chosen)
		if err != nil {
			return nil, retry.Permanent(fmt.Errorf("objstore: server chose %w", err))
		}
		if codec == nil {
			return nil, nil
		}
		return &connCodec{codec: codec}, nil
	default:
		return nil, retry.Permanent(fmt.Errorf("objstore: unexpected negotiation reply %d", typ))
	}
}

// Addr reports the server address.
func (c *Client) Addr() string { return c.addr }

// Close releases the client. Connections are per-operation, so there is
// nothing to tear down; Close exists so clients pool cleanly.
func (c *Client) Close() error { return nil }

// dial opens a fresh connection with the retry policy's idle deadline
// armed (a later frame read re-arms it, bounding silence, not transfers).
func (c *Client) dial() (net.Conn, error) {
	conn, err := c.dialer.Dial(c.addr)
	if err != nil {
		return nil, fmt.Errorf("objstore: dial %s: %w", c.addr, err)
	}
	if idle := c.retry.Timeout(); idle > 0 {
		conn.SetDeadline(c.clock.Now().Add(idle))
	}
	return conn, nil
}

// roundTrip performs one request/response on a dedicated connection.
func (c *Client) roundTrip(reqType uint8, payload []byte, wantType uint8) ([]byte, error) {
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, reqType, payload); err != nil {
		return nil, err
	}
	typ, resp, err := wire.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		return nil, err
	}
	if err := rpc.Reply("objstore", typ, resp); err != nil {
		return nil, err
	}
	if typ != wantType {
		return nil, retry.Permanent(fmt.Errorf("objstore: unexpected reply %d", typ))
	}
	return resp, nil
}

// Stat reports whether key exists on the server and its size.
func (c *Client) Stat(key string) (size int64, exists bool, err error) {
	c.statTotal.Inc()
	err = c.retry.Do("objstore.stat", func(int) error {
		resp, err := c.roundTrip(msgStat, statReq{Key: key}.encode(), msgStatResp)
		if err != nil {
			return err
		}
		r, err := decodeStatResp(resp)
		if err != nil {
			return retry.Permanent(err)
		}
		size, exists = r.Size, r.Exists
		return nil
	})
	if err != nil {
		return 0, false, err
	}
	return size, exists, nil
}

// List reports the objects under prefix, sorted by key.
func (c *Client) List(prefix string) ([]Meta, error) {
	c.listTotal.Inc()
	var out []Meta
	err := c.retry.Do("objstore.list", func(int) error {
		resp, err := c.roundTrip(msgList, listReq{Prefix: prefix}.encode(), msgListResp)
		if err != nil {
			return err
		}
		r, err := decodeListResp(resp)
		if err != nil {
			return retry.Permanent(err)
		}
		out = r.Objects
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Get streams [off, off+length) of key into w; length < 0 means the rest
// of the object. It returns the byte count delivered and the full object
// size. With a retry policy set, a broken stream resumes from the last byte
// written to w (w only ever sees each byte once).
func (c *Client) Get(key string, off, length int64, w io.Writer) (n, size int64, err error) {
	c.getTotal.Inc()
	var total int64
	err = c.retry.Do("objstore.get", func(int) error {
		remaining := length
		if remaining >= 0 {
			remaining -= total
			if remaining <= 0 && total > 0 {
				// Every byte arrived; only the end-of-stream frame was lost.
				return nil
			}
		}
		got, sz, gerr := c.getOnce(key, off+total, remaining, w)
		total += got
		if sz > 0 || gerr == nil {
			size = sz
		}
		return gerr
	})
	c.getBytes.Add(total)
	if err != nil {
		return total, size, err
	}
	return total, size, nil
}

func (c *Client) getOnce(key string, off, length int64, w io.Writer) (total, size int64, err error) {
	conn, err := c.dial()
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	idle := c.retry.Timeout()
	br := bufio.NewReader(conn)
	var cc *connCodec
	wantCodec := c.codecName != "" && c.codecName != wire.CodecRaw
	if wantCodec {
		// The capability frame pipelines ahead of the GET: both requests go
		// out together and the replies arrive in order, so negotiation costs
		// no extra round trip even on this per-operation connection.
		neg := wire.NewEncoder().String(c.codecName).Bytes()
		if err := wire.WriteFrame(conn, msgNegotiate, neg); err != nil {
			return 0, 0, err
		}
	}
	if err := wire.WriteFrame(conn, msgGet, getReq{Key: key, Off: off, Length: length}.encode()); err != nil {
		return 0, 0, err
	}
	if wantCodec {
		var err error
		cc, err = readNegotiateReply(br)
		if err != nil {
			return 0, 0, err
		}
	}
	typ, resp, err := wire.ReadFrame(br)
	if err != nil {
		return 0, 0, err
	}
	if err := rpc.Reply("objstore", typ, resp); err != nil {
		return 0, 0, err
	}
	if typ != msgGetHdr {
		return 0, 0, retry.Permanent(fmt.Errorf("objstore: unexpected reply %d", typ))
	}
	hdr, err := decodeGetHdr(resp)
	if err != nil {
		return 0, 0, retry.Permanent(err)
	}
	size = hdr.Size
	var frameBuf []byte
	for {
		// The deadline is per frame, so it bounds silence, not the whole
		// transfer.
		if idle > 0 {
			conn.SetDeadline(c.clock.Now().Add(idle))
		}
		typ, payload, err := wire.ReadFrameInto(br, &frameBuf)
		if err != nil {
			return total, size, err
		}
		switch typ {
		case msgGetData:
			data, derr := cc.dec(payload)
			if derr != nil {
				return total, size, retry.Permanent(derr)
			}
			n, werr := w.Write(data)
			total += int64(n)
			if werr != nil {
				return total, size, retry.Permanent(werr)
			}
		case msgGetEnd:
			if total != hdr.Total {
				return total, size, retry.Permanent(fmt.Errorf("objstore: get got %d bytes, header said %d", total, hdr.Total))
			}
			return total, size, nil
		case msgError:
			return total, size, rpc.Reply("objstore", typ, payload)
		default:
			return total, size, retry.Permanent(fmt.Errorf("objstore: unexpected frame %d during get", typ))
		}
	}
}

// Put uploads r as the complete, immutable body of key, replacing any
// previous object. It returns the committed size. With a retry policy set,
// a broken upload replays from the start when r is an io.Seeker — the
// server commits only complete streams, so a replay never doubles bytes; a
// non-seekable source fails permanently once bytes have been consumed.
func (c *Client) Put(key string, r io.Reader) (int64, error) {
	c.putTotal.Inc()
	seeker, canSeek := r.(io.Seeker)
	var consumed bool
	var total int64
	err := c.retry.Do("objstore.put", func(int) error {
		if consumed && canSeek {
			if _, err := seeker.Seek(0, io.SeekStart); err != nil {
				return retry.Permanent(err)
			}
		}
		n, readAny, err := c.putOnce(key, r)
		if readAny {
			consumed = true
		}
		total = n
		if err != nil && consumed && !canSeek {
			return retry.Permanent(fmt.Errorf("objstore: put %s: source not seekable, cannot replay: %w", key, err))
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	c.putBytes.Add(total)
	return total, nil
}

func (c *Client) putOnce(key string, r io.Reader) (total int64, readAny bool, err error) {
	conn, err := c.dial()
	if err != nil {
		return 0, false, err
	}
	defer conn.Close()
	idle := c.retry.Timeout()
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)
	var cc *connCodec
	if c.codecName != "" && c.codecName != wire.CodecRaw {
		// Uploads must know the answer before encoding any data (an old
		// server would store compressed frames verbatim), so the capability
		// exchange completes before the begin frame.
		neg := wire.NewEncoder().String(c.codecName).Bytes()
		if err := wire.WriteFrame(bw, msgNegotiate, neg); err != nil {
			return 0, false, err
		}
		if err := bw.Flush(); err != nil {
			return 0, false, err
		}
		var err error
		cc, err = readNegotiateReply(br)
		if err != nil {
			return 0, false, err
		}
	}
	if err := wire.WriteFrame(bw, msgPutBegin, putBegin{Key: key}.encode()); err != nil {
		return 0, false, err
	}
	buf := make([]byte, streamChunk)
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			readAny = true
			if idle > 0 {
				conn.SetDeadline(c.clock.Now().Add(idle))
			}
			if err := wire.WriteFrame(bw, msgPutData, cc.enc(buf[:n])); err != nil {
				return 0, readAny, err
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, readAny, retry.Permanent(rerr)
		}
	}
	if err := wire.WriteFrame(bw, msgPutEnd, nil); err != nil {
		return 0, readAny, err
	}
	if err := bw.Flush(); err != nil {
		return 0, readAny, err
	}
	if idle > 0 {
		conn.SetDeadline(c.clock.Now().Add(idle))
	}
	typ, resp, err := wire.ReadFrame(br)
	if err != nil {
		return 0, readAny, err
	}
	if err := rpc.Reply("objstore", typ, resp); err != nil {
		return 0, readAny, err
	}
	if typ != msgPutResp {
		return 0, readAny, retry.Permanent(fmt.Errorf("objstore: unexpected reply %d", typ))
	}
	pr, err := decodePutResp(resp)
	if err != nil {
		return 0, readAny, retry.Permanent(err)
	}
	return pr.Size, readAny, nil
}
