package objstore

import (
	"errors"
	"fmt"
	"io"

	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Dialer opens connections to service addresses.
type Dialer = rpc.Dialer

// Client talks to one object-store server. Every exchange — a Stat, a List,
// one attempt of a Get or a Put — owns a connection for as long as it runs
// and hands it back to the client's cache (rpc.Channels) when it ends clean,
// so back-to-back operations share one connection and concurrent ones each
// have their own: there is no per-client session state and the Client is safe
// for concurrent use (the FM's prefetch workers issue ranged Gets in parallel
// with the reader). Close closes the connections kept.
//
// With a retry policy set (SetRetry), operations survive transport faults:
// an interrupted GET stream resumes from the last byte delivered, and an
// interrupted PUT replays from the start of a seekable source — safe,
// because the server commits an object only when the complete upload's end
// frame arrives. Server-reported errors ("no such object") are never
// retried.
type Client struct {
	chans rpc.Channels
	retry retry.Policy

	// codecName is the stream codec proposed for bulk Get/Put transfers
	// ("" or "raw" = no negotiation frame at all, byte-identical wire).
	codecName string

	getTotal  *obs.Counter
	getBytes  *obs.Counter
	putTotal  *obs.Counter
	putBytes  *obs.Counter
	statTotal *obs.Counter
	listTotal *obs.Counter
	codecRaw  *obs.Counter
	codecWire *obs.Counter
}

// NewClient returns a Client for the object store at addr.
func NewClient(dialer Dialer, addr string, clock simclock.Clock) *Client {
	c := &Client{chans: rpc.Channels{Service: "objstore", Dialer: dialer, Addr: addr, Clock: clock}}
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
	c.codecRaw = o.Counter("wire.codec.raw.bytes")
	c.codecWire = o.Counter("wire.codec.wire.bytes")
	c.chans.Dials = o.Counter("objstore.conn.dial.total")
	c.chans.Reuses = o.Counter("objstore.conn.reuse.total")
}

// SetRetry installs the resilience policy.
func (c *Client) SetRetry(p retry.Policy) { c.retry = p }

// SetCodec requests a stream codec for bulk Get/Put transfers. "" or "raw"
// (the default) sends no negotiation frame at all; any other codec is
// proposed in front of every transfer and transparently dropped to raw when
// the peer does not speak it. Call before issuing requests.
func (c *Client) SetCodec(name string) { c.codecName = name }

// Codec reports the codec SetCodec configured.
func (c *Client) Codec() string { return c.codecName }

// wantCodec reports whether transfers propose a codec at all.
func (c *Client) wantCodec() bool { return c.codecName != "" && c.codecName != wire.CodecRaw }

// negotiated consumes the server's answer to a capability frame: the
// negotiated state, nil for raw (including the error frame an old server
// answers for the unknown message type, keeping the connection).
func (c *Client) negotiated(s *rpc.Stream) (*rpc.StreamCodec, error) {
	_, resp, err := s.Reply(msgNegotiateResp)
	var old *rpc.ServerError
	if errors.As(err, &old) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
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
	return &rpc.StreamCodec{Block: codec, Raw: c.codecRaw, Wire: c.codecWire}, nil
}

// Addr reports the server address.
func (c *Client) Addr() string { return c.chans.Addr }

// Close closes the connections the client kept between operations. A client
// used afterwards still works, dialing for every exchange.
func (c *Client) Close() error { return c.chans.Close() }

// roundTrip performs one request/response.
func (c *Client) roundTrip(reqType uint8, payload []byte, wantType uint8) (resp []byte, err error) {
	err = c.chans.Do(c.retry.Timeout(), nil, func(s *rpc.Stream) error {
		_, resp, err = s.Call(reqType, payload, wantType)
		return err
	})
	return resp, err
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

// The two transfers of the data channel (see rpc.Stream): what the server
// sends for a GET and what the client sends for a PUT.
var (
	getFrames = rpc.Frames{Verb: "get", Hdr: msgGetHdr, Data: msgGetData, End: msgGetEnd}
	putFrames = rpc.Frames{Verb: "put", Hdr: msgPutBegin, Data: msgPutData, End: msgPutEnd}
)

// Get streams [off, off+length) of key into w; length < 0 means the rest
// of the object. It returns the byte count delivered and the full object
// size. With a retry policy set, a broken stream resumes from the last byte
// written to w (w only ever sees each byte once).
func (c *Client) Get(key string, off, length int64, w io.Writer) (n, size int64, err error) {
	c.getTotal.Inc()
	n, err = rpc.Resume(c.retry, "objstore.get", length, func(done, remaining int64) (n int64, err error) {
		err = c.chans.Do(c.retry.Timeout(), nil, func(s *rpc.Stream) error {
			var sc *rpc.StreamCodec
			if c.wantCodec() {
				// The capability frame pipelines ahead of the GET: both requests go
				// out together and the replies arrive in order, so negotiating in
				// front of every transfer costs no extra round trip.
				if err := s.Request(msgNegotiate, wire.NewEncoder().String(c.codecName).Bytes()); err != nil {
					return err
				}
			}
			if err := s.Request(msgGet, getReq{Key: key, Off: off + done, Length: remaining}.encode()); err != nil {
				return err
			}
			if c.wantCodec() {
				var err error
				if sc, err = c.negotiated(s); err != nil {
					return err
				}
			}
			_, resp, err := s.Reply(msgGetHdr)
			if err != nil {
				return err
			}
			hdr, err := decodeGetHdr(resp)
			if err != nil {
				return retry.Permanent(err)
			}
			size = hdr.Size
			n, err = s.Recv(getFrames, hdr.Total, w, sc)
			return err
		})
		return n, err
	})
	c.getBytes.Add(n)
	return n, size, err
}

// Put uploads r as the complete, immutable body of key, replacing any
// previous object. It returns the committed size. With a retry policy set,
// a broken upload replays from the start when r is an io.Seeker — the
// server commits only complete streams, so a replay never doubles bytes; a
// non-seekable source fails permanently once bytes have been consumed, and
// for that reason always uploads on a freshly dialed connection.
func (c *Client) Put(key string, r io.Reader) (int64, error) {
	c.putTotal.Inc()
	size, err := rpc.Replay(c.retry, "objstore.put", key, r, func(up *rpc.Source) (size int64, err error) {
		err = c.chans.Do(c.retry.Timeout(), up, func(s *rpc.Stream) error {
			var sc *rpc.StreamCodec
			if c.wantCodec() {
				// Uploads must know the answer before encoding any data (an old
				// server would store compressed frames verbatim), so the capability
				// exchange completes before the begin frame.
				if err := wire.WriteFrame(s.Queue(), msgNegotiate, wire.NewEncoder().String(c.codecName).Bytes()); err != nil {
					return err
				}
				var err error
				if sc, err = c.negotiated(s); err != nil {
					return err
				}
			}
			if err := s.Send(putFrames, putBegin{Key: key}.encode(), up, streamChunk, sc); err != nil {
				return err
			}
			_, resp, err := s.Reply(msgPutResp)
			if err != nil {
				return err
			}
			pr, err := decodePutResp(resp)
			size = pr.Size
			return retry.Permanent(err)
		})
		return size, err
	})
	c.putBytes.Add(size)
	return size, err
}
