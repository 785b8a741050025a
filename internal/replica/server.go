package replica

import (
	"bufio"
	"fmt"
	"io"
	"net"

	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Protocol message types.
const (
	msgLookup         = 1
	msgLookupResp     = 2
	msgRegister       = 3
	msgRegisterResp   = 4
	msgUnregister     = 5
	msgUnregisterResp = 6
	msgLogicals       = 7
	msgLogicalsResp   = 8
)

// Server exposes a Catalog over the framed binary protocol (the role the
// Globus Replica Catalogue service plays in the paper).
type Server struct {
	cat   *Catalog
	clock simclock.Clock
}

// NewServer returns a Server for cat.
func NewServer(cat *Catalog, clock simclock.Clock) *Server {
	return &Server{cat: cat, clock: clock}
}

// Serve accepts connections until l is closed; each runs the shared request
// loop (see rpc.Serve, rpc.ServeConn). The catalogue has no admission control.
func (s *Server) Serve(l net.Listener) {
	h := rpc.Handler{Dispatch: func(w io.Writer, _ *bufio.Reader, typ uint8, payload []byte) error {
		return s.dispatch(w, typ, payload)
	}}
	rpc.Serve(l, s.clock, "replica-conn", nil, func(conn net.Conn) { rpc.ServeConn(conn, nil, h) })
}

func encodeLocation(e *wire.Encoder, l Location) {
	e.String(l.Host).String(l.Addr).String(l.Path)
}

func decodeLocation(d *wire.Decoder) Location {
	return Location{Host: d.String(), Addr: d.String(), Path: d.String()}
}

func (s *Server) dispatch(w io.Writer, typ uint8, payload []byte) error {
	d := wire.NewDecoder(payload)
	switch typ {
	case msgLookup:
		logical := d.String()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		locs := s.cat.Lookup(logical)
		e := wire.NewEncoder()
		e.U32(uint32(len(locs)))
		for _, l := range locs {
			encodeLocation(e, l)
		}
		return wire.WriteFrame(w, msgLookupResp, e.Bytes())

	case msgRegister:
		logical := d.String()
		loc := decodeLocation(d)
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		s.cat.Register(logical, loc)
		return wire.WriteFrame(w, msgRegisterResp, nil)

	case msgUnregister:
		logical := d.String()
		loc := decodeLocation(d)
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		s.cat.Unregister(logical, loc)
		return wire.WriteFrame(w, msgUnregisterResp, nil)

	case msgLogicals:
		e := wire.NewEncoder()
		e.StringSlice(s.cat.Logicals())
		return wire.WriteFrame(w, msgLogicalsResp, e.Bytes())

	default:
		return rpc.WriteError(w, fmt.Errorf("replica: unknown message type %d", typ))
	}
}

// Dialer opens connections to service addresses.
type Dialer = rpc.Dialer

// Client is the network client for a catalogue Server. It keeps one
// persistent connection and makes one attempt per call (no retry policy).
type Client struct {
	rc *rpc.Conn
}

// NewClient returns a Client for the catalogue at addr.
func NewClient(dialer Dialer, addr string, clock simclock.Clock) *Client {
	return &Client{rc: rpc.NewConn("replica", dialer, addr, clock)}
}

// Lookup reports the replicas of logical.
func (c *Client) Lookup(logical string) ([]Location, error) {
	resp, err := c.rc.Do("replica.call", msgLookup, msgLookupResp, wire.NewEncoder().String(logical).Bytes())
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	n := d.U32()
	locs := make([]Location, 0, n)
	for i := uint32(0); i < n; i++ {
		locs = append(locs, decodeLocation(d))
	}
	return locs, d.Err()
}

// Register adds a replica.
func (c *Client) Register(logical string, loc Location) error {
	e := wire.NewEncoder().String(logical)
	encodeLocation(e, loc)
	_, err := c.rc.Do("replica.call", msgRegister, msgRegisterResp, e.Bytes())
	return err
}

// Unregister removes a replica.
func (c *Client) Unregister(logical string, loc Location) error {
	e := wire.NewEncoder().String(logical)
	encodeLocation(e, loc)
	_, err := c.rc.Do("replica.call", msgUnregister, msgUnregisterResp, e.Bytes())
	return err
}

// Logicals lists all registered logical names.
func (c *Client) Logicals() ([]string, error) {
	resp, err := c.rc.Do("replica.call", msgLogicals, msgLogicalsResp, nil)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	names := d.StringSlice()
	return names, d.Err()
}

// Close releases the shared connection.
func (c *Client) Close() error { return c.rc.Close() }

// Lookuper is the read interface the File Multiplexer needs; Catalog and
// Client both satisfy it.
type Lookuper interface {
	Lookup(logical string) ([]Location, error)
}

// CatalogLookuper adapts Catalog's infallible Lookup to Lookuper.
type CatalogLookuper struct{ *Catalog }

// Lookup implements Lookuper.
func (c CatalogLookuper) Lookup(logical string) ([]Location, error) {
	return c.Catalog.Lookup(logical), nil
}

var _ Lookuper = (*Client)(nil)
var _ Lookuper = CatalogLookuper{}
