package nws

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Protocol message types.
const (
	msgRecord       = 1
	msgRecordResp   = 2
	msgForecast     = 3
	msgForecastResp = 4
	msgEstimate     = 5
	msgEstimateResp = 6
)

// Server exposes a Service over the framed binary protocol, playing the
// role of the central NWS memory/forecaster that sensors report into and
// schedulers query.
type Server struct {
	svc   *Service
	clock simclock.Clock
}

// NewServer returns a Server for svc.
func NewServer(svc *Service, clock simclock.Clock) *Server {
	return &Server{svc: svc, clock: clock}
}

// Serve accepts connections until l is closed; each runs the shared request
// loop (see rpc.Serve, rpc.ServeConn). The NWS has no admission control.
func (s *Server) Serve(l net.Listener) {
	h := rpc.Handler{Dispatch: func(w io.Writer, _ *bufio.Reader, typ uint8, payload []byte) error {
		return s.dispatch(w, typ, payload)
	}}
	rpc.Serve(l, s.clock, "nws-conn", nil, func(conn net.Conn) { rpc.ServeConn(conn, nil, h) })
}

func (s *Server) dispatch(w io.Writer, typ uint8, payload []byte) error {
	d := wire.NewDecoder(payload)
	switch typ {
	case msgRecord:
		src, dst, metric := d.String(), d.String(), d.String()
		v := math.Float64frombits(d.U64())
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		s.svc.Record(src, dst, metric, s.clock.Now(), v)
		return wire.WriteFrame(w, msgRecordResp, nil)

	case msgForecast:
		src, dst, metric := d.String(), d.String(), d.String()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		v, ok := s.svc.Forecast(src, dst, metric)
		e := wire.NewEncoder()
		e.Bool(ok).U64(math.Float64bits(v))
		return wire.WriteFrame(w, msgForecastResp, e.Bytes())

	case msgEstimate:
		src, dst := d.String(), d.String()
		n := d.I64()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		dur, ok := s.svc.EstimateTransfer(src, dst, n)
		e := wire.NewEncoder()
		e.Bool(ok).I64(int64(dur))
		return wire.WriteFrame(w, msgEstimateResp, e.Bytes())

	default:
		return rpc.WriteError(w, fmt.Errorf("nws: unknown message type %d", typ))
	}
}

// Client queries (and reports into) a remote NWS server. It keeps one
// persistent connection and makes one attempt per call (no retry policy).
type Client struct {
	rc *rpc.Conn
}

// NewClient returns a Client for the NWS at addr.
func NewClient(dialer Dialer, addr string, clock simclock.Clock) *Client {
	return &Client{rc: rpc.NewConn("nws", dialer, addr, clock)}
}

// Record reports one observation to the server (sensors use this).
func (c *Client) Record(src, dst, metric string, v float64) error {
	e := wire.NewEncoder()
	e.String(src).String(dst).String(metric).U64(math.Float64bits(v))
	_, err := c.rc.Do("nws.call", msgRecord, msgRecordResp, e.Bytes())
	return err
}

// Forecast queries the adaptive forecast for a link metric.
func (c *Client) Forecast(src, dst, metric string) (float64, bool, error) {
	e := wire.NewEncoder()
	e.String(src).String(dst).String(metric)
	resp, err := c.rc.Do("nws.call", msgForecast, msgForecastResp, e.Bytes())
	if err != nil {
		return 0, false, err
	}
	d := wire.NewDecoder(resp)
	ok := d.Bool()
	v := math.Float64frombits(d.U64())
	return v, ok, d.Err()
}

// EstimateTransfer queries the predicted time to move n bytes src->dst.
func (c *Client) EstimateTransfer(src, dst string, n int64) (time.Duration, bool, error) {
	e := wire.NewEncoder()
	e.String(src).String(dst).I64(n)
	resp, err := c.rc.Do("nws.call", msgEstimate, msgEstimateResp, e.Bytes())
	if err != nil {
		return 0, false, err
	}
	d := wire.NewDecoder(resp)
	ok := d.Bool()
	dur := time.Duration(d.I64())
	return dur, ok, d.Err()
}

// Close releases the shared connection.
func (c *Client) Close() error { return c.rc.Close() }
