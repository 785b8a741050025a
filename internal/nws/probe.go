package nws

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Sensor protocol message types.
const (
	msgPing     = 1
	msgPong     = 2
	msgBurst    = 3
	msgBurstAck = 4
)

// DefaultBurst is the transfer size used for bandwidth probes.
const DefaultBurst = 256 * 1024

// Sensor is the probe responder run on every testbed machine (the NWS
// "sensor" process).
type Sensor struct {
	clock simclock.Clock
}

// NewSensor returns a Sensor.
func NewSensor(clock simclock.Clock) *Sensor { return &Sensor{clock: clock} }

// Serve accepts probe connections until l is closed; each runs the shared
// request loop (see rpc.Serve, rpc.ServeConn). A frame that is neither a ping
// nor a burst ends the connection.
func (s *Sensor) Serve(l net.Listener) {
	h := rpc.Handler{Dispatch: func(w io.Writer, _ *bufio.Reader, typ uint8, payload []byte) error {
		switch typ {
		case msgPing:
			return wire.WriteFrame(w, msgPong, payload)
		case msgBurst:
			return wire.WriteFrame(w, msgBurstAck, wire.NewEncoder().U32(uint32(len(payload))).Bytes())
		}
		return fmt.Errorf("nws: unknown sensor message type %d", typ)
	}}
	rpc.Serve(l, s.clock, "nws-sensor-conn", nil, func(conn net.Conn) { rpc.ServeConn(conn, nil, h) })
}

// Dialer opens connections to sensor addresses.
type Dialer = rpc.Dialer

// Prober issues active measurements from one host to sensors on others.
type Prober struct {
	clock  simclock.Clock
	dialer Dialer
	// Burst is the bandwidth probe size in bytes (0 selects DefaultBurst).
	Burst int
}

// NewProber returns a Prober dialing through dialer.
func NewProber(clock simclock.Clock, dialer Dialer) *Prober {
	return &Prober{clock: clock, dialer: dialer}
}

// Probe measures the link to the sensor at addr and returns the estimated
// one-way latency and bandwidth (bytes/sec).
func (p *Prober) Probe(addr string) (latency time.Duration, bandwidth float64, err error) {
	s, err := rpc.OpenOnce("nws", rpc.Buffers{}, p.dialer, addr, p.clock, 0)
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()

	// Round trip of a tiny frame estimates 2x one-way latency.
	t0 := p.clock.Now()
	if _, _, err := s.Call(msgPing, []byte{1}, msgPong); err != nil {
		return 0, 0, fmt.Errorf("nws: ping failed: %w", err)
	}
	rtt := p.clock.Now().Sub(t0)
	latency = rtt / 2

	// A burst transfer estimates bandwidth once the RTT is paid off.
	burst := p.Burst
	if burst <= 0 {
		burst = DefaultBurst
	}
	t1 := p.clock.Now()
	if _, _, err := s.Call(msgBurst, make([]byte, burst), msgBurstAck); err != nil {
		return 0, 0, fmt.Errorf("nws: burst failed: %w", err)
	}
	elapsed := p.clock.Now().Sub(t1) - rtt
	if elapsed <= 0 {
		elapsed = time.Microsecond
	}
	bandwidth = float64(burst) / elapsed.Seconds()
	return latency, bandwidth, nil
}

// Target is one link a Monitor measures.
type Target struct {
	// Src names the measuring host, Dst the sensor's host; Addr is the
	// sensor's address.
	Src, Dst, Addr string
	// Dialer dials from Src's network identity.
	Dialer Dialer
}

// Monitor periodically probes a set of links and records the results in a
// Service.
type Monitor struct {
	clock    simclock.Clock
	svc      *Service
	interval time.Duration
	targets  []Target
}

// NewMonitor returns a Monitor probing targets every interval.
func NewMonitor(clock simclock.Clock, svc *Service, interval time.Duration, targets []Target) *Monitor {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	return &Monitor{clock: clock, svc: svc, interval: interval, targets: targets}
}

// Run probes all targets once per interval until stop fires. Probe failures
// are skipped (a dead link simply stops producing samples, as in NWS).
func (m *Monitor) Run(stop *simclock.Event) {
	for {
		m.ProbeOnce()
		if stop.WaitTimeout(m.interval) {
			return
		}
	}
}

// ProbeOnce measures every target a single time.
func (m *Monitor) ProbeOnce() {
	for _, t := range m.targets {
		p := NewProber(m.clock, t.Dialer)
		lat, bw, err := p.Probe(t.Addr)
		if err != nil {
			continue
		}
		now := m.clock.Now()
		m.svc.Record(t.Src, t.Dst, MetricLatency, now, lat.Seconds())
		m.svc.Record(t.Src, t.Dst, MetricBandwidth, now, bw)
	}
}
