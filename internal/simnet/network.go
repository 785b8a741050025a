// Package simnet is an in-memory network fabric with per-link latency and
// bandwidth shaping, driven by a simclock.Clock.
//
// It implements net.Conn and net.Listener, so every GriddLeS service (GNS,
// Grid Buffer, GridFTP) runs the same code over simnet in experiments and
// over real TCP in the cmd/ daemons. Under a simclock.Virtual clock all
// transmission and propagation delays are simulated instants, which is how
// the paper's trans-continental experiments replay deterministically.
//
// The model is deliberately simple but captures what the paper's Table 5
// turns on: a connection has a bounded in-flight window, so small
// request/response traffic is latency-bound (~window/RTT) while bulk
// streaming is bandwidth-bound; and all connections crossing the same
// directed host pair share that link's serialization bandwidth.
package simnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"griddles/internal/simclock"
)

// LinkSpec describes a directed link between two hosts.
type LinkSpec struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth is the serialization rate in bytes per second; 0 means
	// unlimited.
	Bandwidth int64
}

// DefaultWindow is the per-connection in-flight window (bytes sent but not
// yet consumed by the reader) unless overridden. The model frees window
// space as soon as the reader consumes (no return-path ACK delay), so
// steady-state throughput is window/latency rather than window/RTT; this
// default is therefore half of a 2004-era 64 KiB TCP receive window, making
// a shaped link deliver the classical window/RTT throughput.
const DefaultWindow = 32 * 1024

// maxChunk is the largest unit a single Write serializes onto the link at
// once; larger writes are split so concurrent flows interleave.
const maxChunk = 16 * 1024

// Loopback is the link used for same-host connections.
var Loopback = LinkSpec{Latency: 50 * time.Microsecond, Bandwidth: 0}

// Network is a collection of hosts, listeners and shaped links.
type Network struct {
	clock simclock.Clock

	mu          sync.Mutex
	listeners   map[string]*Listener
	links       map[linkKey]*link
	window      int
	partitioned map[linkKey]bool
}

type linkKey struct{ from, to string }

// link carries the shared serialization state for one directed host pair,
// plus its fault-injection block (see faults.go).
type link struct {
	spec LinkSpec
	xmit *simclock.Mutex // serializes transmissions when Bandwidth > 0
	f    faults
}

func newLink(clock simclock.Clock, spec LinkSpec) *link {
	return &link{spec: spec, xmit: simclock.NewMutex(clock), f: faults{failAfter: -1}}
}

// New returns an empty Network on the given clock. Links not configured via
// SetLink have no latency and unlimited bandwidth (a zero LinkSpec).
func New(clock simclock.Clock) *Network {
	return &Network{
		clock:     clock,
		listeners: make(map[string]*Listener),
		links:     make(map[linkKey]*link),
		window:    DefaultWindow,
	}
}

// SetWindow sets the per-connection in-flight window in bytes.
func (n *Network) SetWindow(w int) {
	if w <= 0 {
		panic("simnet: window must be positive")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.window = w
}

// SetLink configures the directed link from -> to.
func (n *Network) SetLink(from, to string, spec LinkSpec) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{from, to}] = newLink(n.clock, spec)
}

// SetLinkBoth configures both directions between a and b.
func (n *Network) SetLinkBoth(a, b string, spec LinkSpec) {
	n.SetLink(a, b, spec)
	n.SetLink(b, a, spec)
}

// linkFor returns the shaping state for the directed pair, creating a
// default or loopback link on first use.
func (n *Network) linkFor(from, to string) *link {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := linkKey{from, to}
	if l, ok := n.links[k]; ok {
		return l
	}
	var spec LinkSpec
	if from == to {
		spec = Loopback
	}
	l := newLink(n.clock, spec)
	n.links[k] = l
	return l
}

// Addr is a simnet endpoint address.
type Addr struct{ HostPort string }

// Network implements net.Addr.
func (Addr) Network() string { return "sim" }

// String implements net.Addr.
func (a Addr) String() string { return a.HostPort }

// Host is a dialing/listening identity on the network, analogous to one
// machine's TCP stack.
type Host struct {
	net  *Network
	name string
}

// Host returns the endpoint identity for hostname.
func (n *Network) Host(name string) *Host { return &Host{net: n, name: name} }

// Name reports the host's name.
func (h *Host) Name() string { return h.name }

// Listen starts a listener on "host:port" style addr; the host part must be
// this host's name or empty.
func (h *Host) Listen(addr string) (*Listener, error) {
	host, port, err := splitHostPort(addr)
	if err != nil {
		return nil, err
	}
	if host == "" {
		host = h.name
	}
	if host != h.name {
		return nil, fmt.Errorf("simnet: listen %s: host %q is not %q", addr, host, h.name)
	}
	full := host + ":" + port
	l := &Listener{net: h.net, addr: Addr{full}}
	l.cond = h.net.clock.NewCond(&l.mu)
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	if _, exists := h.net.listeners[full]; exists {
		return nil, fmt.Errorf("simnet: listen %s: address in use", full)
	}
	h.net.listeners[full] = l
	return l, nil
}

// Dial connects from this host to addr ("host:port"). Connection setup
// costs one round trip on the link.
func (h *Host) Dial(addr string) (net.Conn, error) {
	host, port, err := splitHostPort(addr)
	if err != nil {
		return nil, err
	}
	full := host + ":" + port
	if err := h.net.dialFault(h.name, host); err != nil {
		return nil, err
	}
	h.net.mu.Lock()
	l, ok := h.net.listeners[full]
	window := h.net.window
	h.net.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("simnet: dial %s: connection refused", full)
	}

	out := h.net.linkFor(h.name, host) // client -> server
	in := h.net.linkFor(host, h.name)  // server -> client
	// TCP-ish handshake: one full round trip before data flows.
	h.net.clock.Sleep(out.spec.Latency + in.spec.Latency)

	c2s := newStream(h.net.clock, out, window)
	s2c := newStream(h.net.clock, in, window)
	c2s.peer, s2c.peer = s2c, c2s
	clientAddr := Addr{h.name + ":0"}
	client := &Conn{clock: h.net.clock, local: clientAddr, remote: Addr{full}, r: s2c, w: c2s}
	server := &Conn{clock: h.net.clock, local: Addr{full}, remote: clientAddr, r: c2s, w: s2c}

	if err := l.deliver(server); err != nil {
		return nil, err
	}
	return client, nil
}

// Listener implements net.Listener over the simulated network.
type Listener struct {
	net  *Network
	addr Addr

	mu      sync.Mutex
	cond    simclock.Cond
	backlog []*Conn
	closed  bool
}

// deliver enqueues a freshly dialed server-side conn.
func (l *Listener) deliver(c *Conn) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("simnet: dial %s: connection refused", l.addr)
	}
	l.backlog = append(l.backlog, c)
	l.cond.Signal()
	return nil
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.backlog) == 0 && !l.closed {
		l.cond.Wait()
	}
	if l.closed {
		return nil, net.ErrClosed
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

// Close implements net.Listener, unblocking pending Accepts. It closes the
// connections dialed but not accepted, as a closed TCP listener resets them.
func (l *Listener) Close() error {
	l.mu.Lock()
	wasClosed := l.closed
	l.closed = true
	backlog := l.backlog
	l.backlog = nil
	l.cond.Broadcast()
	l.mu.Unlock()
	for _, c := range backlog {
		c.Close()
	}
	if !wasClosed {
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr.HostPort)
		l.net.mu.Unlock()
	}
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return l.addr }

func splitHostPort(addr string) (host, port string, err error) {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[:i], addr[i+1:], nil
		}
	}
	return "", "", errors.New("simnet: address missing port: " + addr)
}
