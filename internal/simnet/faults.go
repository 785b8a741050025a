// Fault injection: every directed link carries a small fault-control block
// driven by the Network's injection API below. All faults are deterministic
// under a simclock.Virtual clock — a FailAfter countdown trips on an exact
// byte, a blackhole starts at the simulated instant the call is made — which
// is what lets the chaos test matrix replay byte-identically.
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrConnReset is the error surfaced by reads and writes on a connection
// killed by InjectReset or a FailAfter trip — the simulated RST.
var ErrConnReset = errors.New("simnet: connection reset by peer")

// ErrUnreachable is the error Dial returns while the host pair is
// partitioned.
var ErrUnreachable = errors.New("simnet: host unreachable")

// faults is the per-link fault-control block. It has its own lock because
// the write hot path consults it while holding no other simnet lock.
type faults struct {
	mu        sync.Mutex
	blackhole bool
	extra     time.Duration
	failAfter int64 // remaining bytes before a reset; -1 disarmed
	streams   []*stream
}

// register records a live stream so injected resets can find it. Dead
// streams are pruned opportunistically.
func (l *link) register(s *stream) {
	l.f.mu.Lock()
	defer l.f.mu.Unlock()
	live := l.f.streams[:0]
	for _, old := range l.f.streams {
		if !old.dead() {
			live = append(live, old)
		}
	}
	l.f.streams = append(live, s)
}

// noteWrite charges chunk bytes against the fault block: it trips an armed
// FailAfter countdown and reports whether the chunk should be dropped
// (blackhole) and any extra propagation latency.
func (l *link) noteWrite(chunk int) (drop bool, extra time.Duration, reset bool) {
	l.f.mu.Lock()
	defer l.f.mu.Unlock()
	if l.f.failAfter >= 0 {
		l.f.failAfter -= int64(chunk)
		if l.f.failAfter <= 0 {
			l.f.failAfter = -1 // one-shot: later connections work again
			return false, 0, true
		}
	}
	return l.f.blackhole, l.f.extra, false
}

// resetAll resets every live connection crossing this link.
func (l *link) resetAll(err error) {
	l.f.mu.Lock()
	ss := append([]*stream(nil), l.f.streams...)
	l.f.streams = l.f.streams[:0]
	l.f.mu.Unlock()
	for _, s := range ss {
		s.resetPair(err)
	}
}

func (l *link) setBlackhole(on bool) {
	l.f.mu.Lock()
	l.f.blackhole = on
	l.f.mu.Unlock()
}

// InjectReset immediately resets every live connection crossing the
// directed link from -> to (both directions of each connection die, as a
// TCP RST kills the whole socket). One-shot: connections dialed afterwards
// work normally.
func (n *Network) InjectReset(from, to string) {
	n.linkFor(from, to).resetAll(ErrConnReset)
}

// FailAfter arms the directed link from -> to to reset the connection that
// carries the nbytes-th byte from now. nbytes <= 0 trips on the next write.
// One-shot: after tripping, the link is healthy again, so a reconnecting
// client can resume.
func (n *Network) FailAfter(from, to string, nbytes int64) {
	l := n.linkFor(from, to)
	l.f.mu.Lock()
	if nbytes <= 0 {
		nbytes = 1
	}
	l.f.failAfter = nbytes
	l.f.mu.Unlock()
}

// SetBlackhole makes the directed link from -> to silently swallow traffic
// (on=true) or stop doing so (on=false). Swallowed bytes still consume the
// sender's window, so writers stall exactly as they would against a dead
// route; readers see silence. Only deadlines (or a reconnect over a healed
// route) get either side out.
func (n *Network) SetBlackhole(from, to string, on bool) {
	n.linkFor(from, to).setBlackhole(on)
}

// SetExtraLatency adds d of propagation delay to everything subsequently
// sent on the directed link from -> to (a mid-stream latency spike); 0
// restores the configured spec.
func (n *Network) SetExtraLatency(from, to string, d time.Duration) {
	l := n.linkFor(from, to)
	l.f.mu.Lock()
	l.f.extra = d
	l.f.mu.Unlock()
}

// Partition cuts both directions between hosts a and b: established
// connections blackhole (they stall until a deadline fires) and new Dials
// fail fast with ErrUnreachable.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	if n.partitioned == nil {
		n.partitioned = make(map[linkKey]bool)
	}
	n.partitioned[linkKey{a, b}] = true
	n.partitioned[linkKey{b, a}] = true
	n.mu.Unlock()
	n.linkFor(a, b).setBlackhole(true)
	n.linkFor(b, a).setBlackhole(true)
}

// Heal removes the partition between a and b. Connections that stalled
// during the partition stay degraded (their in-flight window was consumed by
// the blackhole, as after real loss without retransmit) — recovery is a
// reconnect, which works again.
func (n *Network) Heal(a, b string) {
	// Links first, then the dial gate: a Dial racing the heal either still
	// fails fast or lands on links that already carry traffic — never on a
	// connection established into the blackhole, which would stay degraded.
	n.linkFor(a, b).setBlackhole(false)
	n.linkFor(b, a).setBlackhole(false)
	n.mu.Lock()
	delete(n.partitioned, linkKey{a, b})
	delete(n.partitioned, linkKey{b, a})
	n.mu.Unlock()
}

// Partitioned reports whether the directed pair is currently cut.
func (n *Network) Partitioned(from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partitioned[linkKey{from, to}]
}

// dialFault returns the error, if any, that a Dial from -> to should fail
// with before any handshake traffic.
func (n *Network) dialFault(from, to string) error {
	n.mu.Lock()
	cut := n.partitioned[linkKey{from, to}] || n.partitioned[linkKey{to, from}]
	n.mu.Unlock()
	if cut {
		return fmt.Errorf("simnet: dial %s from %s: %w", to, from, ErrUnreachable)
	}
	return nil
}
