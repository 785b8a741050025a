// Package admit is the overload-protection layer shared by every GriddLeS
// service: per-tenant/per-stream admission with an adaptive concurrency
// limit, bounded request queues with load shedding, and a two-class
// priority scheme that keeps latency-sensitive control RPCs (GNS
// resolve/set, opens, stats) from starving behind bulk data transfers.
//
// The concurrency limit adapts by AIMD on observed service latency against
// a target (in the style of grailbio/base admit): every release whose
// latency is at or under the target grows the limit additively (~one slot
// per limit's worth of completions), while a release over the target cuts
// it multiplicatively, at most once per cooldown period, so one slow burst
// does not crater capacity. With no target configured the limit is static —
// the right setting for stream-scoped admission (the Grid Buffer service
// admits at Attach and holds the slot for the stream's life).
//
// A request that cannot be admitted immediately waits in a bounded FIFO
// queue (control ahead of bulk); when the queue is full, or the wait
// exceeds its budget, the request is shed with a RETRY-AFTER-style hint the
// wire layer carries back to the client (see shed.go), where it composes
// with the internal/retry backoff policies.
//
// A nil *Controller admits everything for free, so servers thread admission
// through their dispatch loops unconditionally and the default
// configuration — no controller — is unprotected: nothing is shed and no
// reply byte differs.
package admit

import (
	"math"
	"net"
	"strings"
	"sync"
	"time"

	"griddles/internal/obs"
	"griddles/internal/simclock"
)

// Class is a request's priority class.
type Class int

const (
	// Bulk is the default class: data-plane transfers (reads, writes,
	// fetches, puts, buffer streams).
	Bulk Class = iota
	// Control is the latency-sensitive class: name-service lookups, opens,
	// stats, closes. Control requests are dequeued ahead of bulk and a
	// share of the concurrency limit is reserved for them.
	Control
)

// String reports the class label used in metrics and events.
func (c Class) String() string {
	if c == Control {
		return "control"
	}
	return "bulk"
}

// Defaults applied by New for Options fields left zero.
const (
	DefaultMinConcurrent = 1
	DefaultControlShare  = 0.25
	DefaultMaxQueueWait  = time.Second
	DefaultRetryAfter    = 100 * time.Millisecond
	// MaxRetryAfter caps the retry-after hint sent to clients, so a deep
	// queue cannot push them into multi-minute sulks.
	MaxRetryAfter = 2 * time.Second
	// decreaseFactor is the multiplicative cut applied to the limit when a
	// release observes latency over target (outside the cooldown).
	decreaseFactor = 0.75
)

// Options configures a Controller.
type Options struct {
	// Service labels this controller's metrics and events (typically the
	// machine or daemon name).
	Service string
	// MaxConcurrent is the ceiling for the concurrency limit and its
	// initial value. It must be >= 1.
	MaxConcurrent int
	// MinConcurrent is the floor the adaptive limit can never go below
	// (default 1).
	MinConcurrent int
	// TargetLatency enables AIMD adaptation: observed per-request service
	// latency is compared against it on every release. Zero keeps the
	// limit static at MaxConcurrent.
	TargetLatency time.Duration
	// QueueDepth bounds the number of waiting requests per class; a
	// request arriving with its class queue full is shed immediately.
	// Zero disables queueing: anything over the limit sheds.
	QueueDepth int
	// MaxQueueWait bounds how long a queued request waits before it is
	// shed anyway (default 1s). Negative waits forever.
	MaxQueueWait time.Duration
	// ControlShare is the fraction of the current limit reserved for
	// Control requests (default 0.25); bulk requests can never occupy
	// those slots. Negative disables the reservation.
	ControlShare float64
	// MaxPerTenant caps the slots one tenant (client host) may hold at
	// once; 0 disables the cap. Requests over the cap queue (or shed)
	// even when free slots remain, so one thundering tenant cannot
	// monopolize the service.
	MaxPerTenant int
	// MaxConns bounds concurrently accepted connections (the accept
	// queue); 0 disables. Connections over the bound are closed on
	// accept — the cheapest possible shed.
	MaxConns int
	// RetryAfterBase scales the retry-after hint in shed responses
	// (default TargetLatency, or 100ms without one).
	RetryAfterBase time.Duration
	// Clock paces queue waits and latency measurement. Required.
	Clock simclock.Clock
	// Obs receives admit.* metrics and shed decision events; nil discards.
	Obs *obs.Observer
}

// waiter is one queued Acquire.
type waiter struct {
	tenant  string
	class   Class
	ev      *simclock.Event
	granted bool
	start   time.Time // admission time, set at grant
}

// Controller enforces admission for one service instance (or one machine's
// worth of services, when shared so control RPCs and bulk transfers compete
// under one roof). All methods are safe on a nil receiver: everything is
// admitted and releases are no-ops.
type Controller struct {
	opts Options

	mu       sync.Mutex
	limit    float64
	nextDec  time.Time // end of the current multiplicative-decrease cooldown
	inflight int
	bulk     int
	tenants  map[string]int
	conns    int
	queues   [2][]*waiter // indexed by Class

	// metrics (resolved once; nil-observer safe)
	mAdmitted  [2]*obs.Counter
	mShed      map[string]*obs.Counter
	mQueued    [2]*obs.Counter
	gInflight  *obs.Gauge
	gLimit     *obs.Gauge
	gQueue     *obs.Gauge
	hQueueWait *obs.Histogram
	hLatency   *obs.Histogram
}

// New returns a Controller for opts. It panics if MaxConcurrent < 1 or
// Clock is nil — a misconfigured service should fail at startup, loudly.
func New(opts Options) *Controller {
	if opts.MaxConcurrent < 1 {
		panic("admit: MaxConcurrent must be >= 1")
	}
	if opts.Clock == nil {
		panic("admit: Clock is required")
	}
	if opts.MinConcurrent <= 0 {
		opts.MinConcurrent = DefaultMinConcurrent
	}
	if opts.MinConcurrent > opts.MaxConcurrent {
		opts.MinConcurrent = opts.MaxConcurrent
	}
	if opts.ControlShare == 0 {
		opts.ControlShare = DefaultControlShare
	}
	if opts.MaxQueueWait == 0 {
		opts.MaxQueueWait = DefaultMaxQueueWait
	}
	if opts.RetryAfterBase <= 0 {
		if opts.TargetLatency > 0 {
			opts.RetryAfterBase = opts.TargetLatency
		} else {
			opts.RetryAfterBase = DefaultRetryAfter
		}
	}
	c := &Controller{
		opts:    opts,
		limit:   float64(opts.MaxConcurrent),
		tenants: make(map[string]int),
		mShed:   make(map[string]*obs.Counter),
	}
	o, svc := opts.Obs, opts.Service
	for _, cl := range []Class{Bulk, Control} {
		c.mAdmitted[cl] = o.Counter(obs.Key("admit.admitted.total", "service", svc, "class", cl.String()))
		c.mQueued[cl] = o.Counter(obs.Key("admit.queued.total", "service", svc, "class", cl.String()))
	}
	c.gInflight = o.Gauge(obs.Key("admit.inflight", "service", svc))
	c.gLimit = o.Gauge(obs.Key("admit.limit", "service", svc))
	c.gQueue = o.Gauge(obs.Key("admit.queue.depth", "service", svc))
	c.hQueueWait = o.Histogram(obs.Key("admit.queue.wait_ms", "service", svc))
	c.hLatency = o.Histogram(obs.Key("admit.latency_ms", "service", svc))
	c.gLimit.Set(int64(c.limit))
	return c
}

// Limit reports the current adaptive concurrency limit (for tests and
// introspection). A nil controller reports 0.
func (c *Controller) Limit() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	lim, _ := c.capsLocked()
	return lim
}

// Inflight reports the currently admitted request count (0 when nil).
func (c *Controller) Inflight() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// capsLocked computes the integral concurrency limit and the bulk-class
// ceiling under the control reservation.
func (c *Controller) capsLocked() (lim, bulkLim int) {
	lim = int(c.limit)
	if lim < 1 {
		lim = 1
	}
	bulkLim = lim
	if c.opts.ControlShare > 0 {
		reserve := int(math.Ceil(float64(lim) * c.opts.ControlShare))
		if bulkLim = lim - reserve; bulkLim < 1 {
			bulkLim = 1
		}
	}
	return lim, bulkLim
}

// eligibleLocked reports whether a (tenant, class) request fits right now.
func (c *Controller) eligibleLocked(tenant string, class Class) bool {
	lim, bulkLim := c.capsLocked()
	if c.inflight >= lim {
		return false
	}
	if class == Bulk && c.bulk >= bulkLim {
		return false
	}
	if c.opts.MaxPerTenant > 0 && c.tenants[tenant] >= c.opts.MaxPerTenant {
		return false
	}
	return true
}

// admitLocked books the slot.
func (c *Controller) admitLocked(tenant string, class Class) {
	c.inflight++
	if class == Bulk {
		c.bulk++
	}
	c.tenants[tenant]++
	c.mAdmitted[class].Inc()
	c.gInflight.Set(int64(c.inflight))
}

// Acquire admits one request for tenant in class, blocking in the bounded
// queue when the service is at its limit. On admission it returns a release
// function that must be called when the request completes; the release
// feeds the observed service latency into the AIMD limit. On shed it
// returns a *ShedError carrying the retry-after hint.
//
// A nil controller admits everything; the returned release is a no-op.
func (c *Controller) Acquire(tenant string, class Class) (release func(), err error) {
	if c == nil {
		return func() {}, nil
	}
	c.mu.Lock()
	if c.eligibleLocked(tenant, class) {
		c.admitLocked(tenant, class)
		start := c.opts.Clock.Now()
		c.mu.Unlock()
		return c.releaseFunc(tenant, class, start), nil
	}
	if c.opts.QueueDepth <= 0 || len(c.queues[class]) >= c.opts.QueueDepth {
		defer c.mu.Unlock()
		return nil, c.shedLocked(tenant, class, "queue-full")
	}
	w := &waiter{tenant: tenant, class: class, ev: simclock.NewEvent(c.opts.Clock)}
	c.queues[class] = append(c.queues[class], w)
	c.mQueued[class].Inc()
	c.gQueue.Set(int64(len(c.queues[Bulk]) + len(c.queues[Control])))
	enq := c.opts.Clock.Now()
	c.mu.Unlock()

	w.ev.WaitTimeout(c.opts.MaxQueueWait) // negative MaxQueueWait waits forever

	c.mu.Lock()
	c.hQueueWait.ObserveDuration(c.opts.Clock.Now().Sub(enq))
	if w.granted {
		start := w.start
		c.mu.Unlock()
		return c.releaseFunc(tenant, class, start), nil
	}
	// Timed out in the queue: withdraw and shed.
	q := c.queues[class]
	for i, qi := range q {
		if qi == w {
			c.queues[class] = append(q[:i], q[i+1:]...)
			break
		}
	}
	c.gQueue.Set(int64(len(c.queues[Bulk]) + len(c.queues[Control])))
	defer c.mu.Unlock()
	return nil, c.shedLocked(tenant, class, "queue-timeout")
}

// releaseFunc builds the idempotent release closure for one admission.
func (c *Controller) releaseFunc(tenant string, class Class, start time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			lat := c.opts.Clock.Now().Sub(start)
			c.mu.Lock()
			c.hLatency.ObserveDuration(lat)
			c.inflight--
			if class == Bulk {
				c.bulk--
			}
			if c.tenants[tenant]--; c.tenants[tenant] <= 0 {
				delete(c.tenants, tenant)
			}
			c.gInflight.Set(int64(c.inflight))
			c.observeLocked(lat)
			c.grantLocked()
			c.mu.Unlock()
		})
	}
}

// observeLocked is the AIMD update: additive increase at-or-under target,
// multiplicative decrease (with cooldown) over it.
func (c *Controller) observeLocked(lat time.Duration) {
	target := c.opts.TargetLatency
	if target <= 0 {
		return
	}
	if lat > target {
		now := c.opts.Clock.Now()
		if now.Before(c.nextDec) {
			return
		}
		c.limit *= decreaseFactor
		if min := float64(c.opts.MinConcurrent); c.limit < min {
			c.limit = min
		}
		c.nextDec = now.Add(target)
	} else {
		c.limit += 1 / c.limit
		if max := float64(c.opts.MaxConcurrent); c.limit > max {
			c.limit = max
		}
	}
	c.gLimit.Set(int64(c.limit))
}

// grantLocked hands freed capacity to queued waiters: control queue first,
// then bulk, FIFO within each class, skipping tenant-capped waiters so one
// saturated tenant cannot block the queue head for everyone else.
func (c *Controller) grantLocked() {
	for _, class := range []Class{Control, Bulk} {
		q := c.queues[class]
		for i := 0; i < len(q); {
			w := q[i]
			if !c.eligibleLocked(w.tenant, w.class) {
				if c.inflight >= func() int { lim, _ := c.capsLocked(); return lim }() {
					break // no free slots at all; stop scanning
				}
				i++ // class- or tenant-capped: try the next waiter
				continue
			}
			q = append(q[:i], q[i+1:]...)
			c.admitLocked(w.tenant, w.class)
			w.granted = true
			w.start = c.opts.Clock.Now()
			w.ev.Set()
		}
		c.queues[class] = q
	}
	c.gQueue.Set(int64(len(c.queues[Bulk]) + len(c.queues[Control])))
}

// shedLocked records one shed decision and builds its error.
func (c *Controller) shedLocked(tenant string, class Class, reason string) *ShedError {
	key := obs.Key("admit.shed.total", "service", c.opts.Service, "class", class.String(), "reason", reason)
	ctr, ok := c.mShed[key]
	if !ok {
		ctr = c.opts.Obs.Counter(key)
		c.mShed[key] = ctr
	}
	ctr.Inc()
	lim, _ := c.capsLocked()
	queued := len(c.queues[Bulk]) + len(c.queues[Control])
	after := c.opts.RetryAfterBase * time.Duration(1+queued/lim)
	if after > MaxRetryAfter {
		after = MaxRetryAfter
	}
	c.opts.Obs.Emit("admit.decision", c.opts.Service,
		obs.KV("decision", "shed"),
		obs.KV("reason", reason),
		obs.KV("tenant", tenant),
		obs.KV("class", class.String()),
		obs.KV("inflight", c.inflight),
		obs.KV("limit", lim),
		obs.KV("queued", queued),
		obs.KV("retry_after_ms", float64(after)/float64(time.Millisecond)))
	return &ShedError{Service: c.opts.Service, Reason: reason, After: after}
}

// AdmitConn admits one freshly accepted connection against the MaxConns
// bound, returning a release to call when the connection closes and whether
// the connection may proceed. Over the bound it reports false — the caller
// closes the connection immediately, which is the accept-queue shed. A nil
// controller (or MaxConns 0) admits every connection.
func (c *Controller) AdmitConn() (release func(), ok bool) {
	if c == nil || c.opts.MaxConns <= 0 {
		return func() {}, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conns >= c.opts.MaxConns {
		c.shedLocked("", Bulk, "conn-limit")
		return nil, false
	}
	c.conns++
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.conns--
			c.mu.Unlock()
		})
	}, true
}

// TenantOf derives the admission tenant from a connection: the host part of
// its remote address, so all streams of one client machine share a tenant.
func TenantOf(conn net.Conn) string {
	return tenantOfAddr(conn.RemoteAddr().String())
}

func tenantOfAddr(addr string) string {
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[:i]
	}
	return addr
}
