package gns

import (
	"fmt"
	"sync"
	"time"

	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Dialer opens connections to service addresses.
type Dialer = rpc.Dialer

// Client is the GNS client used by the File Multiplexer. It keeps one
// persistent connection for request/response calls; Watch calls, which can
// block for a long time, each get a dedicated connection. A client built
// with NewShardedClient additionally routes every call to the shard owning
// the key (see shardclient.go).
type Client struct {
	dialer Dialer
	addr   string
	clock  simclock.Clock

	// rc is the shared connection; the retry policy lives on it (rc.Retry).
	// Sharded member sub-clients set its CallTimeout, so a blackholed member
	// fails the walk over to the next replica instead of hanging even though
	// their retry policy is zero.
	rc *rpc.Conn

	obs *obs.Observer // nil-safe; receives gns.cache.* / gns.lease.* counters

	// Sharded routing state (see shardclient.go); seeds empty means a
	// single-server client. shardMu is held across the shard-map fetch in
	// ensureRing (a dial and a frame read), hence clock-aware.
	seeds   []string
	shardMu *simclock.Mutex
	smap    ShardMap
	ring    *Ring
	members map[string]*Client
	lead    map[uint32]string // believed leaseholder per shard

	// Lease cache (see cache.go); nil until EnableCache.
	cacheMu  sync.Mutex
	cache    map[Key]cacheEntry
	terms    map[uint32]uint64 // highest term observed per shard
	cacheMax int
	cacheTTL time.Duration // TTL to request; 0 accepts the server default
	closed   bool
}

// NewClient returns a Client for the GNS at addr.
func NewClient(dialer Dialer, addr string, clock simclock.Clock) *Client {
	return &Client{dialer: dialer, addr: addr, clock: clock, rc: rpc.NewConn("gns", dialer, addr, clock), shardMu: simclock.NewMutex(clock)}
}

// SetRetry installs the resilience policy. GNS calls are stateless, so every
// operation simply redials and re-asks on transport faults; server-reported
// errors are final.
func (c *Client) SetRetry(p retry.Policy) { c.rc.Retry = p }

// SetObserver routes the client's cache metrics (gns.cache.{hit,miss}.total)
// to o. Nil keeps them unrecorded.
func (c *Client) SetObserver(o *obs.Observer) { c.obs = o }

// roundTrip sends one request on the shared connection and returns the
// payload of the reply, which must be of type want; it redials and retries on
// transport faults per the retry policy.
func (c *Client) roundTrip(reqType, want uint8, payload []byte) ([]byte, error) {
	var typ uint8
	var resp []byte
	err := c.rc.Retry.Do("gns.call", func(int) error {
		t, r, err := c.rc.Call(reqType, payload)
		if err == nil {
			err = routingReply(t, r)
		}
		typ, resp = t, r
		return err
	})
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("gns: unexpected reply type %d", typ)
	}
	return resp, nil
}

// routingReply turns the two replies that are about where a key lives, not
// about the request, into their errors. Neither is Permanent.
func routingReply(typ uint8, resp []byte) error {
	switch typ {
	case msgRedirect:
		// Not the leaseholder: surface who is (sharded writes re-route; see
		// shardclient.go). During an election the right move is to back off
		// and re-ask.
		leader, term, err := decodeRedirect(resp)
		if err != nil {
			return err
		}
		return &redirectError{leader: leader, term: term}
	case msgWrongShard:
		// The server's ring places the key elsewhere: this client's map is
		// stale. A sharded client drops its map, refetches from the seeds and
		// re-routes (see shardclient.go).
		epoch, owner, err := decodeWrongShard(resp)
		if err != nil {
			return err
		}
		return &wrongShardError{epoch: epoch, owner: owner}
	}
	return nil
}

// Resolve implements Resolver over the network; with EnableCache it serves
// repeated lookups from the lease-coherent cache.
func (c *Client) Resolve(machine, path string) (Mapping, error) {
	if c.CacheEnabled() {
		return c.resolveCached(machine, path)
	}
	return c.resolveUncached(machine, path)
}

// resolveUncached always pays the network round trip, routed to the owning
// shard when sharded.
func (c *Client) resolveUncached(machine, path string) (Mapping, error) {
	if c.sharded() {
		return c.shardResolve(machine, path)
	}
	return c.resolveRemote(machine, path)
}

// ResolveFresh bypasses the lease cache: it resolves remotely and — when
// the cache is on — refreshes the cached entry with the new grant. The FM
// calls it when evidence says its cached view went stale mid-lease (an
// eager-copy claim refused on a version mismatch), converting bounded
// staleness into immediate coherence exactly where it matters.
func (c *Client) ResolveFresh(machine, path string) (Mapping, error) {
	if !c.CacheEnabled() {
		return c.resolveUncached(machine, path)
	}
	m, l, err := c.resolveLease(machine, path)
	if err != nil {
		return Mapping{}, err
	}
	return c.cacheStore(Key{Machine: machine, Path: path}, m, l), nil
}

// resolveLease resolves with a cache grant attached, routed when sharded.
// It also folds the granting shard's term into the client's view, which is
// what invalidates cached leases from a deposed primary.
func (c *Client) resolveLease(machine, path string) (Mapping, Lease, error) {
	var (
		m   Mapping
		l   Lease
		err error
	)
	if c.sharded() {
		m, l, err = c.shardResolveLease(machine, path)
	} else {
		m, l, err = c.resolveLeaseRemote(machine, path, c.cacheTTL)
	}
	if err != nil {
		return Mapping{}, Lease{}, err
	}
	c.noteTerm(l.Shard, l.Term)
	return m, l, nil
}

// resolveLeaseRemote performs the msgResolveLease round trip.
func (c *Client) resolveLeaseRemote(machine, path string, reqTTL time.Duration) (Mapping, Lease, error) {
	e := wire.NewEncoder()
	e.String(machine).String(path).U32(uint32(reqTTL / time.Millisecond))
	resp, err := c.roundTrip(msgResolveLease, msgResolveLeaseRsp, e.Bytes())
	if err != nil {
		return Mapping{}, Lease{}, err
	}
	return decodeLeaseResp(resp)
}

// Lookup reports the mapping stored for exactly (machine, path), without
// Resolve's wildcard and local-default fallbacks (see Store.Lookup).
func (c *Client) Lookup(machine, path string) (Mapping, bool, error) {
	if c.sharded() {
		return c.shardLookup(machine, path)
	}
	return c.lookupRemote(machine, path)
}

func (c *Client) lookupRemote(machine, path string) (Mapping, bool, error) {
	e := wire.NewEncoder()
	e.String(machine).String(path)
	resp, err := c.roundTrip(msgLookup, msgLookupResp, e.Bytes())
	if err != nil {
		return Mapping{}, false, err
	}
	d := wire.NewDecoder(resp)
	found := d.Bool()
	m := decodeMapping(d)
	return m, found, d.Err()
}

// shardMapRemote fetches the server's cluster description (msgShardMap).
func (c *Client) shardMapRemote() (ShardMap, error) {
	resp, err := c.roundTrip(msgShardMap, msgShardMapResp, nil)
	if err != nil {
		return ShardMap{}, err
	}
	return DecodeShardMap(resp)
}

// resolveRemote performs the actual network round trip.
func (c *Client) resolveRemote(machine, path string) (Mapping, error) {
	e := wire.NewEncoder()
	e.String(machine).String(path)
	resp, err := c.roundTrip(msgResolve, msgResolveResp, e.Bytes())
	if err != nil {
		return Mapping{}, err
	}
	d := wire.NewDecoder(resp)
	m := decodeMapping(d)
	return m, d.Err()
}

// Set installs a mapping and returns the new store version. Sharded, the
// write is routed to the owning shard's leaseholder.
func (c *Client) Set(machine, path string, m Mapping) (uint64, error) {
	var v uint64
	err := c.writeOp(machine, path, func(mc *Client) error {
		var err error
		v, err = mc.setRemote(machine, path, m)
		return err
	})
	if err != nil {
		return 0, err
	}
	if c.CacheEnabled() {
		// Read-your-writes: fold this client's own update in directly.
		m.Version = v
		c.cacheFoldWrite(Key{Machine: machine, Path: path}, m)
	}
	return v, nil
}

func (c *Client) setRemote(machine, path string, m Mapping) (uint64, error) {
	e := wire.NewEncoder()
	e.String(machine).String(path)
	m.encode(e)
	resp, err := c.roundTrip(msgSet, msgSetResp, e.Bytes())
	if err != nil {
		return 0, err
	}
	d := wire.NewDecoder(resp)
	v := d.U64()
	return v, d.Err()
}

// SetIfAbsent installs m for (machine, path) only if the key is unmapped,
// returning the mapping now in force and whether this client installed it
// (the first-writer-wins commit primitive; see Store.SetIfAbsent).
func (c *Client) SetIfAbsent(machine, path string, m Mapping) (Mapping, bool, error) {
	var (
		cur Mapping
		won bool
	)
	err := c.writeOp(machine, path, func(mc *Client) error {
		var err error
		cur, won, err = mc.setIfAbsentRemote(machine, path, m)
		return err
	})
	if err != nil {
		return Mapping{}, false, err
	}
	if c.CacheEnabled() {
		// The server's answer is authoritative either way: fold it in.
		c.cacheFoldWrite(Key{Machine: machine, Path: path}, cur)
	}
	return cur, won, nil
}

func (c *Client) setIfAbsentRemote(machine, path string, m Mapping) (Mapping, bool, error) {
	e := wire.NewEncoder()
	e.String(machine).String(path)
	m.encode(e)
	resp, err := c.roundTrip(msgSetIfAbsent, msgSetIfAbsentResp, e.Bytes())
	if err != nil {
		return Mapping{}, false, err
	}
	d := wire.NewDecoder(resp)
	won := d.Bool()
	cur := decodeMapping(d)
	if err := d.Err(); err != nil {
		return Mapping{}, false, err
	}
	return cur, won, nil
}

// Delete removes a mapping.
func (c *Client) Delete(machine, path string) error {
	err := c.writeOp(machine, path, func(mc *Client) error {
		return mc.deleteRemote(machine, path)
	})
	if err != nil {
		return err
	}
	if c.CacheEnabled() {
		c.cacheInvalidate(Key{Machine: machine, Path: path})
	}
	return nil
}

func (c *Client) deleteRemote(machine, path string) error {
	e := wire.NewEncoder()
	e.String(machine).String(path)
	_, err := c.roundTrip(msgDelete, msgDeleteResp, e.Bytes())
	if err != nil {
		return err
	}
	return nil
}

// writeOp runs one write against the right server: directly for a
// single-server client, through leaseholder routing when sharded.
func (c *Client) writeOp(machine, path string, do func(*Client) error) error {
	if c.sharded() {
		return c.shardWrite(machine, path, do)
	}
	return do(c)
}

// List reports all mappings in the store (merged across shards).
func (c *Client) List() ([]Entry, error) {
	if c.sharded() {
		return c.shardList()
	}
	return c.listRemote()
}

func (c *Client) listRemote() ([]Entry, error) {
	resp, err := c.roundTrip(msgList, msgListResp, nil)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	n := d.U32()
	entries := make([]Entry, 0, n)
	for i := uint32(0); i < n; i++ {
		var ent Entry
		ent.Key.Machine = d.String()
		ent.Key.Path = d.String()
		ent.Mapping = decodeMapping(d)
		if err := d.Err(); err != nil {
			return nil, err
		}
		entries = append(entries, ent)
	}
	return entries, nil
}

// Watch implements Resolver over the network. Each call uses its own
// connection so long waits do not block other requests. With a retry policy
// set, a watch broken mid-wait re-registers with the same `since` version,
// so no update is lost.
func (c *Client) Watch(machine, path string, since uint64, timeoutMS int64) (Mapping, bool, error) {
	var m Mapping
	var changed bool
	err := c.rc.Retry.Do("gns.watch", func(int) error {
		var err error
		if c.sharded() {
			m, changed, err = c.shardWatchOnce(machine, path, since, timeoutMS)
		} else {
			m, changed, err = c.watchOnce(c.addr, machine, path, since, timeoutMS)
		}
		return err
	})
	if err != nil {
		return Mapping{}, false, err
	}
	return m, changed, nil
}

func (c *Client) watchOnce(addr, machine, path string, since uint64, timeoutMS int64) (Mapping, bool, error) {
	idle := c.rc.Retry.Timeout()
	if idle > 0 {
		// The server may legitimately hold the watch for timeoutMS before
		// answering "unchanged"; the fault deadline starts after that.
		idle += time.Duration(timeoutMS) * time.Millisecond
	}
	s, err := rpc.OpenOnce("gns", rpc.Buffers{}, c.dialer, addr, c.clock, idle)
	if err != nil {
		return Mapping{}, false, err
	}
	defer s.Close()
	e := wire.NewEncoder()
	e.String(machine).String(path).U64(since).I64(timeoutMS)
	typ, resp, err := s.Call(msgWatch, e.Bytes())
	if err != nil {
		return Mapping{}, false, err
	}
	if err := routingReply(typ, resp); err != nil {
		return Mapping{}, false, err
	}
	if typ != msgWatchResp {
		return Mapping{}, false, retry.Permanent(fmt.Errorf("gns: unexpected reply type %d", typ))
	}
	d := wire.NewDecoder(resp)
	changed := d.Bool()
	m := decodeMapping(d)
	return m, changed, d.Err()
}

// Close releases the shared connection (and, sharded, every member
// sub-client's). The lease cache needs no teardown: there are no watcher
// goroutines or standing connections to stop — that is the point of
// leases.
func (c *Client) Close() error {
	c.cacheMu.Lock()
	c.closed = true
	c.cacheMu.Unlock()
	c.shardMu.Lock()
	members := make([]*Client, 0, len(c.members))
	for _, m := range c.members {
		members = append(members, m)
	}
	c.shardMu.Unlock()
	for _, m := range members {
		m.Close()
	}
	return c.rc.Close()
}

var _ Resolver = (*Client)(nil)
var _ Resolver = (*Store)(nil)
var _ FreshResolver = (*Client)(nil)
var _ FreshResolver = (*Store)(nil)
