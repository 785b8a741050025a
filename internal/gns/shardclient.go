package gns

import (
	"errors"
	"fmt"

	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
)

// Sharded client routing. A sharded client fetches the cluster's ShardMap
// from a seed member at first use, builds the same consistent-hash ring
// the servers use, and from then on sends every call straight to the shard
// owning the key — no proxy tier, no extra hop. Reads walk the shard's
// members leaseholder-first (replicas serve reads); writes follow
// msgRedirect answers to the current leaseholder, so a failover costs one
// extra round trip the first time and nothing after.

// NewShardedClient returns a Client that routes per-key to the shards
// described by the map served at any of the seed addresses (typically one
// member per shard, but a single seed suffices). SetRetry/SetObserver/
// EnableCache apply as on a single-server client.
func NewShardedClient(dialer Dialer, seeds []string, clock simclock.Clock) *Client {
	if len(seeds) == 0 {
		panic("gns: NewShardedClient needs at least one seed")
	}
	c := NewClient(dialer, seeds[0], clock)
	c.seeds = append([]string(nil), seeds...)
	c.members = make(map[string]*Client)
	c.lead = make(map[uint32]string)
	return c
}

// sharded reports whether this client routes by shard.
func (c *Client) sharded() bool { return len(c.seeds) > 0 }

// noteMisroute reacts to a msgWrongShard answer: the server's ring
// disagrees with ours, so our cached map is stale (a ring change bumped
// the epoch). Drop the map and the leaseholder hints; the next route()
// refetches from the seeds. The triggering call stays non-permanent, so
// the parent retry policy re-runs it against the fresh map.
func (c *Client) noteMisroute(ws *wrongShardError) {
	c.obs.Counter("gns.shard.remap.total").Inc()
	c.shardMu.Lock()
	c.ring = nil
	c.smap = ShardMap{}
	c.lead = make(map[uint32]string)
	c.shardMu.Unlock()
}

// ensureRing fetches and caches the shard map on first use, and again
// after noteMisroute drops a stale one.
func (c *Client) ensureRing() error {
	c.shardMu.Lock()
	defer c.shardMu.Unlock()
	if c.ring != nil {
		return nil
	}
	var lastErr error
	for _, seed := range c.seeds {
		sm, err := c.memberLocked(seed).shardMapRemote()
		if err != nil {
			lastErr = err
			continue
		}
		if err := sm.Validate(); err != nil {
			lastErr = err
			continue
		}
		c.smap = sm
		c.ring = NewRing(sm)
		for _, s := range sm.Shards {
			c.lead[s.ID] = s.Addrs[0]
		}
		return nil
	}
	return fmt.Errorf("gns: no seed served a shard map: %w", lastErr)
}

// memberLocked returns the cached sub-client for one member address,
// creating it on first use. Members fail fast (one attempt, bounded by the
// parent policy's per-attempt timeout) — walking to the next member beats
// re-asking a dead one, and the parent operation wraps the whole walk in
// the real retry policy.
func (c *Client) memberLocked(addr string) *Client {
	m, ok := c.members[addr]
	if !ok {
		m = NewClient(c.dialer, addr, c.clock)
		t := c.rc.Retry.Timeout()
		if t <= 0 {
			t = retry.DefaultAttemptTimeout
		}
		m.rc.CallTimeout = t
		m.obs = c.obs
		c.members[addr] = m
	}
	return m
}

func (c *Client) member(addr string) *Client {
	c.shardMu.Lock()
	defer c.shardMu.Unlock()
	return c.memberLocked(addr)
}

// route reports the owning shard's ID and member addresses ordered
// believed-leaseholder-first.
func (c *Client) route(machine, path string) (uint32, []string, error) {
	if err := c.ensureRing(); err != nil {
		return 0, nil, err
	}
	c.shardMu.Lock()
	defer c.shardMu.Unlock()
	sid := c.ring.ShardFor(machine, path)
	info, ok := c.smap.Shard(sid)
	if !ok {
		return 0, nil, fmt.Errorf("gns: ring names unknown shard %d", sid)
	}
	return sid, orderedMembers(info.Addrs, c.lead[sid]), nil
}

// shardIDFor reports the owning shard for a key, 0 when not sharded (or
// before the ring is known).
func (c *Client) shardIDFor(machine, path string) uint32 {
	c.shardMu.Lock()
	defer c.shardMu.Unlock()
	if c.ring == nil {
		return 0
	}
	return c.ring.ShardFor(machine, path)
}

// orderedMembers lists addrs with first moved to the front.
func orderedMembers(addrs []string, first string) []string {
	out := make([]string, 0, len(addrs))
	if first != "" {
		out = append(out, first)
	}
	for _, a := range addrs {
		if a != first {
			out = append(out, a)
		}
	}
	return out
}

// setLeader records the believed leaseholder for a shard.
func (c *Client) setLeader(sid uint32, addr string) {
	c.shardMu.Lock()
	c.lead[sid] = addr
	c.shardMu.Unlock()
}

// readWalk runs one read against the owning shard, leaseholder first, then
// each replica: any member serves reads (staleness is bounded by one
// heartbeat, inside the lease contract). A server-answered error is final;
// transport faults walk on. The whole walk is one attempt of the parent
// retry policy.
func (c *Client) readWalk(machine, path string, do func(mc *Client) error) error {
	return c.rc.Retry.Do("gns.call", func(int) error {
		_, members, err := c.route(machine, path)
		if err != nil {
			return err
		}
		var lastErr error
		for _, addr := range members {
			err := do(c.member(addr))
			if err == nil {
				return nil
			}
			var ws *wrongShardError
			if errors.As(err, &ws) {
				c.noteMisroute(ws)
				return err
			}
			var srvErr *rpc.ServerError
			if errors.As(err, &srvErr) {
				return retry.Permanent(err)
			}
			lastErr = err
		}
		return lastErr
	})
}

// shardWrite runs one write through the owning shard's leaseholder,
// following msgRedirect answers. Mid-election (a redirect naming no
// leader, or no member reachable) the walk fails and the parent retry
// policy backs off and re-runs it — by the next attempt a replica has
// usually promoted itself.
func (c *Client) shardWrite(machine, path string, do func(mc *Client) error) error {
	return c.rc.Retry.Do("gns.call", func(int) error {
		sid, members, err := c.route(machine, path)
		if err != nil {
			return err
		}
		tried := make(map[string]bool, len(members))
		addr := members[0]
		var lastErr error
		for hops := 0; hops < len(members)+2; hops++ {
			err := do(c.member(addr))
			if err == nil {
				c.setLeader(sid, addr)
				return nil
			}
			lastErr = err
			var ws *wrongShardError
			if errors.As(err, &ws) {
				c.noteMisroute(ws)
				return err
			}
			var rd *redirectError
			if errors.As(err, &rd) {
				c.noteTerm(sid, rd.term)
				if rd.leader != "" && rd.leader != addr {
					c.setLeader(sid, rd.leader)
					addr = rd.leader
					continue
				}
			} else {
				var srvErr *rpc.ServerError
				if errors.As(err, &srvErr) {
					return retry.Permanent(err)
				}
			}
			// Transport fault or a leaderless redirect: try the next
			// member we have not asked yet.
			tried[addr] = true
			next := ""
			for _, a := range members {
				if !tried[a] {
					next = a
					break
				}
			}
			if next == "" {
				break
			}
			addr = next
		}
		return lastErr
	})
}

// shardResolve routes a plain (uncached) resolve.
func (c *Client) shardResolve(machine, path string) (Mapping, error) {
	var m Mapping
	err := c.readWalk(machine, path, func(mc *Client) error {
		var err error
		m, err = mc.resolveRemote(machine, path)
		return err
	})
	return m, err
}

// shardResolveLease routes a leased resolve, folding the granting member's
// term into the client's shard view.
func (c *Client) shardResolveLease(machine, path string) (Mapping, Lease, error) {
	var (
		m Mapping
		l Lease
	)
	err := c.readWalk(machine, path, func(mc *Client) error {
		var err error
		m, l, err = mc.resolveLeaseRemote(machine, path, c.cacheTTL)
		return err
	})
	return m, l, err
}

// shardLookup routes an exact-key lookup.
func (c *Client) shardLookup(machine, path string) (Mapping, bool, error) {
	var (
		m     Mapping
		found bool
	)
	err := c.readWalk(machine, path, func(mc *Client) error {
		var err error
		m, found, err = mc.lookupRemote(machine, path)
		return err
	})
	return m, found, err
}

// shardWatchOnce routes one watch long-poll to the owning shard, any
// member (replication wakes a replica's watchers too).
func (c *Client) shardWatchOnce(machine, path string, since uint64, timeoutMS int64) (Mapping, bool, error) {
	_, members, err := c.route(machine, path)
	if err != nil {
		return Mapping{}, false, err
	}
	var (
		m       Mapping
		changed bool
		lastErr error
	)
	for _, addr := range members {
		m, changed, lastErr = c.watchOnce(addr, machine, path, since, timeoutMS)
		if lastErr == nil {
			return m, changed, nil
		}
		var ws *wrongShardError
		if errors.As(lastErr, &ws) {
			c.noteMisroute(ws)
			return Mapping{}, false, lastErr
		}
		var srvErr *rpc.ServerError
		if errors.As(lastErr, &srvErr) {
			return Mapping{}, false, retry.Permanent(lastErr)
		}
	}
	return Mapping{}, false, lastErr
}

// shardList merges List across every shard (first reachable member each).
func (c *Client) shardList() ([]Entry, error) {
	if err := c.ensureRing(); err != nil {
		return nil, err
	}
	c.shardMu.Lock()
	shards := append([]ShardInfo(nil), c.smap.Shards...)
	leads := make(map[uint32]string, len(c.lead))
	for k, v := range c.lead {
		leads[k] = v
	}
	c.shardMu.Unlock()
	var out []Entry
	for _, s := range shards {
		var entries []Entry
		err := c.rc.Retry.Do("gns.call", func(int) error {
			var lastErr error
			for _, addr := range orderedMembers(s.Addrs, leads[s.ID]) {
				var err error
				entries, err = c.member(addr).listRemote()
				if err == nil {
					return nil
				}
				var srvErr *rpc.ServerError
				if errors.As(err, &srvErr) {
					return retry.Permanent(err)
				}
				lastErr = err
			}
			return lastErr
		})
		if err != nil {
			return nil, fmt.Errorf("gns: listing shard %d: %w", s.ID, err)
		}
		out = append(out, entries...)
	}
	return out, nil
}
