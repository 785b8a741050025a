package gns

import (
	"sync"
	"time"

	"griddles/internal/obs"
	"griddles/internal/simclock"
)

// Store is the in-memory, versioned mapping database. It is safe for
// concurrent use and implements Resolver, so a single-process workflow can
// embed it directly ("each workflow may have its own GNS", §3.2).
type Store struct {
	clock simclock.Clock

	// Cached instruments (discard until SetObserver): lookup/update rates
	// and the latency watchers spend blocked.
	resolves  *obs.Counter
	sets      *obs.Counter
	watches   *obs.Counter
	watchWait *obs.Histogram

	mu      sync.Mutex
	cond    simclock.Cond
	entries map[Key]Mapping
	version uint64
	stops   uint64 // serving stops so far (see wakeWatches)
}

// NewStore returns an empty Store bound to clock (used for Watch timeouts).
func NewStore(clock simclock.Clock) *Store {
	s := &Store{clock: clock, entries: make(map[Key]Mapping)}
	s.cond = clock.NewCond(&s.mu)
	s.SetObserver(nil)
	return s
}

// SetObserver routes the store's metrics — resolve/set/watch rates and
// watch wait latency — to o; nil discards them.
func (s *Store) SetObserver(o *obs.Observer) {
	s.resolves = o.Counter("gns.resolve.total")
	s.sets = o.Counter("gns.set.total")
	s.watches = o.Counter("gns.watch.total")
	s.watchWait = o.Histogram("gns.watch.wait_ms")
}

// Resolve implements Resolver.
func (s *Store) Resolve(machine, path string) (Mapping, error) {
	s.resolves.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolveLocked(machine, path), nil
}

func (s *Store) resolveLocked(machine, path string) Mapping {
	if m, ok := s.entries[Key{machine, path}]; ok {
		return m
	}
	// Wildcard machine entry: lets one rule cover a file regardless of
	// where the component was scheduled.
	if m, ok := s.entries[Key{"*", path}]; ok {
		return m
	}
	// Unmapped: behave exactly like the legacy application. Version 0 so a
	// Watch(since=0) on an unmapped key fires only when the key is Set.
	return Mapping{Mode: ModeLocal, LocalPath: path}
}

// ResolveVersioned is Resolve plus the store version the answer was read
// at, under one lock: any Set serialized before the read is reflected in
// the mapping, so the version is a sound lease epoch (see Lease.Epoch).
func (s *Store) ResolveVersioned(machine, path string) (Mapping, uint64) {
	s.resolves.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolveLocked(machine, path), s.version
}

// Set installs or replaces the mapping for (machine, path) and returns the
// new store version. Watchers of that key are woken.
func (s *Store) Set(machine, path string, m Mapping) uint64 {
	_, _, v := s.setDelta(machine, path, m)
	return v
}

// setDelta is Set returning the applied mapping and the (previous, new)
// version pair a shard leader needs to replicate the write as a
// prefix-checked append.
func (s *Store) setDelta(machine, path string, m Mapping) (Mapping, uint64, uint64) {
	s.sets.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.version
	s.version++
	m.Version = s.version
	s.entries[Key{machine, path}] = m
	s.cond.Broadcast()
	return m, prev, s.version
}

// SetIfAbsent installs m for (machine, path) only when no mapping is stored
// for that exact key, and reports the mapping now in force plus whether this
// call installed it. It is the first-writer-wins commit primitive behind
// stage-level speculation: every finishing attempt of a speculated stage
// claims the stage's commit key, exactly one claim lands, and the losers see
// the winner's mapping instead of their own.
func (s *Store) SetIfAbsent(machine, path string, m Mapping) (Mapping, bool) {
	cur, won, _, _ := s.setIfAbsentDelta(machine, path, m)
	return cur, won
}

// setIfAbsentDelta is SetIfAbsent plus the version delta for replication.
func (s *Store) setIfAbsentDelta(machine, path string, m Mapping) (Mapping, bool, uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.entries[Key{machine, path}]; ok {
		return cur, false, s.version, s.version
	}
	s.sets.Inc()
	prev := s.version
	s.version++
	m.Version = s.version
	s.entries[Key{machine, path}] = m
	s.cond.Broadcast()
	return m, true, prev, s.version
}

// Lookup reports the mapping stored for exactly (machine, path), without the
// wildcard and local-passthrough fallbacks Resolve applies. The workflow
// scheduler uses it to save entries it is about to override for a
// speculative attempt, so a losing attempt can be rolled back precisely.
func (s *Store) Lookup(machine, path string) (Mapping, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.entries[Key{machine, path}]
	return m, ok
}

// Delete removes the mapping for (machine, path); subsequent resolves fall
// back to local IO.
func (s *Store) Delete(machine, path string) {
	s.deleteDelta(machine, path)
}

// deleteDelta is Delete reporting whether an entry existed and the version
// delta for replication.
func (s *Store) deleteDelta(machine, path string) (bool, uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[Key{machine, path}]; !ok {
		return false, s.version, s.version
	}
	prev := s.version
	s.version++
	delete(s.entries, Key{machine, path})
	s.cond.Broadcast()
	return true, prev, s.version
}

// List reports all entries (order unspecified).
func (s *Store) List() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.entries))
	for k, m := range s.entries {
		out = append(out, Entry{Key: k, Mapping: m})
	}
	return out
}

// Version reports the current store version.
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Snapshot reports every entry plus the version they are consistent at,
// under one lock. Shard leaders use it to catch a lagging replica up.
func (s *Store) Snapshot() ([]Entry, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.entries))
	for k, m := range s.entries {
		out = append(out, Entry{Key: k, Mapping: m})
	}
	return out, s.version
}

// Restore replaces the whole store with a snapshot. Watchers are woken so
// a long-poll parked across a failover re-checks against the new state.
func (s *Store) Restore(entries []Entry, version uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[Key]Mapping, len(entries))
	for _, ent := range entries {
		s.entries[ent.Key] = ent.Mapping
	}
	s.version = version
	s.cond.Broadcast()
}

// ApplyReplicated applies one leader append on a replica: the write lands
// only when the replica's version equals the leader's pre-write version
// (the prefix check), keeping replicas byte-identical to the leader's
// history. A false return means the replica lagged; the leader follows up
// with a Snapshot/Restore.
func (s *Store) ApplyReplicated(machine, path string, m Mapping, tombstone bool, prevVersion, version uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version != prevVersion {
		return false
	}
	if tombstone {
		delete(s.entries, Key{machine, path})
	} else {
		s.entries[Key{machine, path}] = m
	}
	s.version = version
	s.cond.Broadcast()
	return true
}

// wakeWatches ends every parked Watch as if its timeout had elapsed. A
// server of the store calls it as it stops: a handler parked in Watch never
// reads its connection again, so closing the connection would not end it.
func (s *Store) wakeWatches() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stops++
	s.cond.Broadcast()
}

// Watch implements Resolver. It blocks until the mapping resolved for
// (machine, path) carries a version greater than since, or the timeout
// elapses, or a server of the store stops (wakeWatches).
func (s *Store) Watch(machine, path string, since uint64, timeoutMS int64) (Mapping, bool, error) {
	s.watches.Inc()
	entered := s.clock.Now()
	defer func() { s.watchWait.ObserveDuration(s.clock.Now().Sub(entered)) }()
	deadline := time.Time{}
	if timeoutMS > 0 {
		deadline = entered.Add(time.Duration(timeoutMS) * time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	stops := s.stops
	for {
		if m := s.resolveLocked(machine, path); m.Version > since {
			return m, true, nil
		}
		if s.stops != stops {
			return Mapping{}, false, nil
		}
		if timeoutMS <= 0 {
			s.cond.Wait()
			continue
		}
		remain := deadline.Sub(s.clock.Now())
		if remain <= 0 || !s.cond.WaitTimeout(remain) {
			// Timed out (or a wake raced the deadline: re-check once).
			if m := s.resolveLocked(machine, path); m.Version > since {
				return m, true, nil
			}
			return Mapping{}, false, nil
		}
	}
}
