package gns

import (
	"fmt"
	"time"

	"griddles/internal/wire"
)

// Lease/TTL caching and shard replication wire records.
//
// The PR 5 client cache kept one Watch long-poll connection per cached key;
// at "millions of clients" that is a connection per client per key. The
// replica-catalogue line of work (Globus) uses soft-state instead: the
// server stamps every resolve reply with a lease — a TTL the client may
// serve the answer from cache for, the granting shard's leadership term,
// and the store version (epoch) the answer was read at. No server-side
// per-client state, no standing connections: staleness is bounded by the
// TTL, a failover bumps the term so leases from a deposed primary die on
// first contact with the new one, and the epoch lets a client reject a
// grant that raced its own later write.
//
// New message types only — messages 1..12 are untouched, so
// a default deployment (one shard, cache off) stays byte-identical.
const (
	msgLookup          = 13
	msgLookupResp      = 14
	msgResolveLease    = 15
	msgResolveLeaseRsp = 16
	msgShardMap        = 17
	msgShardMapResp    = 18
	msgRedirect        = 19
	msgReplAppend      = 20
	msgReplAppendResp  = 21
	msgReplSnapshot    = 22
	msgReplSnapResp    = 23
	msgWrongShard      = 24
)

// DefaultLeaseTTL is the server's default grant. Five seconds bounds cache
// staleness tightly enough for workflow reconfiguration (a remap becomes
// visible within one TTL) while a component reopening its working set pays
// one RPC per key per five seconds instead of one per open.
const DefaultLeaseTTL = 5 * time.Second

// DefaultHeartbeat is the replication heartbeat interval; a follower that
// misses heartbeats for LeaseTTL (+ its rank's stagger) promotes itself.
const DefaultHeartbeat = 500 * time.Millisecond

// Lease is the server's cache grant stamped on a resolve reply.
type Lease struct {
	// TTL is how long the client may serve the mapping from cache.
	TTL time.Duration
	// Term is the granting member's leadership term (0 when unsharded).
	// A client that later observes a higher term for the shard treats
	// every lease granted under an older term as already expired.
	Term uint64
	// Shard is the granting shard's ID (0 when unsharded).
	Shard uint32
	// Epoch is the store version the answer was read at, under the same
	// lock — any Set serialized before the read is included in the
	// mapping. A client holding a newer version for the key rejects the
	// grant (the grant raced a Set).
	Epoch uint64
}

// encodeLeaseResp builds a msgResolveLeaseRsp payload.
func encodeLeaseResp(m Mapping, l Lease) []byte {
	e := wire.NewEncoder()
	m.encode(e)
	e.U32(uint32(l.TTL / time.Millisecond))
	e.U64(l.Term)
	e.U32(l.Shard)
	e.U64(l.Epoch)
	return e.Bytes()
}

// decodeLeaseResp parses a msgResolveLeaseRsp payload.
func decodeLeaseResp(payload []byte) (Mapping, Lease, error) {
	d := wire.NewDecoder(payload)
	m := decodeMapping(d)
	var l Lease
	l.TTL = time.Duration(d.U32()) * time.Millisecond
	l.Term = d.U64()
	l.Shard = d.U32()
	l.Epoch = d.U64()
	if err := d.Err(); err != nil {
		return Mapping{}, Lease{}, err
	}
	if d.Remaining() != 0 {
		return Mapping{}, Lease{}, fmt.Errorf("gns: %d trailing bytes after lease reply", d.Remaining())
	}
	return m, l, nil
}

// redirectError is a follower's answer to a write: not the leaseholder.
// The sharded client re-routes to the named leader (or the next member
// when the follower does not know one yet, mid-election).
type redirectError struct {
	leader string
	term   uint64
}

func (e *redirectError) Error() string {
	return fmt.Sprintf("gns: not leaseholder (leader %q, term %d)", e.leader, e.term)
}

func encodeRedirect(leader string, term uint64) []byte {
	return wire.NewEncoder().String(leader).U64(term).Bytes()
}

func decodeRedirect(payload []byte) (string, uint64, error) {
	d := wire.NewDecoder(payload)
	leader := d.String()
	term := d.U64()
	return leader, term, d.Err()
}

// wrongShardError is the server's answer to a key it does not own: the
// client's ring disagrees with the server's, almost always because the
// client's cached shard map went stale across a ring change. The reply
// carries the server's map epoch and the owning shard so the client can
// drop its map, refetch from the seeds, and re-route — a misroute is a
// routing fault to recover from, not a final answer.
type wrongShardError struct {
	epoch uint64 // the answering server's shard-map epoch
	owner uint32 // the shard the server's ring places the key on
}

func (e *wrongShardError) Error() string {
	return fmt.Sprintf("gns: wrong shard for key (owner shard %d, map epoch %d)", e.owner, e.epoch)
}

func encodeWrongShard(epoch uint64, owner uint32) []byte {
	return wire.NewEncoder().U64(epoch).U32(owner).Bytes()
}

func decodeWrongShard(payload []byte) (epoch uint64, owner uint32, err error) {
	d := wire.NewDecoder(payload)
	epoch = d.U64()
	owner = d.U32()
	if err := d.Err(); err != nil {
		return 0, 0, err
	}
	if d.Remaining() != 0 {
		return 0, 0, fmt.Errorf("gns: %d trailing bytes after wrong-shard reply", d.Remaining())
	}
	return epoch, owner, nil
}

// replRecord is one leader-to-replica append: a heartbeat when HasEntry is
// false (the version check alone), one replicated write when true.
type replRecord struct {
	Term        uint64
	Leader      string
	PrevVersion uint64
	Version     uint64
	HasEntry    bool
	Tombstone   bool // entry is a Delete
	Machine     string
	Path        string
	M           Mapping
}

func encodeReplAppend(r replRecord) []byte {
	e := wire.NewEncoder()
	e.U64(r.Term)
	e.String(r.Leader)
	e.U64(r.PrevVersion)
	e.U64(r.Version)
	e.Bool(r.HasEntry)
	if r.HasEntry {
		e.Bool(r.Tombstone)
		e.String(r.Machine)
		e.String(r.Path)
		r.M.encode(e)
	}
	return e.Bytes()
}

func decodeReplAppend(payload []byte) (replRecord, error) {
	d := wire.NewDecoder(payload)
	var r replRecord
	r.Term = d.U64()
	r.Leader = d.String()
	r.PrevVersion = d.U64()
	r.Version = d.U64()
	r.HasEntry = d.Bool()
	if r.HasEntry {
		r.Tombstone = d.Bool()
		r.Machine = d.String()
		r.Path = d.String()
		r.M = decodeMapping(d)
	}
	if err := d.Err(); err != nil {
		return replRecord{}, err
	}
	if d.Remaining() != 0 {
		return replRecord{}, fmt.Errorf("gns: %d trailing bytes after repl append", d.Remaining())
	}
	return r, nil
}

// replAck is the replica's reply to an append or snapshot. Leader is the
// replier's believed leader at Term: a sender whose append was refused
// learns from it both the newer term and — when the refusal happened at
// the sender's own term — which equal-term leader outranked it, so
// same-term leadership collisions resolve deterministically instead of
// flip-flopping (see shard.go).
type replAck struct {
	OK      bool
	Term    uint64
	Leader  string
	Version uint64
}

func encodeReplAck(a replAck) []byte {
	return wire.NewEncoder().Bool(a.OK).U64(a.Term).String(a.Leader).U64(a.Version).Bytes()
}

func decodeReplAck(payload []byte) (replAck, error) {
	d := wire.NewDecoder(payload)
	var a replAck
	a.OK = d.Bool()
	a.Term = d.U64()
	a.Leader = d.String()
	a.Version = d.U64()
	if err := d.Err(); err != nil {
		return replAck{}, err
	}
	if d.Remaining() != 0 {
		return replAck{}, fmt.Errorf("gns: %d trailing bytes after repl ack", d.Remaining())
	}
	return a, nil
}

// replSnapshot is the full-state catch-up: the GNS is a configuration
// database of at most a few thousand entries, so a replica that missed
// appends (crash, partition) is brought current with one snapshot instead
// of a log.
type replSnapshot struct {
	Term    uint64
	Leader  string
	Version uint64
	Entries []Entry
}

func encodeReplSnapshot(s replSnapshot) []byte {
	e := wire.NewEncoder()
	e.U64(s.Term)
	e.String(s.Leader)
	e.U64(s.Version)
	e.U32(uint32(len(s.Entries)))
	for _, ent := range s.Entries {
		e.String(ent.Key.Machine)
		e.String(ent.Key.Path)
		ent.Mapping.encode(e)
	}
	return e.Bytes()
}

func decodeReplSnapshot(payload []byte) (replSnapshot, error) {
	d := wire.NewDecoder(payload)
	var s replSnapshot
	s.Term = d.U64()
	s.Leader = d.String()
	s.Version = d.U64()
	n := d.U32()
	if err := d.Err(); err != nil {
		return replSnapshot{}, err
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		var ent Entry
		ent.Key.Machine = d.String()
		ent.Key.Path = d.String()
		ent.Mapping = decodeMapping(d)
		s.Entries = append(s.Entries, ent)
	}
	if err := d.Err(); err != nil {
		return replSnapshot{}, err
	}
	if d.Remaining() != 0 {
		return replSnapshot{}, fmt.Errorf("gns: %d trailing bytes after repl snapshot", d.Remaining())
	}
	return s, nil
}
