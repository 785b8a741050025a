package gns

import (
	"fmt"
	"io"
	"sync"
	"time"

	"griddles/internal/obs"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Shard-side replication: each shard is a small replica group under a
// leader-lease protocol. The configured primary (Addrs[0]) starts as the
// leader of term 1 and heartbeats its replicas every Heartbeat; a replica
// that misses heartbeats for LeaseTTL plus a rank-proportional stagger
// promotes itself with a higher term. Writes go through the leader
// (followers answer msgRedirect), are applied locally, then pushed to
// every replica as a version-prefix-checked append; a replica that lagged
// (crash, partition) is caught up with a full snapshot — the GNS is a
// configuration database of at most a few thousand entries, so snapshot
// catch-up beats carrying a log (the Globus replica-catalogue soft-state
// shape).
//
// The election timeout floor of one LeaseTTL means every lease the old
// leader granted has expired (quiesced) by the time a replica can take
// over. A leader fences *itself* on the same clock: it tracks the last
// successful replication ack per replica, and once it has reached no
// replica for a full LeaseTTL it stops accepting writes (msgRedirect with
// no leader named) and stops granting cacheable leases — so an isolated
// old leader has gone silent by the earliest instant a replica can
// promote, and a client that can still reach it is pushed toward the new
// leaseholder instead of writing into a store that will be snapshotted
// over on heal. Single-member shards skip the check (there is no one to
// lose). The fence lifts by itself the first time a replica acks again.
//
// Elections cannot tie on term: a promoting member takes term + rank + 1,
// so two members promoting from the same base term always pick distinct
// terms, and any equal-term leadership collision that still arises (two
// promotions from *different* base terms) is resolved deterministically —
// at equal term the lower-rank leader wins; replicas refuse the other
// one's appends, naming the winner in the ack, and the losing leader
// steps down on seeing it. Term fencing does the rest: a deposed leader
// steps down the moment it sees a higher term in any reply, and clients
// discard cached leases granted under a term lower than the highest they
// have observed.

// ShardConfig configures one member of one shard's replica group.
type ShardConfig struct {
	// Map is the full cluster description (all shards).
	Map ShardMap
	// ID is this member's shard.
	ID uint32
	// Self is this member's address exactly as it appears in Map.
	Self string
	// Dialer reaches the other members of the shard.
	Dialer Dialer
	// LeaseTTL is the grant stamped on resolve replies and the election
	// timeout floor; 0 selects DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Heartbeat is the replication heartbeat interval; 0 selects
	// DefaultHeartbeat.
	Heartbeat time.Duration
}

// shardRun is the per-member replication state machine.
type shardRun struct {
	srv   *Server
	cfg   ShardConfig
	ring  *Ring
	rank  int            // index of Self in the member list; rank 0 is the configured primary
	ranks map[string]int // rank of every member address (equal-term tie-break)

	// served is set when the server's Serve returns; the loop ends then.
	served *simclock.Event

	mu       sync.Mutex
	term     uint64
	leader   string // "" while unknown (between stepdown and the next heartbeat)
	lastBeat time.Time
	// ackAt is the last successful replication reply per replica. A leader
	// that has reached no replica within LeaseTTL is fenced: it refuses
	// writes and grants no cacheable leases until a replica acks again.
	ackAt  map[string]time.Time
	fenced bool // last fence state the loop observed (edge-triggered metrics)

	// repMu serializes the leader's replication fan-out so appends reach
	// each replica in version order. It is held across replication RPCs, so
	// it must be a clock-aware mutex: a goroutine parked in sync.Mutex.Lock
	// still counts as runnable to the virtual scheduler, and virtual time
	// (the holder's network wait) would never advance.
	repMu *simclock.Mutex
}

// EnableShard turns the server into one member of a sharded deployment.
// Must be called before Serve. The configured primary starts as leader of
// term 1; replicas start as followers with a fresh election window.
func (s *Server) EnableShard(cfg ShardConfig) error {
	if err := cfg.Map.Validate(); err != nil {
		return err
	}
	info, ok := cfg.Map.Shard(cfg.ID)
	if !ok {
		return fmt.Errorf("gns: shard %d not in map", cfg.ID)
	}
	rank := -1
	ranks := make(map[string]int, len(info.Addrs))
	for i, a := range info.Addrs {
		ranks[a] = i
		if a == cfg.Self {
			rank = i
		}
	}
	if rank < 0 {
		return fmt.Errorf("gns: member %q not in shard %d", cfg.Self, cfg.ID)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = s.leaseTTL
	}
	s.leaseTTL = cfg.LeaseTTL
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	now := s.clock.Now()
	r := &shardRun{
		srv:      s,
		cfg:      cfg,
		ring:     NewRing(cfg.Map),
		rank:     rank,
		ranks:    ranks,
		term:     1,
		leader:   info.Addrs[0],
		lastBeat: now,
		ackAt:    make(map[string]time.Time, len(info.Addrs)-1),
		repMu:    simclock.NewMutex(s.clock),
		served:   simclock.NewEvent(s.clock),
	}
	for _, a := range info.Addrs {
		if a != cfg.Self {
			r.ackAt[a] = now
		}
	}
	s.shard = r
	s.clock.Go(fmt.Sprintf("gns-shard-%d@%s", cfg.ID, cfg.Self), r.loop)
	return nil
}

// checkOwned rejects keys the ring places on another shard — a misrouted
// request means client and server disagree on the map, and answering it
// (an empty local store resolves to the ModeLocal default) would silently
// serve wrong data. The owner and this server's map epoch go back in a
// msgWrongShard reply so a client holding a stale map refetches and
// re-routes instead of failing for good. Unsharded servers own
// everything.
func (s *Server) checkOwned(machine, path string) (owner uint32, ok bool) {
	if s.shard == nil {
		return 0, true
	}
	if sid := s.shard.ring.ShardFor(machine, path); sid != s.shard.cfg.ID {
		return sid, false
	}
	return s.shard.cfg.ID, true
}

// writeWrongShard answers one misrouted request (see checkOwned).
func (s *Server) writeWrongShard(w io.Writer, owner uint32) error {
	s.obs.Counter("gns.shard.misroute.total").Inc()
	return wire.WriteFrame(w, msgWrongShard, encodeWrongShard(s.shard.cfg.Map.Epoch, owner))
}

// Leader reports whether this member currently holds the write lease for
// its shard. Unsharded servers trivially do.
func (s *Server) Leader() bool {
	if s.shard == nil {
		return true
	}
	s.shard.mu.Lock()
	defer s.shard.mu.Unlock()
	return s.shard.leader == s.shard.cfg.Self
}

// rankOf reports addr's promotion rank, past the end of the member list
// for an address the map does not know (it loses every tie-break).
func (r *shardRun) rankOf(addr string) int {
	if rk, ok := r.ranks[addr]; ok {
		return rk
	}
	return len(r.ranks)
}

// fencedLocked reports whether a leader must refuse writes because it has
// reached no replica within LeaseTTL (mu held). By that instant every
// replica's election window has opened, so one of them may already lead a
// higher term this member cannot observe; acking writes here would hand
// the client data the snapshot catch-up silently erases on heal.
// Single-member shards have nobody to lose and are never fenced.
func (r *shardRun) fencedLocked(now time.Time) bool {
	if len(r.ackAt) == 0 {
		return false
	}
	for _, at := range r.ackAt {
		if now.Sub(at) < r.cfg.LeaseTTL {
			return false
		}
	}
	return true
}

// noteAck records a successful replication reply from peer; any reply
// proves reachability, so the fence lifts regardless of the ack verdict.
func (r *shardRun) noteAck(peer string) {
	now := r.srv.clock.Now()
	r.mu.Lock()
	r.ackAt[peer] = now
	r.mu.Unlock()
}

// leaseFor stamps a grant for a resolve answered at store version epoch.
// A fenced leader grants a zero TTL — the answer is served (reads from a
// stale member are the lease contract's bounded-staleness case) but must
// not be cached, because this member can no longer observe the term that
// would invalidate it.
func (s *Server) leaseFor(epoch uint64) Lease {
	l := Lease{TTL: s.leaseTTL, Epoch: epoch}
	if s.shard != nil {
		r := s.shard
		now := s.clock.Now()
		r.mu.Lock()
		l.Term = r.term
		l.Shard = r.cfg.ID
		if r.leader == r.cfg.Self && r.fencedLocked(now) {
			l.TTL = 0
		}
		r.mu.Unlock()
	}
	return l
}

// writeState reports whether this member currently accepts writes, and if
// not, the leader to redirect to (possibly "" mid-election) and the term.
// A fenced leader answers like a mid-election follower: redirect, no
// leader named — the client walks to the other members, where a promoted
// replica is (or soon will be) taking writes.
func (s *Server) writeState() (leader bool, redirect string, term uint64) {
	if s.shard == nil {
		return true, "", 0
	}
	r := s.shard
	now := s.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.leader == r.cfg.Self {
		if r.fencedLocked(now) {
			return false, "", r.term
		}
		return true, "", r.term
	}
	return false, r.leader, r.term
}

// loop is the per-member timer: leaders heartbeat, followers watch for a
// silent leader and promote. It ends when the server's Serve returns.
func (r *shardRun) loop() {
	for {
		r.mu.Lock()
		now := r.srv.clock.Now()
		isLeader := r.leader == r.cfg.Self
		if !isLeader {
			// Stagger: rank k waits k extra heartbeats past the lease
			// quiesce floor, so the surviving member with the lowest rank
			// wins the election alone.
			wait := r.cfg.LeaseTTL + time.Duration(r.rank)*r.cfg.Heartbeat
			if now.Sub(r.lastBeat) >= wait {
				// Rank-spread term: promotions from one base term always
				// land on distinct terms, so two members promoting in the
				// same window cannot tie (strictly-greater fencing would
				// never resolve an equal-term pair).
				r.term += uint64(r.rank) + 1
				r.leader = r.cfg.Self
				r.lastBeat = now
				isLeader = true
				// A fresh leader starts with a full fence grace window:
				// the replicas it must reach include the ones whose
				// silence triggered this promotion.
				for p := range r.ackAt {
					r.ackAt[p] = now
				}
				r.srv.obs.Counter("gns.shard.promote.total").Inc()
				r.srv.obs.Emit("gns.shard.failover", r.cfg.Self,
					obs.KV("shard", r.cfg.ID), obs.KV("term", r.term))
			}
		}
		if f := isLeader && r.fencedLocked(now); f != r.fenced {
			r.fenced = f
			if f {
				r.srv.obs.Counter("gns.shard.fence.total").Inc()
				r.srv.obs.Emit("gns.shard.fence", r.cfg.Self,
					obs.KV("shard", r.cfg.ID), obs.KV("term", r.term))
			}
		}
		term := r.term
		r.mu.Unlock()
		if isLeader {
			r.heartbeat(term)
		}
		if r.served.WaitTimeout(r.cfg.Heartbeat) {
			return
		}
	}
}

// peers lists the other members of this shard.
func (r *shardRun) peers() []string {
	info, _ := r.cfg.Map.Shard(r.cfg.ID)
	out := make([]string, 0, len(info.Addrs)-1)
	for _, a := range info.Addrs {
		if a != r.cfg.Self {
			out = append(out, a)
		}
	}
	return out
}

// heartbeat sends an empty append (the version check) to every peer and
// snapshots any replica whose state diverged.
func (r *shardRun) heartbeat(term uint64) {
	r.repMu.Lock()
	defer r.repMu.Unlock()
	version := r.srv.store.Version()
	rec := replRecord{Term: term, Leader: r.cfg.Self, PrevVersion: version, Version: version}
	for _, p := range r.peers() {
		r.appendTo(p, rec)
	}
}

// replicate pushes one applied write to every peer, in order (repMu).
// Best-effort: a peer that cannot be reached is caught up by the next
// heartbeat's version check; reads it serves meanwhile are stale by at
// most one heartbeat interval, within the lease-staleness contract.
func (r *shardRun) replicate(rec replRecord) {
	r.repMu.Lock()
	defer r.repMu.Unlock()
	for _, p := range r.peers() {
		r.appendTo(p, rec)
	}
}

// appendTo sends one append to one peer, falling back to a snapshot when
// the peer's prefix check fails, and stepping down when the ack deposes
// this member (higher term, or an equal-term lower-rank leader).
func (r *shardRun) appendTo(peer string, rec replRecord) {
	ack, err := r.call(peer, msgReplAppend, encodeReplAppend(rec))
	if err != nil {
		r.srv.obs.Counter("gns.shard.repl.fail.total").Inc()
		return
	}
	r.noteAck(peer)
	if r.deposedBy(ack, rec.Term) {
		return
	}
	if ack.OK {
		return
	}
	// Prefix mismatch: the peer missed appends (or has a divergent
	// minority history). Replace its state wholesale.
	entries, version := r.srv.store.Snapshot()
	snap := replSnapshot{Term: rec.Term, Leader: r.cfg.Self, Version: version, Entries: entries}
	r.srv.obs.Counter("gns.shard.snapshot.total").Inc()
	if ack, err := r.call(peer, msgReplSnapshot, encodeReplSnapshot(snap)); err == nil {
		r.noteAck(peer)
		r.deposedBy(ack, rec.Term)
	}
}

// deposedBy folds a replication ack into leadership state: a higher term
// always deposes; an ack at the sent term naming an equal-term leader of
// lower rank deposes too (the deterministic tie-break — the refusing
// replica follows that leader and will never accept ours). Reports
// whether the sender lost leadership.
func (r *shardRun) deposedBy(ack replAck, sentTerm uint64) bool {
	if ack.Term > sentTerm {
		r.stepDownTo(ack.Term, ack.Leader)
		return true
	}
	if ack.Term == sentTerm && ack.Leader != "" && ack.Leader != r.cfg.Self && r.rankOf(ack.Leader) < r.rank {
		r.stepDownTo(ack.Term, ack.Leader)
		return true
	}
	return false
}

// stepDownTo abandons leadership for the leader believed at term: always
// on a higher term, and at this member's own term only when deferring to
// a lower-rank leader (the tie-break; a higher-rank claimant is the one
// that must yield). The election window restarts so this member does not
// immediately contest the winner.
func (r *shardRun) stepDownTo(term uint64, leader string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if term < r.term {
		return
	}
	if term == r.term && (r.leader != r.cfg.Self || leader == "" || r.rankOf(leader) >= r.rank) {
		return
	}
	if _, known := r.ranks[leader]; !known {
		leader = "" // learned from the winner's next heartbeat
	}
	r.term = term
	r.leader = leader
	r.lastBeat = r.srv.clock.Now()
	r.srv.obs.Counter("gns.shard.stepdown.total").Inc()
	r.srv.obs.Emit("gns.shard.stepdown", r.cfg.Self, obs.KV("shard", r.cfg.ID), obs.KV("term", term))
}

// call performs one replication RPC on a fresh connection. The deadline
// bounds the exchange so a blackholed peer cannot park the timer loop.
func (r *shardRun) call(peer string, typ uint8, payload []byte) (replAck, error) {
	s, err := rpc.OpenOnce("gns", rpc.Buffers{}, r.cfg.Dialer, peer, r.srv.clock, 3*r.cfg.Heartbeat)
	if err != nil {
		return replAck{}, err
	}
	defer s.Close()
	_, resp, err := s.Call(typ, payload, msgReplAppendResp, msgReplSnapResp)
	if err != nil {
		return replAck{}, err
	}
	return decodeReplAck(resp)
}

// acceptLeaderLocked folds an append/snapshot's (term, leader) claim into
// this member's state (mu held). A lower term is refused outright. At an
// equal term a *different* leader is adopted only when it outranks (lower
// rank than) the one currently followed — the deterministic tie-break —
// otherwise the claim is refused and the ack names the winner so the
// losing leader steps down. Reports whether the claim was accepted.
func (r *shardRun) acceptLeaderLocked(term uint64, leader string) bool {
	if term < r.term {
		return false
	}
	if term == r.term && r.leader != "" && r.leader != leader && r.rankOf(leader) >= r.rankOf(r.leader) {
		return false
	}
	if term > r.term || r.leader != leader {
		if r.leader == r.cfg.Self {
			r.srv.obs.Counter("gns.shard.stepdown.total").Inc()
		}
		r.term = term
		r.leader = leader
	}
	r.lastBeat = r.srv.clock.Now()
	return true
}

// onAppend handles msgReplAppend on a replica: term fencing, leadership
// bookkeeping, then the prefix-checked apply (or the bare version check
// for a heartbeat).
func (r *shardRun) onAppend(rec replRecord) replAck {
	r.mu.Lock()
	if !r.acceptLeaderLocked(rec.Term, rec.Leader) {
		ack := replAck{Term: r.term, Leader: r.leader, Version: r.srv.store.Version()}
		r.mu.Unlock()
		return ack
	}
	term, leader := r.term, r.leader
	r.mu.Unlock()
	var ok bool
	if rec.HasEntry {
		ok = r.srv.store.ApplyReplicated(rec.Machine, rec.Path, rec.M, rec.Tombstone, rec.PrevVersion, rec.Version)
	} else {
		ok = r.srv.store.Version() == rec.Version
	}
	return replAck{OK: ok, Term: term, Leader: leader, Version: r.srv.store.Version()}
}

// onSnapshot handles msgReplSnapshot on a replica.
func (r *shardRun) onSnapshot(snap replSnapshot) replAck {
	r.mu.Lock()
	if !r.acceptLeaderLocked(snap.Term, snap.Leader) {
		ack := replAck{Term: r.term, Leader: r.leader, Version: r.srv.store.Version()}
		r.mu.Unlock()
		return ack
	}
	term, leader := r.term, r.leader
	r.mu.Unlock()
	r.srv.store.Restore(snap.Entries, snap.Version)
	return replAck{OK: true, Term: term, Leader: leader, Version: snap.Version}
}
