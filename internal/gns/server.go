package gns

import (
	"bufio"
	"errors"
	"io"
	"net"
	"time"

	"griddles/internal/admit"
	"griddles/internal/obs"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Protocol message types.
const (
	msgResolve         = 1
	msgResolveResp     = 2
	msgSet             = 3
	msgSetResp         = 4
	msgDelete          = 5
	msgDeleteResp      = 6
	msgList            = 7
	msgListResp        = 8
	msgWatch           = 9
	msgWatchResp       = 10
	msgSetIfAbsent     = 11
	msgSetIfAbsentResp = 12
)

// Server exposes a Store over the framed binary protocol.
type Server struct {
	store    *Store
	clock    simclock.Clock
	adm      *admit.Controller
	obs      *obs.Observer // nil-safe; gns.shard.* instruments
	leaseTTL time.Duration
	reqCost  func()
	shard    *shardRun
}

// NewServer returns a Server for store.
func NewServer(store *Store, clock simclock.Clock) *Server {
	return &Server{store: store, clock: clock, leaseTTL: DefaultLeaseTTL}
}

// Store returns the served store (for embedding administration).
func (s *Server) Store() *Store { return s.store }

// SetObserver routes the server's shard/replication metrics to o; nil (the
// default) discards them.
func (s *Server) SetObserver(o *obs.Observer) { s.obs = o }

// SetLeaseTTL overrides the TTL stamped on lease grants (see
// DefaultLeaseTTL). Must be set before Serve/EnableShard.
func (s *Server) SetLeaseTTL(ttl time.Duration) {
	if ttl > 0 {
		s.leaseTTL = ttl
	}
}

// SetRequestCost installs a per-request cost hook, charged before every
// dispatched message. Benchmarks use it to model the CPU a real server
// spends per RPC — the simulated network alone would let one server answer
// unbounded load — so shard scaling measures what sharding actually buys.
func (s *Server) SetRequestCost(fn func()) { s.reqCost = fn }

// SetAdmission installs an admission controller; nil (the default) admits
// everything, preserving the unprotected server's behaviour bit for bit.
// Every GNS operation is admitted in the Control class — name resolution is
// the latency-sensitive hot path admission exists to protect.
func (s *Server) SetAdmission(c *admit.Controller) { s.adm = c }

// Serve accepts connections on l until it is closed; each runs the shared
// request loop (see rpc.Serve, rpc.ServeConn) with every GNS operation in the
// Control class. Closing l also ends every Watch parked on the store (see
// Store.wakeWatches), and a shard member's replication loop ends when Serve
// returns.
func (s *Server) Serve(l net.Listener) {
	h := rpc.Handler{Dispatch: func(w io.Writer, _ *bufio.Reader, typ uint8, payload []byte) error {
		if s.reqCost != nil {
			s.reqCost()
		}
		return s.dispatch(w, typ, payload)
	}}
	rpc.Serve(rpc.OnClose(l, s.store.wakeWatches), s.clock, "gns-conn", s.adm, func(conn net.Conn) { rpc.ServeConn(conn, s.adm, h) })
	if s.shard != nil {
		s.shard.served.Set()
	}
}

func (s *Server) dispatch(w io.Writer, typ uint8, payload []byte) error {
	d := wire.NewDecoder(payload)
	switch typ {
	case msgResolve:
		machine, path := d.String(), d.String()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		if owner, ok := s.checkOwned(machine, path); !ok {
			return s.writeWrongShard(w, owner)
		}
		m, err := s.store.Resolve(machine, path)
		if err != nil {
			return rpc.WriteError(w, err)
		}
		e := wire.NewEncoder()
		m.encode(e)
		return wire.WriteFrame(w, msgResolveResp, e.Bytes())

	case msgSet:
		machine, path := d.String(), d.String()
		m := decodeMapping(d)
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		if owner, ok := s.checkOwned(machine, path); !ok {
			return s.writeWrongShard(w, owner)
		}
		// The term captured by the writeState check stamps the replication
		// record: a step-down racing the local apply then replicates under
		// the stale term, which replicas at the newer term refuse, instead
		// of under a term that would re-assert deposed leadership.
		ok, leader, term := s.writeState()
		if !ok {
			return wire.WriteFrame(w, msgRedirect, encodeRedirect(leader, term))
		}
		applied, prev, v := s.store.setDelta(machine, path, m)
		if s.shard != nil {
			s.shard.replicate(replRecord{
				Term: term, Leader: s.shard.cfg.Self,
				PrevVersion: prev, Version: v,
				HasEntry: true, Machine: machine, Path: path, M: applied,
			})
		}
		return wire.WriteFrame(w, msgSetResp, wire.NewEncoder().U64(v).Bytes())

	case msgSetIfAbsent:
		machine, path := d.String(), d.String()
		m := decodeMapping(d)
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		if owner, ok := s.checkOwned(machine, path); !ok {
			return s.writeWrongShard(w, owner)
		}
		ok, leader, term := s.writeState()
		if !ok {
			return wire.WriteFrame(w, msgRedirect, encodeRedirect(leader, term))
		}
		cur, won, prev, v := s.store.setIfAbsentDelta(machine, path, m)
		if won && s.shard != nil {
			s.shard.replicate(replRecord{
				Term: term, Leader: s.shard.cfg.Self,
				PrevVersion: prev, Version: v,
				HasEntry: true, Machine: machine, Path: path, M: cur,
			})
		}
		e := wire.NewEncoder()
		e.Bool(won)
		cur.encode(e)
		return wire.WriteFrame(w, msgSetIfAbsentResp, e.Bytes())

	case msgDelete:
		machine, path := d.String(), d.String()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		if owner, ok := s.checkOwned(machine, path); !ok {
			return s.writeWrongShard(w, owner)
		}
		ok, leader, term := s.writeState()
		if !ok {
			return wire.WriteFrame(w, msgRedirect, encodeRedirect(leader, term))
		}
		existed, prev, v := s.store.deleteDelta(machine, path)
		if existed && s.shard != nil {
			s.shard.replicate(replRecord{
				Term: term, Leader: s.shard.cfg.Self,
				PrevVersion: prev, Version: v,
				HasEntry: true, Tombstone: true, Machine: machine, Path: path,
			})
		}
		return wire.WriteFrame(w, msgDeleteResp, nil)

	case msgLookup:
		machine, path := d.String(), d.String()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		if owner, ok := s.checkOwned(machine, path); !ok {
			return s.writeWrongShard(w, owner)
		}
		m, found := s.store.Lookup(machine, path)
		e := wire.NewEncoder()
		e.Bool(found)
		m.encode(e)
		return wire.WriteFrame(w, msgLookupResp, e.Bytes())

	case msgResolveLease:
		machine, path := d.String(), d.String()
		reqTTL := d.U32()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		if owner, ok := s.checkOwned(machine, path); !ok {
			return s.writeWrongShard(w, owner)
		}
		m, epoch := s.store.ResolveVersioned(machine, path)
		l := s.leaseFor(epoch)
		if req := time.Duration(reqTTL) * time.Millisecond; req > 0 && req < l.TTL {
			l.TTL = req
		}
		return wire.WriteFrame(w, msgResolveLeaseRsp, encodeLeaseResp(m, l))

	case msgShardMap:
		if s.shard == nil {
			return rpc.WriteError(w, errors.New("gns: server is not sharded"))
		}
		return wire.WriteFrame(w, msgShardMapResp, EncodeShardMap(s.shard.cfg.Map))

	case msgReplAppend:
		if s.shard == nil {
			return rpc.WriteError(w, errors.New("gns: server is not sharded"))
		}
		rec, err := decodeReplAppend(payload)
		if err != nil {
			return rpc.WriteError(w, err)
		}
		return wire.WriteFrame(w, msgReplAppendResp, encodeReplAck(s.shard.onAppend(rec)))

	case msgReplSnapshot:
		if s.shard == nil {
			return rpc.WriteError(w, errors.New("gns: server is not sharded"))
		}
		snap, err := decodeReplSnapshot(payload)
		if err != nil {
			return rpc.WriteError(w, err)
		}
		return wire.WriteFrame(w, msgReplSnapResp, encodeReplAck(s.shard.onSnapshot(snap)))

	case msgList:
		entries := s.store.List()
		e := wire.NewEncoder()
		e.U32(uint32(len(entries)))
		for _, ent := range entries {
			e.String(ent.Key.Machine)
			e.String(ent.Key.Path)
			ent.Mapping.encode(e)
		}
		return wire.WriteFrame(w, msgListResp, e.Bytes())

	case msgWatch:
		machine, path := d.String(), d.String()
		since := d.U64()
		timeoutMS := d.I64()
		if err := d.Err(); err != nil {
			return rpc.WriteError(w, err)
		}
		if owner, ok := s.checkOwned(machine, path); !ok {
			return s.writeWrongShard(w, owner)
		}
		m, changed, err := s.store.Watch(machine, path, since, timeoutMS)
		if err != nil {
			return rpc.WriteError(w, err)
		}
		e := wire.NewEncoder()
		e.Bool(changed)
		m.encode(e)
		return wire.WriteFrame(w, msgWatchResp, e.Bytes())

	default:
		return rpc.WriteError(w, errors.New("gns: unknown message type"))
	}
}
