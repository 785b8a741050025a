package gns

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"griddles/internal/wire"
)

// Sharding: the GNS keyspace is partitioned over a consistent-hash ring so
// the name service scales horizontally (ROADMAP "millions of users"; the
// Globus replica-catalogue papers are the service shape). A ShardMap is the
// static cluster description — every shard's member addresses, primary
// first — handed to clients at connect time; the Ring places each
// (machine, path) key on exactly one shard. One shard with one member is
// the single-server deployment, byte for byte.

// DefaultVNodes is the virtual-node count per shard on the hash ring. 64
// points per shard keeps the keyspace split within a few percent of even
// for any realistic shard count while the ring stays tiny.
const DefaultVNodes = 64

// ShardInfo describes one shard's replica group. Addrs[0] is the configured
// primary; the rest are replicas in promotion order (the first surviving
// replica wins an election).
type ShardInfo struct {
	ID    uint32
	Addrs []string
}

// ShardMap is the cluster description handed to clients at connect. Epoch
// versions the map itself (membership changes bump it); VNodes fixes the
// ring geometry so every client and server places keys identically.
type ShardMap struct {
	Epoch  uint64
	VNodes int
	Shards []ShardInfo
}

// encode appends the map to e.
func (sm ShardMap) encode(e *wire.Encoder) {
	e.U64(sm.Epoch)
	e.U32(uint32(sm.VNodes))
	e.U32(uint32(len(sm.Shards)))
	for _, s := range sm.Shards {
		e.U32(s.ID)
		e.StringSlice(s.Addrs)
	}
}

// EncodeShardMap encodes sm as a wire payload.
func EncodeShardMap(sm ShardMap) []byte {
	e := wire.NewEncoder()
	sm.encode(e)
	return e.Bytes()
}

// maxShards bounds a decoded map's shard count; a real deployment has a
// handful of shards, and the bound keeps a corrupt count from allocating
// gigabytes.
const maxShards = 1 << 16

// decodeShardMap reads a map from d.
func decodeShardMap(d *wire.Decoder) (ShardMap, error) {
	var sm ShardMap
	sm.Epoch = d.U64()
	sm.VNodes = int(d.U32())
	n := d.U32()
	if err := d.Err(); err != nil {
		return ShardMap{}, err
	}
	if n > maxShards {
		return ShardMap{}, fmt.Errorf("gns: shard count %d out of range", n)
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		var s ShardInfo
		s.ID = d.U32()
		s.Addrs = d.StringSlice()
		sm.Shards = append(sm.Shards, s)
	}
	if err := d.Err(); err != nil {
		return ShardMap{}, err
	}
	return sm, nil
}

// DecodeShardMap decodes a wire payload produced by EncodeShardMap.
func DecodeShardMap(payload []byte) (ShardMap, error) {
	d := wire.NewDecoder(payload)
	sm, err := decodeShardMap(d)
	if err != nil {
		return ShardMap{}, err
	}
	if d.Remaining() != 0 {
		return ShardMap{}, fmt.Errorf("gns: %d trailing bytes after shard map", d.Remaining())
	}
	return sm, nil
}

// Validate checks structural invariants: at least one shard, every shard at
// least one address, IDs unique, VNodes positive.
func (sm ShardMap) Validate() error {
	if len(sm.Shards) == 0 {
		return fmt.Errorf("gns: shard map has no shards")
	}
	if sm.VNodes <= 0 {
		return fmt.Errorf("gns: shard map vnodes %d, want > 0", sm.VNodes)
	}
	seen := make(map[uint32]bool, len(sm.Shards))
	for _, s := range sm.Shards {
		if seen[s.ID] {
			return fmt.Errorf("gns: duplicate shard id %d", s.ID)
		}
		seen[s.ID] = true
		if len(s.Addrs) == 0 {
			return fmt.Errorf("gns: shard %d has no addresses", s.ID)
		}
		for _, a := range s.Addrs {
			if a == "" {
				return fmt.Errorf("gns: shard %d has an empty address", s.ID)
			}
		}
	}
	return nil
}

// Shard reports the ShardInfo for id.
func (sm ShardMap) Shard(id uint32) (ShardInfo, bool) {
	for _, s := range sm.Shards {
		if s.ID == id {
			return s, true
		}
	}
	return ShardInfo{}, false
}

// ParseRing parses the gnsd -ring syntax:
//
//	0=host0:5000,host0r:5000;1=host1:5000,host1r:5000
//
// One ';'-separated group per shard, "<id>=<primary>[,<replica>...]".
// VNodes is DefaultVNodes and Epoch 1.
func ParseRing(spec string) (ShardMap, error) {
	sm := ShardMap{Epoch: 1, VNodes: DefaultVNodes}
	for _, group := range strings.Split(spec, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		eq := strings.IndexByte(group, '=')
		if eq < 0 {
			return ShardMap{}, fmt.Errorf("gns: ring group %q: want '<id>=<addr>[,<addr>...]'", group)
		}
		id, err := strconv.ParseUint(group[:eq], 10, 32)
		if err != nil {
			return ShardMap{}, fmt.Errorf("gns: ring group %q: bad shard id: %v", group, err)
		}
		var addrs []string
		for _, a := range strings.Split(group[eq+1:], ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		sm.Shards = append(sm.Shards, ShardInfo{ID: uint32(id), Addrs: addrs})
	}
	if err := sm.Validate(); err != nil {
		return ShardMap{}, err
	}
	return sm, nil
}

// Ring is the consistent-hash placement structure built from a ShardMap.
// Both clients (to route) and servers (to reject keys they do not own) use
// it; they agree because the geometry is a pure function of the map.
type Ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard uint32
}

// NewRing builds the ring for sm. The map must Validate.
func NewRing(sm ShardMap) *Ring {
	r := &Ring{shards: len(sm.Shards)}
	vnodes := sm.VNodes
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	for _, s := range sm.Shards {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "shard/%d/%d", s.ID, v)
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), shard: s.ID})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards reports how many shards the ring spans.
func (r *Ring) Shards() int { return r.shards }

// keyHash hashes one GNS key by its path only. The machine is deliberately
// left out: the Store's wildcard rule resolves ("*", path) entries for any
// machine, and hashing by path places every entry for one path — wildcard
// and machine-specific alike — on the same shard, so the single-store
// fallback semantics survive partitioning unchanged.
func keyHash(path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return mix64(h.Sum64())
}

// mix64 is a finalizing bit mixer (the splitmix64 finalizer). Raw FNV-64a
// values of similar strings — sequential file names, vnode labels — are
// correlated in their low bits, which skews the ring's arc lengths badly;
// the finalizer restores avalanche so placement stays within a few percent
// of even.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardFor reports the shard owning (machine, path): the first ring point
// at or clockwise of the key's hash. Placement ignores machine (see
// keyHash), so it is passed only for interface symmetry.
func (r *Ring) ShardFor(machine, path string) uint32 {
	if len(r.points) == 0 {
		return 0
	}
	h := keyHash(path)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
