// Package gns implements the GriddLeS Name Service (paper §3.2).
//
// The GNS is the configuration database the File Multiplexer consults on
// every OPEN. It matches (machine, full path name) and returns a Mapping
// that tells the FM which of the seven IO mechanisms to use and where the
// data lives. Changing GNS entries — and nothing else — reconfigures a
// workflow from local files to file copies to direct Grid Buffer streams,
// which is the paper's headline property ("the changes in configuration
// required no modification of the software application").
//
// The Store is usable embedded (a workflow-private GNS) or behind the
// framed-binary Server/Client pair (a shared GNS, as in cmd/gnsd). Mappings
// are versioned; Watch blocks until a mapping changes, which is how the FM
// re-binds read-only replicated files mid-run (paper §3.1).
package gns

import (
	"fmt"
	"math"

	"griddles/internal/obs"
	"griddles/internal/wire"
)

// Mode selects an IO mechanism: the paper's six (§2) plus the
// object-store extension (mechanism 7).
type Mode uint8

const (
	// ModeLocal is plain local file IO (mechanism 1).
	ModeLocal Mode = iota
	// ModeCopy stages the file in from RemoteHost before the open and, if
	// written, stages it back out on close (mechanism 2).
	ModeCopy
	// ModeRemote accesses the file block-by-block on RemoteHost through the
	// GridFTP-like file service (mechanism 3).
	ModeRemote
	// ModeReplicaRemote resolves LogicalName in the replica catalogue and
	// reads the chosen replica remotely (mechanism 4).
	ModeReplicaRemote
	// ModeReplicaCopy resolves LogicalName, copies the chosen replica to
	// the local file system, then reads locally (mechanism 5).
	ModeReplicaCopy
	// ModeBuffer couples writer and reader through a Grid Buffer: direct
	// streaming with no file at all (mechanism 6).
	ModeBuffer
	// ModeAuto defers the copy-vs-remote decision to the File Multiplexer's
	// heuristic (paper §3.1): small files — or large files of which the
	// application will read only a fraction — are accessed remotely; large
	// files on high-latency links are staged local. The mapping carries the
	// remote location as in ModeRemote plus optional hints.
	ModeAuto
	// ModeObject accesses the file as a whole object on an object-store
	// service (mechanism 7): immutable atomic PUT on close, ranged GET for
	// reads, no partial overwrite. The mapping carries the service address in
	// RemoteHost and the object key in RemotePath, as in ModeRemote.
	ModeObject
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeLocal:
		return "local"
	case ModeCopy:
		return "copy"
	case ModeRemote:
		return "remote"
	case ModeReplicaRemote:
		return "replica-remote"
	case ModeReplicaCopy:
		return "replica-copy"
	case ModeBuffer:
		return "buffer"
	case ModeAuto:
		return "auto"
	case ModeObject:
		return "objstore"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Mapping is the GNS's answer to a Resolve: how the FM should bind one
// (machine, path) OPEN.
type Mapping struct {
	Mode Mode

	// LocalPath is the resolved local file name (ModeLocal, and the staging
	// destination for ModeCopy / ModeReplicaCopy). Empty means "use the path
	// from the OPEN call".
	LocalPath string

	// RemoteHost is the file service address ("host:port") holding the file
	// (ModeCopy, ModeRemote).
	RemoteHost string
	// RemotePath is the path on RemoteHost.
	RemotePath string

	// LogicalName names a replicated dataset in the replica catalogue
	// (ModeReplicaRemote, ModeReplicaCopy).
	LogicalName string

	// BufferHost is the Grid Buffer service address and BufferKey the
	// global buffer name that matches writer to reader (ModeBuffer). The
	// paper's global naming scheme is exactly this key.
	BufferHost string
	BufferKey  string

	// CacheEnabled asks the Grid Buffer reader to keep a cache file so the
	// application can seek and re-read a stream (paper §3.1, Figure 3).
	CacheEnabled bool
	// Readers is the number of readers expected to consume the buffer
	// (broadcast mode); 0 means one.
	Readers int
	// CachePath overrides the default cache file name.
	CachePath string

	// BlockSize is the transfer granularity in bytes; 0 selects the
	// default (4096, the paper's typical write size).
	BlockSize int

	// DataOrder declares the byte order binary records in this file were
	// written in: "le", "be", or "" for untyped/ASCII data. Together with a
	// record schema registered in the FM (core.Config.Records), it lets the
	// FM reorder bytes in flight between machines of different endianness —
	// the paper's §3.3 heterogeneity scheme.
	DataOrder string

	// ReadFraction hints what share of the file the application will read
	// (ModeAuto); 0 means unknown (assume the whole file).
	ReadFraction float64

	// WaitClose coordinates file-based pipelines that are launched
	// concurrently: a writer publishes a completion marker when it closes
	// the file, and a reader's OPEN polls for the marker before proceeding
	// (locally for ModeLocal, against the remote file service for
	// ModeCopy/ModeRemote). This is how GriddLeS runs a file-coupled
	// workflow without a scheduler serializing the stages.
	WaitClose bool

	// Version is the store version at which this mapping was current.
	// Watch(since) returns when the mapping's version exceeds since.
	Version uint64

	// Scheme, when non-empty, names the FM storage backend to dispatch this
	// open through (see core.Registry), overriding the default derived from
	// Mode. It lets one GNS entry route a mode-3-shaped mapping through,
	// say, the object-store backend without recompiling anything — the FM
	// records the override as an fm.backend.select decision.
	Scheme string
}

// DefaultBlockSize is the paper's typical block size (§5.3).
const DefaultBlockSize = 4096

// EffectiveBlockSize reports BlockSize, defaulted.
func (m Mapping) EffectiveBlockSize() int {
	if m.BlockSize <= 0 {
		return DefaultBlockSize
	}
	return m.BlockSize
}

// encode appends the mapping to e.
func (m Mapping) encode(e *wire.Encoder) {
	e.U8(uint8(m.Mode))
	e.String(m.LocalPath)
	e.String(m.RemoteHost)
	e.String(m.RemotePath)
	e.String(m.LogicalName)
	e.String(m.BufferHost)
	e.String(m.BufferKey)
	e.Bool(m.CacheEnabled)
	e.U32(uint32(m.Readers))
	e.String(m.CachePath)
	e.U32(uint32(m.BlockSize))
	e.String(m.DataOrder)
	e.U64(uint64(math.Float64bits(m.ReadFraction)))
	e.Bool(m.WaitClose)
	e.U64(m.Version)
	e.String(m.Scheme)
}

// decodeMapping reads a mapping from d.
func decodeMapping(d *wire.Decoder) Mapping {
	var m Mapping
	m.Mode = Mode(d.U8())
	m.LocalPath = d.String()
	m.RemoteHost = d.String()
	m.RemotePath = d.String()
	m.LogicalName = d.String()
	m.BufferHost = d.String()
	m.BufferKey = d.String()
	m.CacheEnabled = d.Bool()
	m.Readers = int(d.U32())
	m.CachePath = d.String()
	m.BlockSize = int(d.U32())
	m.DataOrder = d.String()
	m.ReadFraction = math.Float64frombits(d.U64())
	m.WaitClose = d.Bool()
	m.Version = d.U64()
	m.Scheme = d.String()
	return m
}

// Key identifies one mapping: the machine a component runs on and the full
// path it passes to OPEN.
type Key struct {
	Machine string
	Path    string
}

// Entry is one (key, mapping) pair, as returned by List.
type Entry struct {
	Key     Key
	Mapping Mapping
}

// Resolver is the read side of the GNS as seen by the File Multiplexer.
// Both the embedded Store and the network Client implement it.
type Resolver interface {
	// Resolve reports the mapping for key. Unmapped keys resolve to
	// ModeLocal with the open path, so a workflow with an empty GNS behaves
	// exactly like the unmodified legacy application.
	Resolve(machine, path string) (Mapping, error)
	// Watch blocks until the mapping for key has a version greater than
	// since, then returns it. It returns changed=false if the (optional)
	// timeout in milliseconds elapses first; timeoutMS <= 0 waits forever.
	Watch(machine, path string, since uint64, timeoutMS int64) (Mapping, bool, error)
}

// FreshResolver is the optional bypass around any client-side caching: a
// resolve guaranteed to reflect the authoritative store right now. The FM
// probes for it when it has evidence its view is stale (a prestage claim
// refused on a version mismatch) — a resolver without caching just answers
// Resolve again.
type FreshResolver interface {
	ResolveFresh(machine, path string) (Mapping, error)
}

// ResolveFresh implements FreshResolver; the Store is its own authority.
func (s *Store) ResolveFresh(machine, path string) (Mapping, error) {
	return s.Resolve(machine, path)
}

// Directory is the full read-write GNS surface the workflow coordinator
// drives: Resolve/Watch for the FM side plus the exact-key mutations the
// scheduler, speculation rollback and journal recovery use. The embedded
// *Store satisfies it directly (the in-process deployment); a
// *DirectoryClient adapts the network *Client, which routes every write —
// including the SetIfAbsent speculation commit — to the owning shard's
// leaseholder.
type Directory interface {
	Resolver
	SetObserver(o *obs.Observer)
	Lookup(machine, path string) (Mapping, bool)
	Set(machine, path string, m Mapping) uint64
	SetIfAbsent(machine, path string, m Mapping) (Mapping, bool)
	Delete(machine, path string)
}
