// Package core implements the paper's primary contribution: the File
// Multiplexer (FM).
//
// The FM sits between an application and the grid. The application performs
// ordinary OPEN/READ/WRITE/SEEK/CLOSE calls; on every OPEN the FM consults
// the GriddLeS Name Service and binds the file — independently of every
// other file — to one of the IO mechanisms, the paper's six (§2) plus the
// object-store extension:
//
//  1. local file IO
//  2. local IO with stage-in/stage-out copies between machines
//  3. remote block IO through the GridFTP-like file service
//  4. remote replicated IO (replica chosen by NWS forecasts)
//  5. local replicated IO (choose replica, copy, read locally)
//  6. direct Grid Buffer streaming between writer and reader
//  7. whole-object access on an object store (immutable PUT, ranged GET)
//
// Every mechanism is a Backend implementation behind a scheme-keyed
// Registry (see backend.go and BACKENDS.md): the mapping's Mode derives the
// default scheme, and a mapping's explicit Scheme field can re-route an
// open through any registered backend. The block cache, prefetch pipeline,
// retry policy and obs instrumentation are threaded through the Backend
// environment, so they apply to out-of-tree backends unchanged.
//
// Because the binding comes from the GNS at run time, the same unmodified
// application runs with local files, staged copies, or fully pipelined
// buffer coupling — the paper's two case studies switch among these by
// editing GNS entries only. For read-only replicated files the FM
// re-evaluates the replica choice periodically mid-read and re-binds to a
// better copy when network conditions change (paper §3.1).
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"griddles/internal/gns"
	"griddles/internal/gridftp"
	"griddles/internal/nws"
	"griddles/internal/obs"
	"griddles/internal/replica"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
	"griddles/internal/wire"
)

// Dialer opens connections to service addresses.
type Dialer = rpc.Dialer

// File is what the application sees: plain POSIX-shaped file semantics,
// whatever transport is behind it.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Name reports the path passed to the OPEN call.
	Name() string
}

// Config is the one place an FM parameter is declared (DESIGN.md §21). The
// zero value of every tuning field is the default; Paper2004 is the 2004
// prototype's set. Four groups: wiring (required, and what workflow.Runner
// fills per stage — on a simulated machine FS/Dialer/Clock come from the
// machine, in real mode they are the OS file system, TCP and the wall clock),
// optional services, tuning (what a Runner's FM template carries), and Hooks.
type Config struct {
	// Machine is this component's machine name, the first half of every GNS
	// key.
	Machine string
	// Clock drives waiting and timing.
	Clock simclock.Clock
	// FS is the local file system.
	FS vfs.FS
	// Dialer provides this machine's network identity.
	Dialer Dialer
	// GNS resolves OPEN calls to mappings.
	GNS gns.Resolver
	// Obs receives this FM's metrics and event trace. Leave nil for a
	// private per-FM observer (Stats still works); share one observer across
	// components — as the workflow Runner does — to collect a whole run in
	// one place.
	Obs *obs.Observer

	// Replicas resolves logical names for modes 4 and 5.
	Replicas replica.Lookuper
	// NWS ranks replica locations (without it the first replica wins).
	NWS *nws.Service
	// Backends is the storage-backend registry OPENs dispatch through; nil
	// selects DefaultRegistry() (the seven in-tree mechanisms). Pass a
	// private NewRegistry to run an FM with a restricted or extended
	// backend set.
	Backends *Registry

	// PollInterval paces WaitClose polling and defaults to 200ms.
	PollInterval time.Duration
	// Buffer tunes mechanism 6, the Grid Buffer client.
	Buffer Buffer
	// CopyStreams is the parallel stream count for stage-in copies (below 1
	// means 1, see gridftp.Client.CopyIn).
	CopyStreams int
	// BlockCacheBytes > 0 gives the FM an in-memory LRU block cache of that
	// byte budget for remote and replicated reads (modes 3–5); 0 reads
	// through uncached. Cache keys embed the GNS mapping generation, so a
	// remap never serves stale blocks.
	BlockCacheBytes int64
	// PrefetchWindow enables the async prefetch pipeline for sequential
	// remote reads (modes 3 and 4): up to this many ranged fetches are kept
	// in flight ahead of the reader, landing blocks into the block cache.
	// Requires a block cache; 0 fills synchronously on a miss. Seek-heavy
	// handles detect themselves and fall back to per-call fetching.
	PrefetchWindow int
	// WireCodec names the stream codec every link negotiates ("lzb"); "raw"
	// and empty (the default) keep every link raw, and empty sends no frame
	// of the exchange. When Records declares a schema for a transferred
	// path, a compressed stream additionally applies the columnar XDR
	// transform to those records.
	WireCodec string
	// RemapInterval is how often a read-only replicated file re-evaluates
	// its replica choice mid-read; 0 disables dynamic re-binding.
	RemapInterval time.Duration
	// Retry is the resilience policy threaded into every transport this FM
	// opens (file-service clients and Grid Buffer endpoints). When enabled it
	// also arms replica failover: a replicated read whose transport dies —
	// after the client's own retries are exhausted — re-binds to the
	// next-best surviving replica at the current offset. The zero policy is
	// one attempt with no deadline (see rpc.Conn).
	Retry retry.Policy
	// Heuristic tunes ModeAuto's copy-vs-remote decision (§3.1).
	Heuristic HeuristicConfig
	// Records registers record schemas by open path for §3.3 byte-order
	// translation; ByteOrder is this machine's order ("le" default, "be").
	// A read of a file whose GNS mapping declares a different DataOrder is
	// translated record-by-record in flight.
	Records   map[string]RecordSpec
	ByteOrder string

	// Hooks are a scheduler's per-attempt callbacks.
	Hooks Hooks
}

// Transport names how the Grid Buffer client talks to the buffer service.
// The zero value streams framed binary messages over one kept connection.
type Transport string

const (
	// TransportPerCall delivers every block on a fresh, politely closed
	// connection, as 2004 connection-per-call Web-Services stacks did (see
	// gridbuffer.WriterOptions.ConnPerCall).
	TransportPerCall Transport = "percall"
	// TransportSOAP speaks the paper's actual SOAP 1.1/HTTP envelopes
	// (connection-per-call by nature). The mapping's BufferHost must name
	// the SOAP endpoint; workflow.Runner.Configure sees to that.
	TransportSOAP Transport = "soap"
)

// Buffer is the Grid Buffer client's part of Config.
type Buffer struct {
	Transport Transport
	// Window is the writer's count of unacknowledged blocks in flight and
	// Depth the reader's prefetch depth, in blocks; 0 derives each from the
	// byte budgets of package gridbuffer.
	Window int
	Depth  int
}

// Hooks are the callbacks workflow.Runner hangs on one stage attempt's FM.
type Hooks struct {
	// PollCost, if set, is charged once per WaitClose poll (the testbed
	// points it at Machine.Compute to model the CPU cost of polling).
	PollCost func()
	// Prestage, if set, is consulted before a mode-2 read open pays its
	// stage-in copy: a claimed eager copy (already staged toward this
	// machine by the workflow scheduler) is adopted in place of the
	// open-time CopyIn. See Prestager for the coherence contract.
	Prestage Prestager
	// CloseNotify, if set, is called with the open path after a written
	// file's close has fully settled (stage-out and markers included). The
	// workflow scheduler uses it to start eager stage-in copies toward
	// downstream consumers while the producer is still computing.
	CloseNotify func(path string)
	// Interrupt, if set, is polled at the top of every OPEN (and Stat); a
	// non-nil error aborts the call with that error before any GNS or
	// transport work. The workflow scheduler points it at a stage attempt's
	// lost-speculation flag: an attempt that lost the first-writer-wins
	// commit race is cut off at its next IO, so it can never stage out over
	// — or publish markers for — outputs the winner already committed.
	Interrupt func() error
}

// Paper2004 returns the tuning of the 2004 prototype, every value spelled out
// even where it equals the default: a change to what a zero field means adds
// the old value here and Tables 2–5 do not move (TestTablesGolden). What the
// prototype lacked — cache, prefetch, codecs, remap, retry — stays zero.
func Paper2004() Config {
	return Config{
		PollInterval: 200 * time.Millisecond,
		// One connection per block, two blocks in flight either way: the
		// request/response depth of the paper's Web-Services transport.
		Buffer:      Buffer{Transport: TransportPerCall, Window: 2, Depth: 2},
		CopyStreams: 1,
	}
}

// DoneSuffix marks completion files for WaitClose coordination.
const DoneSuffix = ".done"

// Multiplexer is one application's FM instance.
type Multiplexer struct {
	cfg      Config
	obs      *obs.Observer
	stats    Stats
	registry *Registry
	cache    *BlockCache      // from Config.BlockCacheBytes; nil reads through uncached
	order    binary.ByteOrder // Config.ByteOrder, resolved
	env      Env

	mu     sync.Mutex
	pooled map[poolKey]io.Closer // per-service transport clients (Env.Pooled)
}

// poolKey names one pooled client: a struct, so the per-OPEN lookup builds no
// string.
type poolKey struct{ scheme, addr string }

// New returns a Multiplexer for cfg. Machine, Clock, FS, Dialer and GNS are
// required, and every configuration string is checked here rather than at the
// first OPEN that would use it.
func New(cfg Config) (*Multiplexer, error) {
	if cfg.Machine == "" || cfg.Clock == nil || cfg.FS == nil || cfg.Dialer == nil || cfg.GNS == nil {
		return nil, errors.New("core: Config requires Machine, Clock, FS, Dialer and GNS")
	}
	switch cfg.Buffer.Transport {
	case "", TransportPerCall, TransportSOAP:
	default:
		return nil, fmt.Errorf("core: Config.Buffer.Transport: unknown transport %q", cfg.Buffer.Transport)
	}
	if _, err := wire.ForName(cfg.WireCodec); err != nil {
		return nil, fmt.Errorf("core: Config.WireCodec: %w", err)
	}
	if cfg.ByteOrder == "" {
		cfg.ByteOrder = "le"
	}
	order, err := orderByName(cfg.ByteOrder)
	if err != nil {
		return nil, fmt.Errorf("core: Config.ByteOrder: %w", err)
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New(cfg.Clock)
	}
	if cfg.Retry.Enabled() && cfg.Retry.Clock == nil {
		cfg.Retry.Clock = cfg.Clock
	}
	// Armed even on the one-attempt policy: transports also hang their own
	// instruments (the Grid Buffer's buf.flush.blocks) on the policy's
	// observer.
	if cfg.Retry.Obs == nil {
		cfg.Retry.Obs = cfg.Obs
		cfg.Retry.Src = cfg.Machine
	}
	if cfg.Backends == nil {
		cfg.Backends = DefaultRegistry()
	}
	m := &Multiplexer{
		cfg:      cfg,
		obs:      cfg.Obs,
		registry: cfg.Backends,
		order:    order,
		pooled:   make(map[poolKey]io.Closer),
	}
	if cfg.BlockCacheBytes > 0 {
		m.cache = NewBlockCache(cfg.BlockCacheBytes)
		m.cache.SetObserver(cfg.Obs)
	}
	m.env = Env{fm: m}
	m.stats.init(m.obs, cfg.Machine)
	return m, nil
}

// Backends reports the registry this FM dispatches opens through.
func (m *Multiplexer) Backends() *Registry { return m.registry }

// BlockCache reports the FM's block cache, if one is configured.
func (m *Multiplexer) BlockCache() *BlockCache { return m.cache }

// Stats reports cumulative counters for this FM instance.
func (m *Multiplexer) Stats() *Stats { return &m.stats }

// Obs reports the observer this FM writes metrics and events to.
func (m *Multiplexer) Obs() *obs.Observer { return m.obs }

// client returns the pooled file-service client for addr.
func (m *Multiplexer) client(addr string) *gridftp.Client {
	return m.env.Pooled("gridftp", addr, func() io.Closer {
		c := gridftp.NewClient(m.cfg.Dialer, addr, m.cfg.Clock)
		c.SetObserver(m.obs)
		c.SetRetry(m.cfg.Retry)
		m.configureCodec(c, addr)
		return c
	}).(*gridftp.Client)
}

// Close releases the pooled service connections.
func (m *Multiplexer) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.pooled {
		c.Close()
	}
	m.pooled = make(map[poolKey]io.Closer)
	return nil
}

// Open opens path read-only.
func (m *Multiplexer) Open(path string) (File, error) {
	return m.OpenFile(path, os.O_RDONLY, 0)
}

// Create opens path for writing, creating or truncating it.
func (m *Multiplexer) Create(path string) (File, error) {
	return m.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

// backendFor resolves a mapping to its registered backend: the explicit
// Scheme when the GNS entry carries one, the mode-derived scheme otherwise.
func (m *Multiplexer) backendFor(path string, mapping gns.Mapping) (Backend, string, error) {
	scheme := mapping.Scheme
	if scheme == "" {
		scheme = SchemeForMode(mapping.Mode)
	}
	b, ok := m.registry.Lookup(scheme)
	if !ok {
		return nil, scheme, fmt.Errorf("core: %s: no backend registered for scheme %q (mode %d)", path, scheme, mapping.Mode)
	}
	return b, scheme, nil
}

// OpenFile is the intercepted OPEN: it resolves (machine, path) in the GNS
// and dispatches through the backend registry to the mechanism the mapping
// selects.
func (m *Multiplexer) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	if err := m.interrupted(path); err != nil {
		return nil, err
	}
	mapping, err := m.cfg.GNS.Resolve(m.cfg.Machine, path)
	if err != nil {
		return nil, fmt.Errorf("core: resolving %s on %s: %w", path, m.cfg.Machine, err)
	}
	m.stats.opened(mapping.Mode)
	writing := flag&(os.O_WRONLY|os.O_RDWR) != 0
	m.obs.Emit("fm.open", m.cfg.Machine,
		obs.KV("path", path), obs.KV("mode", mapping.Mode.String()), obs.KV("writing", writing))

	b, scheme, err := m.backendFor(path, mapping)
	if err != nil {
		return nil, err
	}
	m.obs.Counter(obs.Key("fm.backend.open.total", "scheme", scheme)).Inc()
	if mapping.Scheme != "" && mapping.Scheme != SchemeForMode(mapping.Mode) {
		// The GNS entry overrode the mode-derived backend: record the
		// decision the way the auto heuristic records its choices.
		m.obs.Emit("fm.backend.select", m.cfg.Machine,
			obs.KV("path", path), obs.KV("scheme", scheme),
			obs.KV("over", SchemeForMode(mapping.Mode)), obs.KV("reason", "gns-scheme-override"))
	}
	f, err := b.Open(context.Background(), &m.env, OpenRequest{Path: path, Mapping: mapping, Flag: flag, Perm: perm, Writing: writing})
	if err != nil {
		return nil, err
	}
	return m.maybeTranslate(f, path, mapping, writing)
}

// Stat reports metadata for path under its current mapping, through the
// mapping's backend (local and staged files stat locally; remote modes stat
// the service; object mappings stat the object).
func (m *Multiplexer) Stat(path string) (size int64, exists bool, err error) {
	if err := m.interrupted(path); err != nil {
		return 0, false, err
	}
	mapping, err := m.cfg.GNS.Resolve(m.cfg.Machine, path)
	if err != nil {
		return 0, false, err
	}
	b, _, err := m.backendFor(path, mapping)
	if err != nil {
		return 0, false, err
	}
	return b.Stat(context.Background(), &m.env, path, mapping)
}

// interrupted polls the Interrupt hook and records a refused call.
func (m *Multiplexer) interrupted(path string) error {
	if m.cfg.Hooks.Interrupt == nil {
		return nil
	}
	err := m.cfg.Hooks.Interrupt()
	if err == nil {
		return nil
	}
	m.obs.Counter("fm.interrupt.total").Inc()
	m.obs.Emit("fm.interrupt", m.cfg.Machine,
		obs.KV("path", path), obs.KV("error", err.Error()))
	return err
}

func localPath(mapping gns.Mapping, openPath string) string {
	if mapping.LocalPath != "" {
		return mapping.LocalPath
	}
	return openPath
}

func remotePath(mapping gns.Mapping, openPath string) string {
	if mapping.RemotePath != "" {
		return mapping.RemotePath
	}
	return openPath
}

// cacheKeyRemote is the block-cache identity of a mode-3 file: remote
// coordinates plus the GNS mapping generation, so a remapped path never
// serves blocks of its previous binding.
func cacheKeyRemote(mapping gns.Mapping, rp string) string {
	return fmt.Sprintf("remote:%s/%s@%d", mapping.RemoteHost, rp, mapping.Version)
}

// cacheKeyReplica is the block-cache identity of a mode-4/5 file: the
// logical name plus the mapping generation. Replicas of one logical file
// are bytewise identical, so a mid-read re-bind or failover keeps the
// cached blocks valid; only a GNS remap (new generation) invalidates them.
func cacheKeyReplica(mapping gns.Mapping, path string) string {
	logical := mapping.LogicalName
	if logical == "" {
		logical = path
	}
	return fmt.Sprintf("replica:%s@%d", logical, mapping.Version)
}

// replicaLocations resolves the candidate replicas of a mapping.
func (m *Multiplexer) replicaLocations(mapping gns.Mapping, path string) ([]replica.Location, error) {
	if m.cfg.Replicas == nil {
		return nil, fmt.Errorf("core: %s maps to replicated mode but no replica catalogue is configured", path)
	}
	logical := mapping.LogicalName
	if logical == "" {
		logical = path
	}
	locs, err := m.cfg.Replicas.Lookup(logical)
	if err != nil {
		return nil, err
	}
	return locs, nil
}

// chooseReplica resolves and ranks the replicas of a mapping.
func (m *Multiplexer) chooseReplica(mapping gns.Mapping, path string) (replica.Location, error) {
	locs, err := m.replicaLocations(mapping, path)
	if err != nil {
		return replica.Location{}, err
	}
	sel := &replica.Selector{NWS: m.cfg.NWS, Obs: m.obs}
	loc, err := sel.Choose(m.cfg.Machine, 0, locs)
	if err != nil {
		return replica.Location{}, fmt.Errorf("core: %s: %w", path, err)
	}
	m.stats.replicaChosen(loc.Host)
	return loc, nil
}

// stageInReplica stages the replicated file behind path into lp: striped
// across every reachable replica when the file is large and several remote
// copies exist, otherwise the best-replica CopyIn with the ranked failover
// walk.
func (m *Multiplexer) stageInReplica(mapping gns.Mapping, path, lp string) (int64, error) {
	locs, err := m.replicaLocations(mapping, path)
	if err != nil {
		return 0, err
	}
	if len(locs) > 1 {
		sel := &replica.Selector{NWS: m.cfg.NWS}
		n, used, err := m.stripedStageIn(path, lp, sel.Rank(m.cfg.Machine, 0, locs))
		if used {
			if err != nil {
				return 0, fmt.Errorf("core: copying replica of %s: %w", path, err)
			}
			return n, nil
		}
	}
	loc, err := m.chooseReplica(mapping, path)
	if err != nil {
		return 0, err
	}
	n, err := m.client(loc.Addr).CopyIn(loc.Path, m.cfg.FS, lp, m.cfg.CopyStreams)
	if err != nil && m.cfg.Retry.Enabled() {
		n, err = m.copyInFailover(mapping, path, lp, loc, err)
	}
	if err != nil {
		return 0, fmt.Errorf("core: copying replica of %s: %w", path, err)
	}
	return n, nil
}

// copyInFailover walks the ranked runner-up replicas after a failed copy-in
// from `failed`, returning the bytes staged from the first survivor.
func (m *Multiplexer) copyInFailover(mapping gns.Mapping, path, lp string, failedLoc replica.Location, cause error) (int64, error) {
	locs, err := m.replicaLocations(mapping, path)
	if err != nil {
		return 0, cause
	}
	sel := &replica.Selector{NWS: m.cfg.NWS}
	for _, r := range sel.Rank(m.cfg.Machine, 0, locs) {
		loc := r.Location
		if loc == failedLoc {
			continue
		}
		n, err := m.client(loc.Addr).CopyIn(loc.Path, m.cfg.FS, lp, m.cfg.CopyStreams)
		if err != nil {
			cause = err
			continue
		}
		m.stats.failedOver()
		m.obs.Emit("fm.failover", m.cfg.Machine,
			obs.KV("path", path), obs.KV("from", failedLoc.Host), obs.KV("to", loc.Host),
			obs.KV("offset", int64(0)), obs.KV("error", cause.Error()))
		return n, nil
	}
	return 0, fmt.Errorf("all replicas failed: %w", cause)
}

// emptyReader is an immediately-EOF reader for marker uploads.
type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, io.EOF }
