package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"griddles/internal/gns"
	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
)

// Backend is one storage/transport implementation behind the File
// Multiplexer. Every IO mechanism — the paper's original six, the
// object-store extension and any out-of-tree addition — sits behind this
// interface, keyed by a scheme name
// in a Registry. The FM resolves an OPEN in the GNS, derives the scheme
// (Mapping.Scheme, or SchemeForMode(Mapping.Mode) when unset) and dispatches
// here. See BACKENDS.md for the full backend-author contract.
type Backend interface {
	// Scheme is the registry key ("local", "remote", "objstore", ...).
	Scheme() string
	// Capabilities declares which optional semantics the backend supports;
	// the FM and callers use it for documentation and error shaping, not for
	// silent behaviour changes.
	Capabilities() Capabilities
	// Open binds one OPEN call. The returned File carries the mechanism's
	// POSIX-shaped handle; env exposes the FM's cross-cutting layers (block
	// cache, prefetch, retry policy, observer, client pools).
	Open(ctx context.Context, env *Env, req OpenRequest) (File, error)
	// Stat reports metadata for path under mapping without opening it.
	// A missing file is (0, false, nil); err is for transport failures.
	Stat(ctx context.Context, env *Env, path string, mapping gns.Mapping) (size int64, exists bool, err error)
}

// OpenRequest carries one intercepted OPEN to a Backend.
type OpenRequest struct {
	// Path is the name the application passed to OPEN (the GNS key).
	Path string
	// Mapping is the GNS's answer for (machine, Path).
	Mapping gns.Mapping
	// Flag and Perm are the os.OpenFile arguments.
	Flag int
	Perm os.FileMode
	// Writing is the FM's write-intent derivation: flag includes O_WRONLY
	// or O_RDWR.
	Writing bool
}

// Capabilities declares a backend's optional semantics. Read, sequential
// write and Close-as-commit are mandatory for every backend; everything
// here is opt-in and a false value is a documented divergence, not a bug.
type Capabilities struct {
	// Write reports whether the backend accepts write opens at all
	// (replicated backends are read-only).
	Write bool
	// PartialOverwrite reports whether an existing byte range may be
	// rewritten in place (seek-and-write on a written file). Object stores
	// say false: objects are immutable, replace is a whole new PUT.
	PartialOverwrite bool
	// RandomRead reports whether read handles support full Seek, including
	// io.SeekEnd.
	RandomRead bool
	// Ranged reports whether the transport serves ranged reads, which is
	// what the prefetch pipeline needs to run ahead of the reader.
	Ranged bool
	// Listable reports whether the backend can enumerate names under a
	// prefix (object stores; not the streaming buffer).
	Listable bool
	// DurabilityPoint names when written bytes are durable and visible to
	// other openers: "write" (bytes land as the handle is written —
	// mechanism 1 per call, mechanism 3 in blocks of up to 64 KiB — and
	// Close is only the latest they can) or "close" (nothing is visible
	// before the commit at Close: stage-out copies, buffer EOF, object PUT).
	DurabilityPoint string
}

// Registry maps scheme names to Backends. The zero value is unusable; use
// NewRegistry. A nil Config.Backends selects DefaultRegistry(), which
// carries the seven in-tree mechanisms.
type Registry struct {
	mu       sync.RWMutex
	backends map[string]Backend
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{backends: make(map[string]Backend)}
}

// Register adds b under its scheme. Registering an empty scheme or a
// duplicate is an error: schemes are a global namespace and a silent
// replacement would re-route every GNS entry using it.
func (r *Registry) Register(b Backend) error {
	scheme := b.Scheme()
	if scheme == "" {
		return fmt.Errorf("core: backend %T has an empty scheme", b)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.backends[scheme]; dup {
		return fmt.Errorf("core: backend scheme %q already registered", scheme)
	}
	r.backends[scheme] = b
	return nil
}

// MustRegister is Register, panicking on error (for init-time wiring).
func (r *Registry) MustRegister(b Backend) {
	if err := r.Register(b); err != nil {
		panic(err)
	}
}

// Lookup reports the backend registered under scheme.
func (r *Registry) Lookup(scheme string) (Backend, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.backends[scheme]
	return b, ok
}

// Schemes reports the registered scheme names, sorted.
func (r *Registry) Schemes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.backends))
	for s := range r.backends {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// defaultRegistry holds the in-tree backends; built once on first use.
var (
	defaultRegistryOnce sync.Once
	defaultRegistry     *Registry
)

// DefaultRegistry reports the process-wide registry carrying the seven
// in-tree mechanisms. Out-of-tree backends may Register here (shared by
// every FM with a nil Config.Backends) or into a private NewRegistry passed
// via Config.Backends.
func DefaultRegistry() *Registry {
	defaultRegistryOnce.Do(func() {
		defaultRegistry = NewRegistry()
		registerBuiltins(defaultRegistry)
	})
	return defaultRegistry
}

// SchemeForMode derives the default dispatch scheme of a GNS mode. It is the
// mode's String name, so mode-derived schemes and explicit Mapping.Scheme
// values share one namespace.
func SchemeForMode(mode gns.Mode) string { return mode.String() }

// Env is the FM-side environment a Backend works against. It deliberately
// exposes only what the backend contract needs — identity, clock, transport
// plumbing, the cross-cutting read layers, and byte accounting — so a
// backend can be written without reaching into the FM's internals.
type Env struct {
	fm *Multiplexer
}

// Machine reports the FM's machine name (the first half of GNS keys).
func (e *Env) Machine() string { return e.fm.cfg.Machine }

// Clock reports the FM's clock (virtual on the testbed, real in daemons).
func (e *Env) Clock() simclock.Clock { return e.fm.cfg.Clock }

// FS reports the machine-local file system.
func (e *Env) FS() vfs.FS { return e.fm.cfg.FS }

// Dialer reports the FM's network identity for outbound connections.
func (e *Env) Dialer() Dialer { return e.fm.cfg.Dialer }

// Observer reports the FM's metric/event sink (never nil).
func (e *Env) Observer() *obs.Observer { return e.fm.obs }

// Retry reports the FM's resilience policy, already armed with the clock
// and observer. Thread it into every transport the backend opens.
func (e *Env) Retry() retry.Policy { return e.fm.cfg.Retry }

// WireCodec reports the FM's stream-codec decision for a link to addr:
// a codec name to negotiate, or "" to stay raw (the historical wire).
// Backends thread it into transports that support negotiated encodings.
func (e *Env) WireCodec(addr string) string { return e.fm.codecFor(addr) }

// BlockCache reports the FM's shared block cache, or nil when caching is
// disabled. Prefer ReaderFile, which composes it automatically.
func (e *Env) BlockCache() *BlockCache { return e.fm.cfg.BlockCache }

// PrefetchWindow reports the configured prefetch depth (0 = disabled).
func (e *Env) PrefetchWindow() int { return e.fm.cfg.PrefetchWindow }

// CountRead adds n bytes to the FM's fm.read.bytes accounting. ReaderFile
// handles this for reads it serves; use it for bespoke read paths.
func (e *Env) CountRead(n int) { e.fm.stats.read(n) }

// CountWritten adds n bytes to the FM's fm.write.bytes accounting.
func (e *Env) CountWritten(n int) { e.fm.stats.wrote(n) }

// PollUntil polls fn at the FM's WaitClose cadence — charging the
// configured poll cost and sleeping PollInterval between attempts — until
// it reports done or fails. Backends use it to implement WaitClose
// coordination against whatever "the writer has committed" looks like on
// their store.
func (e *Env) PollUntil(fn func() (done bool, err error)) error {
	for {
		done, err := fn()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		e.fm.poll()
	}
}

// Pooled returns the per-FM pooled value under key, creating it with mk on
// first use. The FM closes every pooled value when it is closed; backends
// use this to share one transport client per service address across opens,
// exactly as the built-in mechanisms pool their file-service clients.
func (e *Env) Pooled(key string, mk func() io.Closer) io.Closer {
	m := e.fm
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.pooled[key]
	if !ok {
		c = mk()
		m.pooled[key] = c
	}
	return c
}

// FetchFunc serves one ranged read: up to length bytes at off. It is the
// transport hook the prefetch pipeline issues its lookahead fetches
// through.
type FetchFunc func(off, length int64) ([]byte, error)

// ReaderFile assembles the FM's cross-cutting read layers over a backend's
// raw sequential handle: block-cached reads when the FM has a cache,
// the async prefetch pipeline when fetch is non-nil and a prefetch window
// is configured, and fm.read.bytes accounting always. cacheKey must
// identify the bytes behind inner — embed the mapping's Version so a GNS
// remap never serves stale blocks. closeFn, if non-nil, releases the
// backend handle after the layers shut down.
func (e *Env) ReaderFile(name string, inner io.ReadSeeker, cacheKey string, fetch FetchFunc, closeFn func() error) File {
	f := &backendReaderFile{name: name, fm: e.fm, inner: inner, closeFn: closeFn}
	if cache := e.fm.cfg.BlockCache; cache != nil {
		f.cr = newCachedReader(inner, cache, func() string { return cacheKey })
		if w := e.fm.cfg.PrefetchWindow; w > 0 && fetch != nil {
			f.cr.pf = newPrefetcher(e.fm.cfg.Clock, e.fm.obs, cache, f.cr.key, fetch, w)
		}
	}
	return f
}

// backendReaderFile is the generic read-side handle ReaderFile builds for
// registry backends: inner transport below, cache/prefetch in the middle,
// byte accounting on top.
type backendReaderFile struct {
	name    string
	fm      *Multiplexer
	inner   io.ReadSeeker
	cr      *cachedReader
	closeFn func() error
	closed  bool
}

func (f *backendReaderFile) Name() string { return f.name }

func (f *backendReaderFile) Read(p []byte) (int, error) {
	var n int
	var err error
	if f.cr != nil {
		n, err = f.cr.Read(p)
	} else {
		n, err = f.inner.Read(p)
	}
	f.fm.stats.read(n)
	return n, err
}

func (f *backendReaderFile) Write([]byte) (int, error) {
	return 0, fmt.Errorf("core: %s: opened read-only", f.name)
}

func (f *backendReaderFile) Seek(offset int64, whence int) (int64, error) {
	if f.cr != nil {
		return f.cr.Seek(offset, whence)
	}
	return f.inner.Seek(offset, whence)
}

func (f *backendReaderFile) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	if f.cr != nil && f.cr.pf != nil {
		f.cr.pf.close()
	}
	if f.closeFn != nil {
		return f.closeFn()
	}
	return nil
}
