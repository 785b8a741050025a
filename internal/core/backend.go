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
	// Open binds one OPEN call and returns env.File over the mechanism's raw
	// handle; env exposes the FM's cross-cutting layers (block cache,
	// prefetch, retry policy, observer, client pools).
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
// plumbing, and the one file handle (File, in handle.go) that carries the
// cross-cutting layers — so a backend can be written without reaching into
// the FM's internals.
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
// a codec name to negotiate, or "" to stay raw.
// Backends thread it into transports that support negotiated encodings.
func (e *Env) WireCodec(addr string) string { return e.fm.codecFor(addr) }

// BlockCache reports the FM's shared block cache, or nil when caching is
// disabled. File composes it; a backend asks only to skip building a
// Handle.CacheKey and Fetch nobody would use.
func (e *Env) BlockCache() *BlockCache { return e.fm.cache }

// PollUntil polls fn at the FM's WaitClose cadence — charging the
// configured poll cost and sleeping PollInterval between attempts — until
// it reports done or fails. Backends use it to implement WaitClose
// coordination against whatever "the writer has committed" looks like on
// their store.
func (e *Env) PollUntil(fn func() (done bool, err error)) error {
	m := e.fm
	for {
		done, err := fn()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		m.stats.polled()
		if m.cfg.Hooks.PollCost != nil {
			m.cfg.Hooks.PollCost()
		}
		m.cfg.Clock.Sleep(m.cfg.PollInterval)
	}
}

// Pooled returns the FM's pooled client of a scheme for one service address,
// creating it with mk on first use; backends share one transport client per
// address across opens this way. The FM closes every pooled value when it is
// closed.
func (e *Env) Pooled(scheme, addr string, mk func() io.Closer) io.Closer {
	m, key := e.fm, poolKey{scheme, addr}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.pooled[key]
	if !ok {
		c = mk()
		m.pooled[key] = c
	}
	return c
}
