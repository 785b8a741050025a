package core

import (
	"fmt"
	"io"
)

// FetchFunc serves one ranged read: up to length bytes at off. It is the
// transport hook the prefetch pipeline issues its lookahead fetches
// through.
type FetchFunc func(off, length int64) ([]byte, error)

// Handle describes the mechanism bound to one OPEN: the raw transport handle
// split by capability, what its close has to do, and how the FM's read
// layers may name and fetch its bytes. Env.File turns it into the File the
// application sees; a backend differs from another only in what it fills in.
type Handle struct {
	// Reader, Writer and Seeker are the transport's calls. A nil one is
	// refused: leave Writer nil on a read-only open, Reader nil on a
	// write-only one, Seeker nil on a handle that is sequential.
	Reader io.Reader
	Writer io.Writer
	Seeker io.Seeker
	// Closer releases the transport; for a commit-at-close transport (buffer
	// EOF, object PUT) it is the commit.
	Closer io.Closer
	// Commit runs once the transport closed cleanly and makes the written
	// bytes visible elsewhere: the stage-out copy, then the completion
	// marker.
	Commit func() error
	// CacheKey names the bytes behind the handle for the block cache and must
	// embed Mapping.Version, so a GNS remap never serves stale blocks. Empty
	// means never cached.
	CacheKey string
	// Fetch is a ranged read over the transport, safe for concurrent use; with
	// it a cached reader also gets the prefetch pipeline.
	Fetch FetchFunc
}

// File builds the one handle type every mechanism hands to the application.
// It counts fm.read.bytes and fm.write.bytes, refuses a nil direction and any
// IO after Close, and — when the FM has a block cache and d has a CacheKey —
// reads a read-only handle through the cache (with prefetch if d.Fetch is set
// and a window is configured) and drops the key's blocks on behalf of a
// writer, at open and again once its close has settled. Close runs, in order:
// prefetch shutdown, d.Closer, d.Commit, that invalidation, Hooks.CloseNotify
// (writers only). It stops at the first error, and every later Close returns
// what the first one did.
func (e *Env) File(name string, d Handle) File {
	h := &handle{Handle: d, name: name, fm: e.fm}
	cache := e.fm.cache
	if cache == nil || d.CacheKey == "" {
		return h
	}
	if d.Writer != nil {
		cache.Invalidate(d.CacheKey)
	} else if d.Reader != nil && d.Seeker != nil {
		cr := newCachedReader(struct {
			io.Reader
			io.Seeker
		}{d.Reader, d.Seeker}, cache, d.CacheKey)
		if w := e.fm.cfg.PrefetchWindow; w > 0 && d.Fetch != nil {
			cr.pf = newPrefetcher(e.fm.cfg.Clock, e.fm.obs, cache, d.CacheKey, d.Fetch, w)
			h.pf = cr.pf
		}
		h.Reader, h.Seeker = cr, cr
	}
	return h
}

// handle is the File behind every OPEN; translatingFile is the only other
// implementation, and it wraps one of these.
type handle struct {
	Handle // as described, except Reader/Seeker point at the cache stack when one was built
	name   string
	fm     *Multiplexer
	pf     *prefetcher // nil without a prefetch pipeline

	closed   bool
	closeErr error
}

func (h *handle) Name() string { return h.name }

// refused explains a call the handle will not pass on.
func (h *handle) refused(op string) error {
	if h.closed {
		return fmt.Errorf("core: %s: %s after close", h.name, op)
	}
	return fmt.Errorf("core: %s: handle was not opened for %s", h.name, op)
}

func (h *handle) Read(p []byte) (int, error) {
	if h.closed || h.Reader == nil {
		return 0, h.refused("read")
	}
	n, err := h.Reader.Read(p)
	h.fm.stats.read(n)
	return n, err
}

func (h *handle) Write(p []byte) (int, error) {
	if h.closed || h.Writer == nil {
		return 0, h.refused("write")
	}
	n, err := h.Writer.Write(p)
	h.fm.stats.wrote(n)
	return n, err
}

func (h *handle) Seek(offset int64, whence int) (int64, error) {
	if h.closed || h.Seeker == nil {
		return 0, h.refused("seek")
	}
	return h.Seeker.Seek(offset, whence)
}

func (h *handle) Close() error {
	if !h.closed {
		h.closed = true
		h.closeErr = h.close()
	}
	return h.closeErr
}

func (h *handle) close() error {
	if h.pf != nil {
		h.pf.close()
	}
	if h.Closer != nil {
		if err := h.Closer.Close(); err != nil {
			return err
		}
	}
	if h.Commit != nil {
		if err := h.Commit(); err != nil {
			return err
		}
	}
	if h.Writer == nil {
		return nil
	}
	if cache := h.fm.cache; cache != nil && h.CacheKey != "" {
		cache.Invalidate(h.CacheKey)
	}
	if notify := h.fm.cfg.Hooks.CloseNotify; notify != nil {
		notify(h.name)
	}
	return nil
}
