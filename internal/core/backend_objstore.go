package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"griddles/internal/gns"
	"griddles/internal/objstore"
	"griddles/internal/rpc"
)

// objstoreBackend is mechanism 7: whole-object access on the object-store
// service. Its semantics diverge from POSIX where object stores do — PUT is
// whole-object, immutable and atomic (commit at Close, the durability
// point); there is no partial overwrite, so write handles are sequential
// write-only and O_RDWR is rejected; reads are ranged GETs with the full
// random-access Seek surface.
//
// The implementation is written purely against the exported Env surface —
// it is the in-tree proof of the BACKENDS.md contract, and the worked
// example that walkthrough follows.
type objstoreBackend struct{}

func (objstoreBackend) Scheme() string { return SchemeForMode(gns.ModeObject) }

// objstoreClient returns the pooled per-FM client for addr, with the FM's
// retry policy and observer threaded in.
func objstoreClient(env *Env, addr string) *objstore.Client {
	c := env.Pooled("objstore", addr, func() io.Closer {
		c := objstore.NewClient(env.Dialer(), addr, env.Clock())
		c.SetObserver(env.Observer())
		c.SetRetry(env.Retry())
		if codec := env.WireCodec(addr); codec != "" {
			c.SetCodec(codec)
		}
		return c
	})
	return c.(*objstore.Client)
}

// cacheKeyObject is the block-cache identity of a mode-7 object: service
// coordinates plus the GNS mapping generation, so a remapped path never
// serves blocks of its previous binding.
func cacheKeyObject(mapping gns.Mapping, key string) string {
	return fmt.Sprintf("objstore:%s/%s@%d", mapping.RemoteHost, key, mapping.Version)
}

func (objstoreBackend) Open(_ context.Context, env *Env, req OpenRequest) (File, error) {
	if req.Flag&os.O_RDWR != 0 {
		return nil, fmt.Errorf("core: %s: objects are immutable; open read-only or write-only", req.Path)
	}
	c := objstoreClient(env, req.Mapping.RemoteHost)
	key := remotePath(req.Mapping, req.Path)
	var h Handle
	if env.BlockCache() != nil {
		h.CacheKey = cacheKeyObject(req.Mapping, key)
	}
	if req.Writing {
		w := &objstoreWriter{client: c, key: key}
		h.Writer, h.Closer = w, w
		return env.File(req.Path, h), nil
	}
	raw := &objstoreRaw{client: c, key: key}
	var exists bool
	stat := func() (_ bool, err error) {
		raw.size, exists, err = c.Stat(key)
		return exists, err
	}
	// WaitClose needs no completion marker here: an object is visible only
	// once its PUT committed, so existence is the writer's close signal, and
	// the Stat that sees it is the one that learns the size.
	var err error
	if req.Mapping.WaitClose {
		err = env.PollUntil(stat)
	} else {
		_, err = stat()
	}
	if err != nil {
		return nil, err
	}
	if !exists {
		return nil, fmt.Errorf("core: %s: no such object %s on %s", req.Path, key, req.Mapping.RemoteHost)
	}
	h.Reader, h.Seeker = raw, raw
	if h.CacheKey != "" {
		h.Fetch = raw.fetch
	}
	return env.File(req.Path, h), nil
}

func (objstoreBackend) Stat(_ context.Context, env *Env, path string, mapping gns.Mapping) (int64, bool, error) {
	return objstoreClient(env, mapping.RemoteHost).Stat(remotePath(mapping, path))
}

// objstoreRaw is the uncached read handle over ranged GETs, with one
// read-ahead window so sequential reads cost a round trip per window, not per
// call. The window's length follows the one rule of every ranged reader
// (rpc.NextWindow): the floor after an open or a seek, doubling up to the cap
// each time a read runs off its end. The object size is known at open, so
// the full Seek surface (including io.SeekEnd) works without a round trip.
type objstoreRaw struct {
	client *objstore.Client
	key    string
	size   int64
	pos    int64

	buf    []byte // the window, refilled in place: object bytes from bufOff
	bufOff int64
	ahead  int // length of the last refill asked for
}

func (f *objstoreRaw) Read(p []byte) (int, error) {
	if f.pos >= f.size {
		return 0, io.EOF
	}
	if end := f.bufOff + int64(len(f.buf)); f.pos < f.bufOff || f.pos >= end {
		f.ahead = rpc.NextWindow(f.ahead, f.pos == end && len(f.buf) > 0)
		want := min(int64(max(f.ahead, len(p))), f.size-f.pos)
		// The refill overwrites the array the old window lives in, so the
		// old window is gone from here on, whether the refill succeeds or not.
		f.buf, f.bufOff = f.buf[:0], f.pos
		buf, err := f.get(f.pos, want, f.buf)
		if err != nil {
			return 0, err
		}
		if len(buf) == 0 {
			return 0, io.EOF
		}
		f.buf = buf
	}
	n := copy(p, f.buf[f.pos-f.bufOff:])
	f.pos += int64(n)
	return n, nil
}

// get is one ranged GET into dst's array, or a new one when that is too
// small. Every exchange of the client owns its connection, so the prefetch
// workers may call it at once.
func (f *objstoreRaw) get(off, length int64, dst []byte) ([]byte, error) {
	if int64(cap(dst)) < length {
		dst = make([]byte, 0, length)
	}
	buf := bytes.NewBuffer(dst)
	if _, _, err := f.client.Get(f.key, off, length, buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// fetch is the prefetch pipeline's FetchFunc: each block is the cache's to
// keep, so each gets an array of its own.
func (f *objstoreRaw) fetch(off, length int64) ([]byte, error) {
	return f.get(off, length, nil)
}

func (f *objstoreRaw) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = f.size
	default:
		return 0, fmt.Errorf("core: bad whence %d", whence)
	}
	npos := base + offset
	if npos < 0 {
		return 0, errors.New("core: negative seek")
	}
	f.pos = npos
	return npos, nil
}

// objstoreWriter accumulates the object body and commits it as one atomic
// PUT on Close — the backend's durability point. It offers no Seek: an
// object store has no partial overwrite, so a seek on a write handle is a
// pinned divergence, not an omission.
type objstoreWriter struct {
	client        *objstore.Client
	key           string
	objstore.Body // Write collects the body
}

func (w *objstoreWriter) Close() error {
	_, err := w.client.Put(w.key, bytes.NewReader(w.Bytes()))
	return err
}
