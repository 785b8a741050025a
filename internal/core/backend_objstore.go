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

func (objstoreBackend) Capabilities() Capabilities {
	return Capabilities{Write: true, PartialOverwrite: false, RandomRead: true, Ranged: true, Listable: true, DurabilityPoint: "close"}
}

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
	// WaitClose needs no completion marker here: an object is visible only
	// once its PUT committed, so existence is the writer's close signal.
	if req.Mapping.WaitClose {
		if err := env.PollUntil(func() (bool, error) {
			_, exists, err := c.Stat(key)
			return exists, err
		}); err != nil {
			return nil, err
		}
	}
	size, exists, err := c.Stat(key)
	if err != nil {
		return nil, err
	}
	if !exists {
		return nil, fmt.Errorf("core: %s: no such object %s on %s", req.Path, key, req.Mapping.RemoteHost)
	}
	raw := &objstoreRaw{client: c, key: key, size: size}
	h.Reader, h.Seeker = raw, raw
	if h.CacheKey != "" {
		h.Fetch = raw.fetch
	}
	return env.File(req.Path, h), nil
}

func (objstoreBackend) Stat(_ context.Context, env *Env, path string, mapping gns.Mapping) (int64, bool, error) {
	return objstoreClient(env, mapping.RemoteHost).Stat(remotePath(mapping, path))
}

// objstoreRaw is the uncached sequential read handle over ranged GETs, with
// a read-ahead buffer so plain sequential reads cost one round trip per
// 64 KiB, not per call. The object size is known at open, so the full Seek
// surface (including io.SeekEnd) works without a round trip.
type objstoreRaw struct {
	client *objstore.Client
	key    string
	size   int64
	pos    int64

	buf    []byte // read-ahead buffer
	bufOff int64  // object offset of buf[0]
}

// readAhead is the ranged-GET granularity of sequential reads.
const objstoreReadAhead = 64 * 1024

func (f *objstoreRaw) Read(p []byte) (int, error) {
	if f.pos >= f.size {
		return 0, io.EOF
	}
	if f.pos >= f.bufOff && f.pos < f.bufOff+int64(len(f.buf)) {
		n := copy(p, f.buf[f.pos-f.bufOff:])
		f.pos += int64(n)
		return n, nil
	}
	want := int64(objstoreReadAhead)
	if int64(len(p)) > want {
		want = int64(len(p))
	}
	if f.pos+want > f.size {
		want = f.size - f.pos
	}
	buf, err := f.fetch(f.pos, want)
	if err != nil {
		return 0, err
	}
	if len(buf) == 0 {
		return 0, io.EOF
	}
	f.buf = buf
	f.bufOff = f.pos
	c := copy(p, f.buf)
	f.pos += int64(c)
	return c, nil
}

// fetch is one ranged GET: the read-ahead's, and the prefetch pipeline's
// (the client is connection-per-operation, so workers may call it at once).
func (f *objstoreRaw) fetch(off, length int64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(length))
	if _, _, err := f.client.Get(f.key, off, length, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
	client *objstore.Client
	key    string
	body   []byte
}

func (w *objstoreWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *objstoreWriter) Close() error {
	_, err := w.client.Put(w.key, bytes.NewReader(w.body))
	return err
}
