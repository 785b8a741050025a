package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"

	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/obs"
	"griddles/internal/soap"
	"griddles/internal/vfs"
)

// The paper's six IO mechanisms and the auto heuristic as registry Backends:
// each Open binds its transport and describes it to Env.File, the way
// mechanism 7 (backend_objstore.go) does.

// registerBuiltins installs the in-tree backends into r.
func registerBuiltins(r *Registry) {
	r.MustRegister(localBackend{})
	r.MustRegister(copyBackend{})
	r.MustRegister(remoteBackend{})
	r.MustRegister(replicaRemoteBackend{})
	r.MustRegister(replicaCopyBackend{})
	r.MustRegister(bufferBackend{})
	r.MustRegister(autoBackend{})
	r.MustRegister(objstoreBackend{})
}

// fileHandle describes a file-like transport handle opened with flag: one
// object serves every call, and the direction the flag excludes stays nil.
func fileHandle(f interface {
	io.ReadWriteSeeker
	io.Closer
}, flag int) Handle {
	h := Handle{Seeker: f, Closer: f}
	if flag&os.O_WRONLY == 0 {
		h.Reader = f
	}
	if flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		h.Writer = f
	}
	return h
}

// fetchRange is the prefetch pipeline's ranged read against a file service.
func fetchRange(c *gridftp.Client, path string, off, length int64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := c.Fetch(path, off, length, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// pollDoneMarker waits for path's completion marker on the file service
// (WaitClose coordination); each poll costs a real round trip.
func pollDoneMarker(env *Env, c *gridftp.Client, path string) error {
	return env.PollUntil(func() (bool, error) {
		_, exists, err := c.Stat(path + DoneSuffix)
		return exists, err
	})
}

// statLocal is the metadata path of mechanisms that read from the local file
// system (missing files report exists=false, not an error).
func statLocal(env *Env, path string, mapping gns.Mapping) (int64, bool, error) {
	fi, err := env.FS().Stat(localPath(mapping, path))
	if err != nil {
		return 0, false, nil
	}
	return fi.Size(), true, nil
}

// statRemote stats the file service holding the mapping's remote path.
func statRemote(env *Env, path string, mapping gns.Mapping) (int64, bool, error) {
	return env.fm.client(mapping.RemoteHost).Stat(remotePath(mapping, path))
}

// localBackend is mechanism 1: plain local file IO.
type localBackend struct{}

func (localBackend) Scheme() string { return SchemeForMode(gns.ModeLocal) }
func (localBackend) Open(_ context.Context, env *Env, req OpenRequest) (File, error) {
	fs, lp := env.FS(), localPath(req.Mapping, req.Path)
	if req.Mapping.WaitClose && !req.Writing {
		if err := env.PollUntil(func() (bool, error) { return vfs.Exists(fs, lp+DoneSuffix), nil }); err != nil {
			return nil, err
		}
	}
	f, err := fs.OpenFile(lp, req.Flag, req.Perm)
	if err != nil {
		return nil, err
	}
	h := fileHandle(f, req.Flag)
	if req.Mapping.WaitClose && req.Writing {
		h.Commit = func() error { return vfs.WriteFile(fs, lp+DoneSuffix, nil) }
	}
	return env.File(req.Path, h), nil
}
func (localBackend) Stat(_ context.Context, env *Env, path string, mapping gns.Mapping) (int64, bool, error) {
	return statLocal(env, path, mapping)
}

// copyBackend is mechanism 2: stage-in before the open, stage-out on close.
type copyBackend struct{}

func (copyBackend) Scheme() string { return SchemeForMode(gns.ModeCopy) }
func (copyBackend) Open(_ context.Context, env *Env, req OpenRequest) (File, error) {
	m, path, mapping := env.fm, req.Path, req.Mapping
	lp := localPath(mapping, path)
	rp := remotePath(mapping, path)
	c := m.client(mapping.RemoteHost)
	m.registerRemoteSchema(c, path, rp, mapping)
	if !req.Writing {
		if mapping.WaitClose {
			if err := pollDoneMarker(env, c, rp); err != nil {
				return nil, err
			}
		}
		adopted := false
		if m.cfg.Hooks.Prestage != nil {
			if n, ok := m.cfg.Hooks.Prestage.Claim(m.cfg.Machine, path, mapping); ok {
				m.stats.prestaged(n)
				m.stats.stagedIn(n)
				adopted = true
			} else if fr, isFresh := m.cfg.GNS.(gns.FreshResolver); isFresh {
				// The claim was refused — one cause is that this FM's resolve
				// came from a lease cache and the GNS was remapped behind it
				// (the eager copy was started under a newer mapping). Bypass
				// the cache once and, if the store really has moved on for
				// this mode, stage from the fresh coordinates instead of
				// paying a copy from the stale ones.
				if fresh, err := fr.ResolveFresh(m.cfg.Machine, path); err == nil &&
					fresh.Version > mapping.Version && fresh.Mode == mapping.Mode {
					m.obs.Emit("fm.remap", m.cfg.Machine,
						obs.KV("path", path), obs.KV("from", mapping.RemoteHost),
						obs.KV("to", fresh.RemoteHost), obs.KV("offset", int64(0)))
					mapping = fresh
					lp = localPath(mapping, path)
					rp = remotePath(mapping, path)
					c = m.client(mapping.RemoteHost)
				}
			}
		}
		if !adopted {
			n, err := c.CopyIn(rp, m.cfg.FS, lp, m.cfg.CopyStreams)
			if err != nil {
				return nil, fmt.Errorf("core: staging in %s from %s: %w", rp, mapping.RemoteHost, err)
			}
			m.stats.stagedIn(n)
		}
	}
	f, err := m.cfg.FS.OpenFile(lp, req.Flag, req.Perm)
	if err != nil {
		return nil, err
	}
	h := fileHandle(f, req.Flag)
	if req.Writing {
		h.Commit = func() error {
			n, err := c.CopyOut(m.cfg.FS, lp, rp)
			if err != nil {
				return fmt.Errorf("core: staging out %s to %s: %w", lp, mapping.RemoteHost, err)
			}
			m.stats.stagedOut(n)
			if mapping.WaitClose {
				if _, err := c.Put(rp+DoneSuffix, emptyReader{}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return env.File(path, h), nil
}
func (copyBackend) Stat(_ context.Context, env *Env, path string, mapping gns.Mapping) (int64, bool, error) {
	return statRemote(env, path, mapping)
}

// remoteBackend is mechanism 3: block-granular proxy access.
type remoteBackend struct{}

func (remoteBackend) Scheme() string { return SchemeForMode(gns.ModeRemote) }
func (remoteBackend) Open(_ context.Context, env *Env, req OpenRequest) (File, error) {
	mapping := req.Mapping
	c := env.fm.client(mapping.RemoteHost)
	rp := remotePath(mapping, req.Path)
	env.fm.registerRemoteSchema(c, req.Path, rp, mapping)
	if mapping.WaitClose && !req.Writing {
		if err := pollDoneMarker(env, c, rp); err != nil {
			return nil, err
		}
	}
	rf, err := c.Open(rp, req.Flag)
	if err != nil {
		return nil, fmt.Errorf("core: remote open %s on %s: %w", rp, mapping.RemoteHost, err)
	}
	h := fileHandle(rf, req.Flag)
	if mapping.WaitClose && req.Writing {
		h.Commit = func() error {
			_, err := c.Put(rp+DoneSuffix, emptyReader{})
			return err
		}
	}
	if env.BlockCache() != nil {
		h.CacheKey = cacheKeyRemote(mapping, rp)
		h.Fetch = func(off, length int64) ([]byte, error) { return fetchRange(c, rp, off, length) }
	}
	return env.File(req.Path, h), nil
}
func (remoteBackend) Stat(_ context.Context, env *Env, path string, mapping gns.Mapping) (int64, bool, error) {
	return statRemote(env, path, mapping)
}

// replicaRemoteBackend is mechanism 4: remote reads from the best replica,
// with mid-read re-binding and failover.
type replicaRemoteBackend struct{}

func (replicaRemoteBackend) Scheme() string { return SchemeForMode(gns.ModeReplicaRemote) }

// Open binds the best-ranked replica. With the retry policy enabled an
// unreachable best replica is not fatal at open time either: the ranked
// runners-up are tried in order.
func (replicaRemoteBackend) Open(_ context.Context, env *Env, req OpenRequest) (File, error) {
	m, path, mapping := env.fm, req.Path, req.Mapping
	if req.Writing {
		return nil, fmt.Errorf("core: %s: replicated files are read-only", path)
	}
	loc, err := m.chooseReplica(mapping, path)
	if err != nil {
		return nil, err
	}
	f := &replicaFile{
		fm: m, name: path, mapping: mapping,
		failed:    make(map[string]bool),
		lastCheck: m.cfg.Clock.Now(),
	}
	f.setLocation(loc)
	if f.cur, err = m.client(loc.Addr).Open(loc.Path, os.O_RDONLY); err != nil {
		if !m.cfg.Retry.Enabled() {
			return nil, err
		}
		f.failed[loc.Host] = true
		if ferr := f.failover(err); ferr != nil {
			return nil, ferr
		}
	}
	h := Handle{Reader: f, Seeker: f, Closer: f}
	if env.BlockCache() != nil {
		h.CacheKey = cacheKeyReplica(mapping, path)
		h.Fetch = f.fetch
	}
	file := env.File(path, h)
	if pf := file.(*handle).pf; pf != nil {
		f.rearm = pf.rearm
	}
	return file, nil
}
func (replicaRemoteBackend) Stat(_ context.Context, env *Env, path string, mapping gns.Mapping) (int64, bool, error) {
	return statLocal(env, path, mapping)
}

// replicaCopyBackend is mechanism 5: choose replica, copy local, read
// locally. With the retry policy enabled, a replica whose copy-in fails is
// skipped and the ranked runners-up are tried in order.
type replicaCopyBackend struct{}

func (replicaCopyBackend) Scheme() string { return SchemeForMode(gns.ModeReplicaCopy) }
func (replicaCopyBackend) Open(_ context.Context, env *Env, req OpenRequest) (File, error) {
	m, path, mapping := env.fm, req.Path, req.Mapping
	if req.Writing {
		return nil, fmt.Errorf("core: %s: replicated files are read-only", path)
	}
	lp := localPath(mapping, path)
	n, err := m.stageInReplica(mapping, path, lp)
	if err != nil {
		return nil, err
	}
	m.stats.stagedIn(n)
	f, err := m.cfg.FS.OpenFile(lp, req.Flag, req.Perm)
	if err != nil {
		return nil, err
	}
	h := fileHandle(f, req.Flag)
	if env.BlockCache() != nil {
		// The staged copy is bytewise the replica, so it shares the replica
		// cache identity: a re-read after a fresh stage-in of the same
		// generation hits blocks cached by an earlier open.
		h.CacheKey = cacheKeyReplica(mapping, path)
	}
	return env.File(path, h), nil
}
func (replicaCopyBackend) Stat(_ context.Context, env *Env, path string, mapping gns.Mapping) (int64, bool, error) {
	return statLocal(env, path, mapping)
}

// bufferBackend is mechanism 6: direct Grid Buffer streaming between writer
// and reader, over the binary transport or inside the paper's SOAP envelopes.
type bufferBackend struct{}

func (bufferBackend) Scheme() string { return SchemeForMode(gns.ModeBuffer) }
func (bufferBackend) Open(_ context.Context, env *Env, req OpenRequest) (File, error) {
	cfg, mapping := &env.fm.cfg, req.Mapping
	if req.Flag&os.O_RDWR != 0 {
		return nil, fmt.Errorf("core: %s: grid buffers are unidirectional (open read-only or write-only)", req.Path)
	}
	key := mapping.BufferKey
	if key == "" {
		key = req.Path
	}
	opts := gridbuffer.Options{
		BlockSize: mapping.EffectiveBlockSize(),
		Cache:     mapping.CacheEnabled,
		CachePath: mapping.CachePath,
		Readers:   mapping.Readers,
	}
	// SOAP is an envelope around the connection-per-call exchanges, whose
	// reader fetches a block per call too.
	dialer, soapWire := cfg.Dialer, cfg.Buffer.Transport == TransportSOAP
	if soapWire {
		dialer = soap.Dialer{Dialer: cfg.Dialer}
	}
	codec := env.WireCodec(mapping.BufferHost)
	if req.Writing {
		w, err := gridbuffer.NewWriter(dialer, mapping.BufferHost, cfg.Clock, key, opts, gridbuffer.WriterOptions{
			Window: cfg.Buffer.Window, ConnPerCall: soapWire || cfg.Buffer.Transport == TransportPerCall, Retry: cfg.Retry, Codec: codec})
		if err != nil {
			return nil, err
		}
		return env.File(req.Path, Handle{Writer: w, Closer: w}), nil
	}
	r, err := gridbuffer.NewReader(dialer, mapping.BufferHost, cfg.Clock, key, opts, gridbuffer.ReaderOptions{
		Depth: cfg.Buffer.Depth, ConnPerCall: soapWire, Retry: cfg.Retry, Codec: codec})
	if err != nil {
		return nil, err
	}
	return env.File(req.Path, Handle{Reader: r, Seeker: r, Closer: r}), nil
}
func (bufferBackend) Stat(_ context.Context, env *Env, path string, mapping gns.Mapping) (int64, bool, error) {
	return statLocal(env, path, mapping)
}

// autoBackend is the §3.1 heuristic: decide copy-vs-remote at open time,
// then bind as the chosen mechanism. Writers stage out through the copy
// path; remote block writes over WAN would be pathological.
type autoBackend struct{}

func (autoBackend) Scheme() string { return SchemeForMode(gns.ModeAuto) }
func (autoBackend) Open(ctx context.Context, env *Env, req OpenRequest) (File, error) {
	d := Decision{Mode: gns.ModeCopy, Reason: "write binding always stages", Path: req.Path}
	if !req.Writing {
		var err error
		if d, err = env.fm.decideAuto(req.Path, req.Mapping); err != nil {
			return nil, err
		}
	}
	env.fm.stats.decided(d)
	req.Mapping.Mode = d.Mode
	if d.Mode == gns.ModeRemote {
		return remoteBackend{}.Open(ctx, env, req)
	}
	return copyBackend{}.Open(ctx, env, req)
}

// Stat stats locally: the heuristic only engages on opens.
func (autoBackend) Stat(_ context.Context, env *Env, path string, mapping gns.Mapping) (int64, bool, error) {
	return statLocal(env, path, mapping)
}
