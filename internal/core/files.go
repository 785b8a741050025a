package core

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"griddles/internal/gns"
	"griddles/internal/gridftp"
	"griddles/internal/obs"
	"griddles/internal/replica"
)

// replicaFile is mechanism 4's raw read handle (the one handle of
// handle.go sits on top): a remote file with dynamic re-binding. Every
// RemapInterval of reading it re-ranks the replicas and, if a different one
// now wins, reopens there at the same offset. The application never
// notices — exactly the paper's "change the mapping dynamically during the
// execution" for read-only files.
//
// With the FM's retry policy enabled the same machinery runs on errors: when
// the bound replica dies (its client's own retries exhausted), the file
// fails over to the next-best surviving replica at the current offset.
type replicaFile struct {
	fm      *Multiplexer
	name    string
	mapping gns.Mapping

	cur       *gridftp.RemoteFile
	curLoc    replica.Location
	locMu     sync.Mutex      // guards curLoc: prefetch workers read it mid-fetch
	failed    map[string]bool // hosts excluded after an error, by failover
	pos       int64
	lastCheck time.Time
	rearm     func() // restarts the handle's prefetch pipeline after a failover
}

// Location reports the currently bound replica (for tests and examples).
func (f *replicaFile) Location() replica.Location { return f.location() }

// location reads the current binding under locMu; the prefetch pipeline
// calls it from its workers while remap/failover may be moving the binding.
func (f *replicaFile) location() replica.Location {
	f.locMu.Lock()
	defer f.locMu.Unlock()
	return f.curLoc
}

func (f *replicaFile) setLocation(loc replica.Location) {
	f.locMu.Lock()
	f.curLoc = loc
	f.locMu.Unlock()
}

func (f *replicaFile) maybeRemap() {
	iv := f.fm.cfg.RemapInterval
	if iv <= 0 {
		return
	}
	now := f.fm.cfg.Clock.Now()
	if now.Sub(f.lastCheck) < iv {
		return
	}
	f.lastCheck = now
	loc, err := f.fm.chooseReplica(f.mapping, f.name)
	if err != nil || loc == f.curLoc {
		return
	}
	nf, err := f.fm.client(loc.Addr).Open(loc.Path, os.O_RDONLY)
	if err != nil {
		return // keep the current binding on failure
	}
	if _, err := nf.Seek(f.pos, io.SeekStart); err != nil {
		nf.Close()
		return
	}
	f.cur.Close()
	prev := f.curLoc
	f.cur = nf
	f.setLocation(loc)
	f.fm.stats.remapped()
	f.fm.obs.Emit("fm.remap", f.fm.cfg.Machine,
		obs.KV("path", f.name), obs.KV("from", prev.Host), obs.KV("to", loc.Host),
		obs.KV("offset", f.pos))
}

// failover re-binds the file to the best-ranked replica not yet marked
// failed, at the current offset, and records the fm.failover decision.
// cause is the error that forced the move.
func (f *replicaFile) failover(cause error) error {
	locs, err := f.fm.replicaLocations(f.mapping, f.name)
	if err != nil {
		return err
	}
	sel := &replica.Selector{NWS: f.fm.cfg.NWS}
	for _, r := range sel.Rank(f.fm.cfg.Machine, 0, locs) {
		loc := r.Location
		if f.failed[loc.Host] {
			continue
		}
		nf, err := f.fm.client(loc.Addr).Open(loc.Path, os.O_RDONLY)
		if err != nil {
			f.failed[loc.Host] = true
			continue
		}
		if _, err := nf.Seek(f.pos, io.SeekStart); err != nil {
			nf.Close()
			f.failed[loc.Host] = true
			continue
		}
		prev := f.curLoc.Host
		if f.cur != nil {
			f.cur.Close()
		}
		f.cur = nf
		f.setLocation(loc)
		if f.rearm != nil {
			// The pipeline disabled itself when its fetches started failing;
			// it now follows the new binding.
			f.rearm()
		}
		f.fm.stats.failedOver()
		f.fm.obs.Emit("fm.failover", f.fm.cfg.Machine,
			obs.KV("path", f.name), obs.KV("from", prev), obs.KV("to", loc.Host),
			obs.KV("offset", f.pos), obs.KV("error", cause.Error()))
		return nil
	}
	return fmt.Errorf("core: %s: all replicas failed: %w", f.name, cause)
}

// Read checks for a better replica, then reads from the bound one, failing
// over when it dies. Cache-miss fills arrive here like uncached reads do.
func (f *replicaFile) Read(p []byte) (int, error) {
	f.maybeRemap()
	for {
		n, err := f.cur.Read(p)
		f.pos += int64(n)
		if err == nil || err == io.EOF || !f.fm.cfg.Retry.Enabled() {
			return n, err
		}
		if n > 0 {
			// Deliver the progress; a persistent fault resurfaces on the
			// next call with n == 0 and triggers the failover below.
			return n, nil
		}
		f.failed[f.curLoc.Host] = true
		if ferr := f.failover(err); ferr != nil {
			return 0, ferr
		}
	}
}

func (f *replicaFile) Seek(offset int64, whence int) (int64, error) {
	npos, err := f.cur.Seek(offset, whence)
	if err == nil {
		f.pos = npos
	}
	return npos, err
}

func (f *replicaFile) Close() error { return f.cur.Close() }

// fetch is the prefetch pipeline's ranged read: it goes to whichever replica
// the file is currently bound to, so after a failover the rearmed pipeline
// follows it.
func (f *replicaFile) fetch(off, length int64) ([]byte, error) {
	cur := f.location()
	return fetchRange(f.fm.client(cur.Addr), cur.Path, off, length)
}
