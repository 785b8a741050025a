package core

import (
	"sync"

	"griddles/internal/obs"
	"griddles/internal/simclock"
)

// DefaultPrefetchWindow is the prefetch depth flowrun enables when
// -prefetch-window is left at its default. Config.PrefetchWindow == 0 (the
// default, and Paper2004's value) keeps prefetch off.
const DefaultPrefetchWindow = 4

// prefetcher keeps a window of ranged fetches in flight ahead of a
// sequential reader, landing whole blocks into the FM block cache so
// cachedReader.Read almost never blocks on the network during a scan. Each
// fetch runs on its own connection (gridftp.Client.Fetch), so the window
// overlaps network time instead of queueing behind the handle's round-trip
// connection.
//
// The pipeline watches the reader's access pattern: a handle that mostly
// jumps around (seek-heavy) would waste the prefetched bytes, so it disables
// itself and the cachedReader falls back to synchronous fill-on-miss. A
// fetch error also disables the pipeline — the reader's own synchronous path
// owns error handling (and, for replicated files, the failover walk); after
// a successful failover the file rearms it.
type prefetcher struct {
	clock  simclock.Clock
	cache  *BlockCache
	key    string
	fetch  func(off, length int64) ([]byte, error)
	window int
	bs     int64

	issued    *obs.Counter
	bytes     *obs.Counter
	hits      *obs.Counter
	misses    *obs.Counter
	waits     *obs.Counter
	fallbacks *obs.Counter

	mu       sync.Mutex
	cond     simclock.Cond
	started  bool
	closed   bool
	disabled bool
	next     int64 // next block index to issue
	target   int64 // exclusive end of the issue window
	inflight map[int64]bool
	size     int64 // file size once discovered from a short fetch, else -1
	lastBlk  int64 // last block the reader touched, -1 initially
	seq      int   // consecutive-block transitions observed
	seeks    int   // jump transitions; seek-heavy handles disable prefetch
}

func newPrefetcher(clock simclock.Clock, o *obs.Observer, cache *BlockCache, key string,
	fetch func(off, length int64) ([]byte, error), window int) *prefetcher {
	p := &prefetcher{
		clock: clock, cache: cache, key: key, fetch: fetch, window: window,
		bs: int64(cache.BlockSize()), inflight: make(map[int64]bool), size: -1, lastBlk: -1,
		issued:    o.Counter("ftp.prefetch.issued.total"),
		bytes:     o.Counter("ftp.prefetch.bytes"),
		hits:      o.Counter("ftp.prefetch.hit.total"),
		misses:    o.Counter("ftp.prefetch.miss.total"),
		waits:     o.Counter("ftp.prefetch.wait.total"),
		fallbacks: o.Counter("ftp.prefetch.fallback.total"),
	}
	p.cond = clock.NewCond(&p.mu)
	return p
}

// noteRead observes the application cursor before a read, advances the
// issue window, and maintains the sequential/seek-heavy classification.
func (p *prefetcher) noteRead(pos int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	blk := pos / p.bs
	if p.lastBlk >= 0 && blk != p.lastBlk {
		if blk == p.lastBlk+1 {
			p.seq++
		} else {
			p.seeks++
		}
	}
	p.lastBlk = blk
	if !p.disabled && p.seeks >= 4 && p.seeks*2 > p.seq {
		// Seek-heavy access: prefetched blocks would mostly be wasted
		// traffic. Fall back to synchronous fill-on-miss.
		p.disabled = true
		p.fallbacks.Inc()
		return
	}
	if p.disabled || p.closed {
		return
	}
	if !p.started {
		p.started = true
		for i := 0; i < p.window; i++ {
			p.clock.Go("fm-prefetch", p.worker)
		}
	}
	if blk+1 > p.next {
		p.next = blk + 1
	}
	if end := blk + 1 + int64(p.window); end > p.target {
		p.target = end
		p.cond.Broadcast()
	}
}

func (p *prefetcher) issuableLocked() bool {
	return !p.disabled && p.next < p.target && (p.size < 0 || p.next*p.bs < p.size)
}

func (p *prefetcher) worker() {
	p.mu.Lock()
	for {
		for !p.closed && !p.issuableLocked() {
			p.cond.Wait()
		}
		if p.closed {
			break
		}
		idx := p.next
		p.next++
		p.inflight[idx] = true
		p.mu.Unlock()
		p.fill(idx)
		p.mu.Lock()
		delete(p.inflight, idx)
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// fill fetches block idx into the cache over a dedicated ranged fetch.
func (p *prefetcher) fill(idx int64) {
	if p.cache.Contains(p.key, idx) {
		return
	}
	p.issued.Inc()
	data, err := p.fetch(idx*p.bs, p.bs)
	if err != nil {
		p.mu.Lock()
		if !p.disabled {
			p.disabled = true
			p.fallbacks.Inc()
		}
		p.mu.Unlock()
		return
	}
	if len(data) > 0 {
		p.cache.Put(p.key, idx, data)
		p.bytes.Add(int64(len(data)))
	}
	if int64(len(data)) < p.bs {
		// A short block marks end of file; stop issuing past it.
		end := idx*p.bs + int64(len(data))
		p.mu.Lock()
		if p.size < 0 || end < p.size {
			p.size = end
		}
		p.mu.Unlock()
	}
}

// await blocks while block idx is being prefetched, so a reader that outruns
// the pipeline waits for the in-flight fetch instead of issuing a duplicate
// synchronous fill. It reports whether it waited.
func (p *prefetcher) await(idx int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.inflight[idx] {
		return false
	}
	p.waits.Inc()
	for p.inflight[idx] && !p.closed {
		p.cond.Wait()
	}
	return true
}

// noteBlock records whether a block consumption was served from cache (a
// prefetch hit) or needed a synchronous fill.
func (p *prefetcher) noteBlock(hit bool) {
	if hit {
		p.hits.Inc()
	} else {
		p.misses.Inc()
	}
}

// rearm re-enables a pipeline that disabled itself, resetting the access
// classification — called after replica failover re-targets fetches at a
// healthy source.
func (p *prefetcher) rearm() {
	p.mu.Lock()
	p.disabled = false
	p.seeks, p.seq = 0, 0
	p.cond.Broadcast()
	p.mu.Unlock()
}

// close stops the workers; in-flight fetches finish and land harmlessly.
func (p *prefetcher) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}
