package core

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"griddles/internal/obs"
)

// DefaultCacheBlock is the block granularity of the FM block cache. It
// matches the file service's read-ahead chunk, so one miss fill costs one
// wire round trip.
const DefaultCacheBlock = 64 << 10

// BlockCache is a shared in-memory LRU block cache for remote and
// replicated reads (IO mechanisms 3–5): the paper's cache-file-for-re-read
// idea extended to memory, so a seek-back or re-read hits RAM instead of
// the network. Entries are keyed by a file identity string that embeds the
// GNS mapping generation (see cacheKey* in multiplexer.go), so a remapped
// file never serves stale blocks, and bounded by a byte budget with
// least-recently-used eviction.
//
// A BlockCache is safe for concurrent use and may be shared by several
// Multiplexers (e.g. all FMs of one machine).
type BlockCache struct {
	blockSize int
	budget    int64

	mu      sync.Mutex
	used    int64
	lru     *list.List // of *centry, front = most recently used
	entries map[string]map[int64]*list.Element

	ins atomic.Pointer[cacheIns]
}

type cacheIns struct {
	hits   *obs.Counter
	misses *obs.Counter
	evicts *obs.Counter
	bytes  *obs.Gauge
}

type centry struct {
	file string
	idx  int64
	data []byte
}

// NewBlockCache returns a cache bounded by budget bytes (<= 0 disables
// caching: every Get misses and Put discards).
func NewBlockCache(budget int64) *BlockCache {
	c := &BlockCache{
		blockSize: DefaultCacheBlock,
		budget:    budget,
		lru:       list.New(),
		entries:   make(map[string]map[int64]*list.Element),
	}
	c.SetObserver(nil)
	return c
}

// SetObserver routes the cache's hit/miss/evict metrics to o; nil discards
// them.
func (c *BlockCache) SetObserver(o *obs.Observer) {
	c.ins.Store(&cacheIns{
		hits:   o.Counter("fm.cache.hit.total"),
		misses: o.Counter("fm.cache.miss.total"),
		evicts: o.Counter("fm.cache.evict.total"),
		bytes:  o.Gauge("fm.cache.bytes"),
	})
}

// BlockSize reports the cache's block granularity.
func (c *BlockCache) BlockSize() int { return c.blockSize }

// Used reports the resident byte count.
func (c *BlockCache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Get returns the cached block idx of file. The returned slice is shared:
// callers must treat it as read-only.
func (c *BlockCache) Get(file string, idx int64) ([]byte, bool) {
	ins := c.ins.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[file][idx]
	if !ok {
		ins.misses.Inc()
		return nil, false
	}
	c.lru.MoveToFront(el)
	ins.hits.Inc()
	return el.Value.(*centry).data, true
}

// Put caches data as block idx of file, evicting least-recently-used blocks
// until the budget holds it. Blocks larger than the whole budget are
// discarded.
func (c *BlockCache) Put(file string, idx int64, data []byte) {
	if int64(len(data)) > c.budget {
		return
	}
	ins := c.ins.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[file][idx]; ok {
		ent := el.Value.(*centry)
		c.used += int64(len(data)) - int64(len(ent.data))
		ent.data = append(ent.data[:0], data...)
		c.lru.MoveToFront(el)
	} else {
		ent := &centry{file: file, idx: idx, data: append([]byte(nil), data...)}
		byIdx := c.entries[file]
		if byIdx == nil {
			byIdx = make(map[int64]*list.Element)
			c.entries[file] = byIdx
		}
		byIdx[idx] = c.lru.PushFront(ent)
		c.used += int64(len(data))
	}
	for c.used > c.budget {
		el := c.lru.Back()
		if el == nil {
			break
		}
		c.removeLocked(el)
		ins.evicts.Inc()
	}
	ins.bytes.Set(c.used)
}

func (c *BlockCache) removeLocked(el *list.Element) {
	ent := el.Value.(*centry)
	c.lru.Remove(el)
	c.used -= int64(len(ent.data))
	byIdx := c.entries[ent.file]
	delete(byIdx, ent.idx)
	if len(byIdx) == 0 {
		delete(c.entries, ent.file)
	}
}

// Contains reports whether block idx of file is resident, without touching
// hit/miss accounting or LRU order — the prefetcher's duplicate-fetch check.
func (c *BlockCache) Contains(file string, idx int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[file][idx]
	return ok
}

// Invalidate drops every cached block of file.
func (c *BlockCache) Invalidate(file string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.entries[file] {
		c.removeLocked(el)
	}
	c.ins.Load().bytes.Set(c.used)
}

// cachedReader layers the block cache over an inner ReadSeeker (a remote
// file handle, or the replica failover path). Reads fill whole cache blocks
// from the inner handle and serve the application from memory; a repeat
// read or a seek-back never touches the inner handle again while the block
// stays cached. It tracks the application's cursor itself, so the inner
// handle only seeks when a miss fill needs it.
type cachedReader struct {
	inner io.ReadSeeker
	cache *BlockCache
	key   string // file identity, embedding the mapping generation

	pos      int64 // application cursor
	innerPos int64 // the inner handle's cursor (-1 unknown)
	size     int64 // exact file size once known, else -1

	pf      *prefetcher // async prefetch pipeline, nil = sync fills only
	lastIdx int64       // last block consumed, for prefetch hit accounting
}

func newCachedReader(inner io.ReadSeeker, cache *BlockCache, key string) *cachedReader {
	return &cachedReader{inner: inner, cache: cache, key: key, innerPos: 0, size: -1, lastIdx: -1}
}

func (c *cachedReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if c.size >= 0 && c.pos >= c.size {
		return 0, io.EOF
	}
	bs := int64(c.cache.BlockSize())
	idx := c.pos / bs
	key := c.key
	if c.pf != nil {
		c.pf.noteRead(c.pos)
	}
	blk, ok := c.cache.Get(key, idx)
	if !ok && c.pf != nil && c.pf.await(idx) {
		blk, ok = c.cache.Get(key, idx)
	}
	if c.pf != nil && idx != c.lastIdx {
		c.lastIdx = idx
		c.pf.noteBlock(ok)
	}
	if !ok {
		start := idx * bs
		if c.innerPos != start {
			if _, err := c.inner.Seek(start, io.SeekStart); err != nil {
				c.innerPos = -1
				return 0, err
			}
		}
		buf := make([]byte, bs)
		n, err := io.ReadFull(c.inner, buf)
		c.innerPos = start + int64(n)
		atEnd := err == io.EOF || err == io.ErrUnexpectedEOF
		if n == 0 {
			if atEnd {
				if c.size < 0 || start < c.size {
					c.size = start
				}
				return 0, io.EOF
			}
			if err == nil {
				err = io.ErrNoProgress
			}
			return 0, err
		}
		blk = buf[:n]
		if err == nil || atEnd {
			if atEnd {
				c.size = start + int64(n)
			}
			c.cache.Put(key, idx, blk)
		}
		// A hard error with progress: serve the bytes uncached; the error
		// resurfaces on the next fill.
	}
	off := c.pos - idx*bs
	if off >= int64(len(blk)) {
		// The block is a short tail and pos lies beyond its end.
		return 0, io.EOF
	}
	n := copy(p, blk[off:])
	c.pos += int64(n)
	return n, nil
}

func (c *cachedReader) Seek(offset int64, whence int) (int64, error) {
	var npos int64
	switch whence {
	case io.SeekStart:
		npos = offset
	case io.SeekCurrent:
		npos = c.pos + offset
	case io.SeekEnd:
		if c.size >= 0 {
			npos = c.size + offset
		} else {
			end, err := c.inner.Seek(offset, io.SeekEnd)
			if err != nil {
				return 0, err
			}
			c.innerPos = end
			npos = end
		}
	default:
		return 0, fmt.Errorf("core: bad whence %d", whence)
	}
	if npos < 0 {
		return 0, errors.New("core: negative seek")
	}
	c.pos = npos
	return npos, nil
}
