package core

import (
	"bytes"
	"io"
	"testing"

	"griddles/internal/gns"
	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
)

func TestBlockCacheHitMissLRU(t *testing.T) {
	c := NewBlockCache(256)
	c.blockSize = 64 // small blocks for the test

	if _, ok := c.Get("f", 0); ok {
		t.Fatal("empty cache reported a hit")
	}
	blk := bytes.Repeat([]byte{1}, 64)
	c.Put("f", 0, blk)
	got, ok := c.Get("f", 0)
	if !ok || !bytes.Equal(got, blk) {
		t.Fatalf("Get after Put: ok=%v data=%v", ok, got[:4])
	}
	if c.Used() != 64 {
		t.Fatalf("used = %d, want 64", c.Used())
	}

	// Fill to the budget, then touch block 0 so it is the most recently
	// used; the next insert must evict block 1, not block 0.
	for i := int64(1); i < 4; i++ {
		c.Put("f", i, blk)
	}
	c.Get("f", 0)
	c.Put("f", 4, blk)
	if _, ok := c.Get("f", 1); ok {
		t.Fatal("LRU block 1 survived eviction")
	}
	if _, ok := c.Get("f", 0); !ok {
		t.Fatal("recently used block 0 was evicted")
	}
	if c.Used() > 256 {
		t.Fatalf("used %d exceeds budget", c.Used())
	}
}

func TestBlockCacheInvalidate(t *testing.T) {
	c := NewBlockCache(1 << 20)
	c.Put("a", 0, []byte("aaa"))
	c.Put("a", 1, []byte("aaa"))
	c.Put("b", 0, []byte("bbb"))
	c.Invalidate("a")
	if _, ok := c.Get("a", 0); ok {
		t.Fatal("invalidated block still cached")
	}
	if _, ok := c.Get("b", 0); !ok {
		t.Fatal("Invalidate dropped an unrelated file")
	}
	if c.Used() != 3 {
		t.Fatalf("used = %d, want 3", c.Used())
	}
}

func TestBlockCacheOverBudgetPut(t *testing.T) {
	c := NewBlockCache(16)
	c.Put("f", 0, bytes.Repeat([]byte{9}, 32))
	if _, ok := c.Get("f", 0); ok {
		t.Fatal("block larger than the whole budget was cached")
	}
	if c.Used() != 0 {
		t.Fatalf("used = %d, want 0", c.Used())
	}
}

func TestBlockCacheMetrics(t *testing.T) {
	o := obs.New(simclock.NewVirtualDefault())
	c := NewBlockCache(8)
	c.SetObserver(o)
	c.Put("f", 0, []byte("12345678"))
	c.Get("f", 0)                     // hit
	c.Get("f", 1)                     // miss
	c.Put("f", 1, []byte("12345678")) // evicts block 0
	snap := o.Snapshot()
	if snap.Counters["fm.cache.hit.total"] != 1 {
		t.Fatalf("hit.total = %d, want 1", snap.Counters["fm.cache.hit.total"])
	}
	if snap.Counters["fm.cache.miss.total"] != 1 {
		t.Fatalf("miss.total = %d, want 1", snap.Counters["fm.cache.miss.total"])
	}
	if snap.Counters["fm.cache.evict.total"] != 1 {
		t.Fatalf("evict.total = %d, want 1", snap.Counters["fm.cache.evict.total"])
	}
	if snap.Gauges["fm.cache.bytes"] != 8 {
		t.Fatalf("cache.bytes = %d, want 8", snap.Gauges["fm.cache.bytes"])
	}
}

// seekCounter is an in-memory ReadSeeker that counts inner reads, standing in
// for a network file handle.
type seekCounter struct {
	r     *bytes.Reader
	reads int
}

func (s *seekCounter) Read(p []byte) (int, error) {
	s.reads++
	return s.r.Read(p)
}

func (s *seekCounter) Seek(off int64, whence int) (int64, error) {
	return s.r.Seek(off, whence)
}

func TestCachedReaderReReadAvoidsInner(t *testing.T) {
	data := bytes.Repeat([]byte("abcdefgh"), 512) // 4 KiB
	inner := &seekCounter{r: bytes.NewReader(data)}
	cache := NewBlockCache(1 << 20)
	cache.blockSize = 1024
	cr := newCachedReader(inner, cache, "k")

	got, err := io.ReadAll(cr)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("first pass: err=%v equal=%v", err, bytes.Equal(got, data))
	}
	firstReads := inner.reads
	if firstReads == 0 {
		t.Fatal("first pass never touched the inner handle")
	}

	if _, err := cr.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err = io.ReadAll(cr)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("second pass: err=%v equal=%v", err, bytes.Equal(got, data))
	}
	if inner.reads != firstReads {
		t.Fatalf("re-read touched the inner handle: %d -> %d reads", firstReads, inner.reads)
	}
}

func TestCachedReaderSeekSemantics(t *testing.T) {
	data := []byte("0123456789")
	cache := NewBlockCache(1 << 20)
	cache.blockSize = 4
	cr := newCachedReader(&seekCounter{r: bytes.NewReader(data)}, cache, "k")

	// SeekEnd before size is known delegates to the inner handle.
	end, err := cr.Seek(-2, io.SeekEnd)
	if err != nil || end != 8 {
		t.Fatalf("SeekEnd = %d, %v; want 8", end, err)
	}
	buf := make([]byte, 8)
	n, err := io.ReadFull(cr, buf[:2])
	if err != nil || string(buf[:n]) != "89" {
		t.Fatalf("tail read = %q, %v", buf[:n], err)
	}
	if _, err := cr.Read(buf); err != io.EOF {
		t.Fatalf("read past end: %v, want EOF", err)
	}

	// Seek back and re-read across a block boundary.
	if _, err := cr.Seek(3, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	n, err = io.ReadFull(cr, buf[:4])
	if err != nil || string(buf[:n]) != "3456" {
		t.Fatalf("mid read = %q, %v", buf[:n], err)
	}
	pos, err := cr.Seek(-2, io.SeekCurrent)
	if err != nil || pos != 5 {
		t.Fatalf("SeekCurrent = %d, %v; want 5", pos, err)
	}
	if _, err := cr.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("negative seek succeeded")
	}
}

// TestRemoteReReadServedFromCache is the cache acceptance check: with the
// FM block cache on, a second pass over a mode-3 remote file is served
// entirely from memory — the file-service round-trip counter stays flat.
func TestRemoteReReadServedFromCache(t *testing.T) {
	for _, cached := range []bool{true, false} {
		name := "cache-on"
		if !cached {
			name = "cache-off"
		}
		t.Run(name, func(t *testing.T) {
			e := newEnv()
			content := confContent()
			vfs.WriteFile(e.grid.Machine("brecca").RawFS(), "/data/rr", content)
			e.store.Set("jagan", "rr", gns.Mapping{
				Mode: gns.ModeRemote, RemoteHost: "brecca" + ftpPort, RemotePath: "/data/rr",
			})
			e.v.Run(func() {
				e.startServices(t)
				observer := obs.New(e.v)
				fm := e.fm(t, "jagan", func(c *Config) {
					c.Obs = observer
					if cached {
						c.BlockCacheBytes = 8 << 20
					}
				})
				f, err := fm.Open("rr")
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				first, _ := io.ReadAll(f)
				if !bytes.Equal(first, content) {
					t.Fatal("first pass corrupted")
				}
				trips := observer.Snapshot().Counters["ftp.readahead.miss.total"]
				if trips == 0 {
					t.Fatal("first pass recorded no wire round trips")
				}
				if _, err := f.Seek(0, io.SeekStart); err != nil {
					t.Fatal(err)
				}
				second, _ := io.ReadAll(f)
				if !bytes.Equal(second, content) {
					t.Fatal("second pass corrupted")
				}
				after := observer.Snapshot().Counters["ftp.readahead.miss.total"]
				if cached {
					if after != trips {
						t.Errorf("cached re-read cost %d extra round trips", after-trips)
					}
					if observer.Snapshot().Counters["fm.cache.hit.total"] == 0 {
						t.Error("no cache hits recorded")
					}
				} else if after == trips {
					t.Error("uncached re-read touched the wire zero times — counter broken?")
				}
			})
		})
	}
}
