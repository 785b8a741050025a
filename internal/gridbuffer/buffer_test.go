package gridbuffer

import (
	"bytes"
	"testing"
	"time"

	"griddles/internal/simclock"
	"griddles/internal/vfs"
)

func TestBufferPutGet(t *testing.T) {
	b := NewBuffer(simclock.Real{}, "k", Options{})
	id := b.Attach()
	if err := b.Put(0, []byte("block zero")); err != nil {
		t.Fatal(err)
	}
	data, eof, err := b.Get(id, 0)
	if err != nil || eof {
		t.Fatalf("get: eof=%v err=%v", eof, err)
	}
	if string(data) != "block zero" {
		t.Errorf("data = %q", data)
	}
}

func TestBufferGetBlocksUntilPut(t *testing.T) {
	v := simclock.NewVirtualDefault()
	b := NewBuffer(v, "k", Options{})
	v.Run(func() {
		id := b.Attach()
		v.Go("writer", func() {
			v.Sleep(10 * time.Second)
			b.Put(0, []byte("late"))
		})
		data, _, err := b.Get(id, 0)
		if err != nil || string(data) != "late" {
			t.Fatalf("get: %q %v", data, err)
		}
		if v.Elapsed() != 10*time.Second {
			t.Errorf("get returned at %v, want 10s (blocking-read semantics)", v.Elapsed())
		}
	})
}

func TestBufferDeleteOnRead(t *testing.T) {
	b := NewBuffer(simclock.Real{}, "k", Options{})
	id := b.Attach()
	b.Put(0, []byte("x"))
	b.Put(1, []byte("y"))
	if b.Resident() != 2 {
		t.Fatalf("resident=%d", b.Resident())
	}
	b.Get(id, 0)
	if b.Resident() != 1 {
		t.Errorf("after read resident=%d, want 1 (delete-on-read)", b.Resident())
	}
}

func TestBufferCapacityBackpressure(t *testing.T) {
	v := simclock.NewVirtualDefault()
	b := NewBuffer(v, "k", Options{Capacity: 4})
	v.Run(func() {
		id := b.Attach()
		var writerDone time.Duration
		wg := simclock.NewWaitGroup(v)
		wg.Add(1)
		v.Go("writer", func() {
			defer wg.Done()
			for i := int64(0); i < 8; i++ {
				if err := b.Put(i, []byte{byte(i)}); err != nil {
					t.Errorf("put %d: %v", i, err)
				}
			}
			writerDone = v.Elapsed()
		})
		// Reader consumes one block per minute.
		for i := int64(0); i < 8; i++ {
			v.Sleep(time.Minute)
			if _, _, err := b.Get(id, i); err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
		}
		wg.Wait()
		// The writer's 8 puts into a 4-block table are paced by the reader:
		// it can finish only after 4 blocks have been consumed.
		if writerDone < 4*time.Minute {
			t.Errorf("writer finished at %v, want >= 4m (reader-paced backpressure)", writerDone)
		}
	})
}

func TestBufferCacheReRead(t *testing.T) {
	fs := vfs.NewMemFS()
	b := NewBuffer(simclock.Real{}, "k", Options{BlockSize: 4, Cache: true, CacheFS: fs})
	id := b.Attach()
	b.Put(0, []byte("aaaa"))
	b.Put(1, []byte("bbbb"))
	b.Get(id, 0) // consumed and spilled
	b.Get(id, 1)
	if b.Resident() != 0 {
		t.Fatalf("resident=%d", b.Resident())
	}
	data, eof, err := b.Get(id, 0) // re-read comes from the cache file
	if err != nil || eof || string(data) != "aaaa" {
		t.Errorf("cache re-read = %q eof=%v err=%v", data, eof, err)
	}
}

func TestBufferNoCacheReReadFails(t *testing.T) {
	b := NewBuffer(simclock.Real{}, "k", Options{})
	id := b.Attach()
	b.Put(0, []byte("gone"))
	b.Get(id, 0)
	b.CloseWrite(4)
	if _, _, err := b.Get(id, 0); err == nil {
		t.Error("re-read without cache succeeded")
	}
}

func TestBufferBroadcastTwoReaders(t *testing.T) {
	b := NewBuffer(simclock.Real{}, "k", Options{Readers: 2})
	r1, r2 := b.Attach(), b.Attach()
	b.Put(0, []byte("shared"))
	if d, _, _ := b.Get(r1, 0); string(d) != "shared" {
		t.Error("r1 read failed")
	}
	if b.Resident() != 1 {
		t.Errorf("block dropped before second reader consumed it")
	}
	if d, _, _ := b.Get(r2, 0); string(d) != "shared" {
		t.Error("r2 read failed")
	}
	if b.Resident() != 0 {
		t.Errorf("block retained after all readers consumed it")
	}
}

func TestBufferDoubleReadDoesNotDoubleCount(t *testing.T) {
	fs := vfs.NewMemFS()
	b := NewBuffer(simclock.Real{}, "k", Options{Readers: 2, Cache: true, CacheFS: fs})
	r1, _ := b.Attach(), b.Attach()
	b.Put(0, []byte("x"))
	b.Get(r1, 0)
	b.Get(r1, 0) // same reader again
	if b.Resident() != 1 {
		t.Error("same reader's double read dropped the block")
	}
}

func TestBufferDetachFreesBlocks(t *testing.T) {
	v := simclock.NewVirtualDefault()
	b := NewBuffer(v, "k", Options{Capacity: 2, Readers: 2})
	v.Run(func() {
		r1 := b.Attach()
		r2 := b.Attach()
		b.Put(0, []byte("a"))
		b.Put(1, []byte("b"))
		b.Get(r1, 0)
		b.Get(r1, 1)
		if b.Resident() != 2 {
			t.Fatalf("resident=%d", b.Resident())
		}
		b.Detach(r2) // the straggler leaves; its debt is forgiven
		if b.Resident() != 0 {
			t.Errorf("resident=%d after detach, want 0", b.Resident())
		}
	})
}

func TestBufferEOFSemantics(t *testing.T) {
	b := NewBuffer(simclock.Real{}, "k", Options{BlockSize: 4})
	id := b.Attach()
	b.Put(0, []byte("full"))
	b.Put(1, []byte("ta")) // short tail
	b.CloseWrite(6)
	if eof, total := b.EOF(); !eof || total != 6 {
		t.Errorf("EOF() = %v,%d", eof, total)
	}
	d, _, _ := b.Get(id, 0)
	if string(d) != "full" {
		t.Errorf("block0 = %q", d)
	}
	d, _, _ = b.Get(id, 1)
	if string(d) != "ta" {
		t.Errorf("tail = %q", d)
	}
	_, eof, err := b.Get(id, 2)
	if err != nil || !eof {
		t.Errorf("past-end get: eof=%v err=%v", eof, err)
	}
	if err := b.Put(2, []byte("zz")); err == nil {
		t.Error("put after close-write succeeded")
	}
	if err := b.CloseWrite(6); err != nil {
		t.Errorf("replayed close-write with same total: %v", err)
	}
	if err := b.CloseWrite(7); err == nil {
		t.Error("close-write with conflicting total succeeded")
	}
}

func TestBufferGetUnblocksOnCloseWrite(t *testing.T) {
	v := simclock.NewVirtualDefault()
	b := NewBuffer(v, "k", Options{BlockSize: 4})
	v.Run(func() {
		id := b.Attach()
		v.Go("closer", func() {
			v.Sleep(time.Second)
			b.CloseWrite(0)
		})
		_, eof, err := b.Get(id, 0)
		if err != nil || !eof {
			t.Errorf("eof=%v err=%v", eof, err)
		}
	})
}

func TestBufferDropUnblocks(t *testing.T) {
	v := simclock.NewVirtualDefault()
	b := NewBuffer(v, "k", Options{Capacity: 1})
	v.Run(func() {
		id := b.Attach()
		b.Put(0, []byte("x"))
		errs := make(chan error, 2)
		v.Go("blocked-writer", func() {
			errs <- b.Put(1, []byte("y")) // stalls: table full
		})
		v.Go("blocked-reader", func() {
			_, _, err := b.Get(id, 5) // stalls: not written
			errs <- err
		})
		v.Sleep(time.Second)
		b.Drop()
		v.Sleep(time.Second)
		for i := 0; i < 2; i++ {
			select {
			case err := <-errs:
				if err != ErrStopped {
					t.Errorf("blocked op err = %v, want ErrStopped", err)
				}
			default:
				t.Fatal("blocked operation did not return after Drop")
			}
		}
	})
}

func TestBufferNegativeIndex(t *testing.T) {
	b := NewBuffer(simclock.Real{}, "k", Options{})
	if err := b.Put(-1, nil); err == nil {
		t.Error("negative put succeeded")
	}
	if _, _, err := b.Get(0, -2); err == nil {
		t.Error("negative get succeeded")
	}
}

// getOrCreate is Registry.GetOrCreate for options in range.
func getOrCreate(t *testing.T, r *Registry, key string, opts Options) *Buffer {
	t.Helper()
	b, err := r.GetOrCreate(key, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(simclock.Real{}, vfs.NewMemFS())
	b1 := getOrCreate(t, r, "a", Options{BlockSize: 8})
	b2 := getOrCreate(t, r, "a", Options{BlockSize: 16}) // first options win
	if b1 != b2 {
		t.Error("GetOrCreate returned distinct buffers for one key")
	}
	if b1.BlockSize() != 8 {
		t.Errorf("block size %d, want first-attach 8", b1.BlockSize())
	}
	if _, ok := r.Lookup("a"); !ok {
		t.Error("lookup failed")
	}
	if r.Len() != 1 {
		t.Errorf("len=%d", r.Len())
	}
	r.Drop("a")
	if _, ok := r.Lookup("a"); ok {
		t.Error("buffer survives drop")
	}
	if err := b1.Put(0, nil); err != ErrStopped {
		t.Errorf("put on dropped buffer err = %v", err)
	}
}

func TestRegistryCacheFSInherited(t *testing.T) {
	fs := vfs.NewMemFS()
	r := NewRegistry(simclock.Real{}, fs)
	b := getOrCreate(t, r, "k", Options{BlockSize: 2, Cache: true})
	id := b.Attach()
	b.Put(0, []byte("ab"))
	b.Get(id, 0)
	if d, _, err := b.Get(id, 0); err != nil || !bytes.Equal(d, []byte("ab")) {
		t.Errorf("re-read via registry cacheFS: %q %v", d, err)
	}
	names, _ := fs.List(".gridbuffer-cache/")
	if len(names) != 1 {
		t.Errorf("cache file not created on registry FS: %v", names)
	}
}
