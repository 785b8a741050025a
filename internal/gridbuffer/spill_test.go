package gridbuffer

import (
	"bytes"
	"io"
	"io/fs"
	"math/rand"
	"strings"
	"syscall"
	"testing"
	"time"

	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/vfs"
)

// fullFS is a vfs.FS whose files take room bytes of WriteAt in all and then
// fail with ENOSPC: a cache disk that fills up mid-stream.
type fullFS struct {
	vfs.FS
	room int
}

type fullFile struct {
	vfs.File
	fs *fullFS
}

func (f *fullFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return fullFile{file, f}, nil
}

func (f fullFile) WriteAt(p []byte, off int64) (int, error) {
	if len(p) > f.fs.room {
		return 0, syscall.ENOSPC
	}
	f.fs.room -= len(p)
	return f.File.WriteAt(p, off)
}

const (
	spillBlock   = 4096
	spillBlocks  = 8
	spillCloseAt = 10 * time.Second // when the writer closes, in virtual time
)

// runDropStream writes spillBlocks blocks, holds the stream open until
// spillCloseAt and closes it, while read runs as the one reader. The cache
// file, when opts asks for one, lives on cacheFS. It reports the key's
// gb.spill.total once the reader is done.
func runDropStream(t *testing.T, cacheFS vfs.FS, opts Options, read func(v *simclock.Virtual, r *Reader, want []byte)) (spills int64) {
	t.Helper()
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("w", "buf", simnet.LinkSpec{Latency: time.Millisecond})
	n.SetLinkBoth("r", "buf", simnet.LinkSpec{Latency: time.Millisecond})
	reg := NewRegistry(v, cacheFS)
	o := obs.New(v)
	reg.SetObserver(o)
	addr := nextBufAddr()
	want := make([]byte, spillBlocks*spillBlock)
	rand.New(rand.NewSource(7)).Read(want)
	v.Run(func() {
		l, err := n.Host("buf").Listen(addr)
		if err != nil {
			t.Error(err)
			return
		}
		v.Go("gb-serve", func() { NewServer(reg, v).Serve(l) })
		done := simclock.NewWaitGroup(v)
		done.Add(1)
		v.Go("writer", func() {
			defer done.Done()
			w, err := NewWriter(n.Host("w"), addr, v, "k", opts, WriterOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := w.Write(want); err != nil {
				t.Errorf("write: %v", err)
			}
			v.Sleep(spillCloseAt - v.Elapsed())
			if err := w.Close(); err != nil {
				t.Errorf("writer close: %v", err)
			}
		})
		r, err := NewReader(n.Host("r"), addr, v, "k", opts, ReaderOptions{Depth: 4})
		if err != nil {
			t.Error(err)
			return
		}
		read(v, r, want)
		spills = o.Counter(obs.Key("gb.spill.total", "key", "k")).Value()
		r.Close()
		done.Wait()
	})
	return spills
}

// readBlocks reads blocks [first, first+count) from r's position and
// reports whether they match the stream.
func readBlocks(t *testing.T, r *Reader, want []byte, first, count int) bool {
	t.Helper()
	got := make([]byte, count*spillBlock)
	if _, err := io.ReadFull(r, got); err != nil || !bytes.Equal(got, want[first*spillBlock:][:len(got)]) {
		t.Errorf("blocks %d..%d: %v", first, first+count-1, err)
		return false
	}
	return true
}

func seekStart(t *testing.T, r *Reader) bool {
	t.Helper()
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		t.Errorf("seek: %v", err)
		return false
	}
	return true
}

// wantGoneBeforeClose reads on from a position whose block was dropped
// without a cache copy and wants the failure at once, not at the writer's
// close.
func wantGoneBeforeClose(t *testing.T, v *simclock.Virtual, r *Reader) {
	t.Helper()
	_, err := r.Read(make([]byte, spillBlock))
	if err == nil || !strings.Contains(err.Error(), "no longer available") {
		t.Errorf("read of a dropped block: err = %v, want \"no longer available\"", err)
		return
	}
	at := v.Elapsed()
	t.Logf("read of a dropped block failed at %v", at)
	if at >= spillCloseAt {
		t.Errorf("read of a dropped block failed at %v, after the writer's close at %v", at, spillCloseAt)
	}
}

// TestSeekBackWithoutCacheFailsAtOnce: with the cache off, a consumed block
// is gone for good, so a reader that seeks back to it learns so at once
// instead of waiting for the writer's close.
func TestSeekBackWithoutCacheFailsAtOnce(t *testing.T) {
	runDropStream(t, vfs.NewMemFS(), Options{BlockSize: spillBlock}, func(v *simclock.Virtual, r *Reader, want []byte) {
		if readBlocks(t, r, want, 0, 2) && seekStart(t, r) {
			wantGoneBeforeClose(t, v, r)
		}
	})
}

// TestSpillOnFullDisk: the cache disk fills after two blocks. The stream
// itself does not notice: the writer closes cleanly and a reader streaming
// straight through gets every byte. Only successful spills count, a seek
// back to a spilled block reads it from the cache file, and a seek back to
// a block whose spill failed fails at once.
func TestSpillOnFullDisk(t *testing.T) {
	opts := Options{BlockSize: spillBlock, Cache: true}
	t.Run("stream", func(t *testing.T) {
		spills := runDropStream(t, &fullFS{FS: vfs.NewMemFS(), room: 2 * spillBlock}, opts, func(v *simclock.Virtual, r *Reader, want []byte) {
			got, err := io.ReadAll(r)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("streamed %d of %d bytes: %v", len(got), len(want), err)
			}
		})
		if spills != 2 {
			t.Errorf("gb.spill.total = %d, want 2 (the disk took two blocks)", spills)
		}
	})
	t.Run("seek-back", func(t *testing.T) {
		spills := runDropStream(t, &fullFS{FS: vfs.NewMemFS(), room: 2 * spillBlock}, opts, func(v *simclock.Virtual, r *Reader, want []byte) {
			if readBlocks(t, r, want, 0, 4) && seekStart(t, r) &&
				readBlocks(t, r, want, 0, 2) { // spilled: from the cache file
				wantGoneBeforeClose(t, v, r) // block 2's spill hit ENOSPC
			}
		})
		if spills != 2 {
			t.Errorf("gb.spill.total = %d, want 2 (the disk took two blocks)", spills)
		}
	})
}
