package vfs

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"testing/quick"
)

// both runs a subtest against a MemFS and an OSFS so their behaviour stays
// aligned.
func both(t *testing.T, fn func(t *testing.T, fsys FS)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { fn(t, NewMemFS()) })
	t.Run("os", func(t *testing.T) { fn(t, NewOSFS(t.TempDir())) })
}

func TestWriteReadRoundTrip(t *testing.T) {
	both(t, func(t *testing.T, fsys FS) {
		want := []byte("the quick brown fox")
		if err := WriteFile(fsys, "job.dat", want); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadFile(fsys, "job.dat")
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("got %q want %q", got, want)
		}
	})
}

func TestOpenMissingFails(t *testing.T) {
	both(t, func(t *testing.T, fsys FS) {
		if _, err := fsys.OpenFile("nope", ReadOnlyFlag, 0); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("err = %v, want ErrNotExist", err)
		}
		if _, err := fsys.Stat("nope"); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("stat err = %v, want ErrNotExist", err)
		}
	})
}

func TestCreateExcl(t *testing.T) {
	both(t, func(t *testing.T, fsys FS) {
		flag := os.O_WRONLY | os.O_CREATE | os.O_EXCL
		f, err := fsys.OpenFile("x", flag, 0o644)
		if err != nil {
			t.Fatalf("first excl create: %v", err)
		}
		f.Close()
		if _, err := fsys.OpenFile("x", flag, 0o644); !errors.Is(err, fs.ErrExist) {
			t.Errorf("second excl create err = %v, want ErrExist", err)
		}
	})
}

func TestTruncateOnOpen(t *testing.T) {
	both(t, func(t *testing.T, fsys FS) {
		WriteFile(fsys, "f", []byte("old content"))
		WriteFile(fsys, "f", []byte("new"))
		got, _ := ReadFile(fsys, "f")
		if string(got) != "new" {
			t.Errorf("got %q want new", got)
		}
	})
}

func TestAppend(t *testing.T) {
	both(t, func(t *testing.T, fsys FS) {
		WriteFile(fsys, "log", []byte("one\n"))
		f, err := fsys.OpenFile("log", os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatalf("open append: %v", err)
		}
		f.Write([]byte("two\n"))
		f.Close()
		got, _ := ReadFile(fsys, "log")
		if string(got) != "one\ntwo\n" {
			t.Errorf("got %q", got)
		}
	})
}

func TestSeekAndReRead(t *testing.T) {
	both(t, func(t *testing.T, fsys FS) {
		WriteFile(fsys, "f", []byte("0123456789"))
		f, err := fsys.OpenFile("f", ReadOnlyFlag, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 4)
		io.ReadFull(f, buf)
		if pos, _ := f.Seek(2, io.SeekStart); pos != 2 {
			t.Errorf("seek pos %d want 2", pos)
		}
		io.ReadFull(f, buf)
		if string(buf) != "2345" {
			t.Errorf("after seek read %q want 2345", buf)
		}
		if pos, _ := f.Seek(-3, io.SeekEnd); pos != 7 {
			t.Errorf("seek-end pos %d want 7", pos)
		}
		rest, _ := io.ReadAll(f)
		if string(rest) != "789" {
			t.Errorf("tail %q want 789", rest)
		}
	})
}

func TestSeekNegativeFails(t *testing.T) {
	both(t, func(t *testing.T, fsys FS) {
		WriteFile(fsys, "f", []byte("abc"))
		f, _ := fsys.OpenFile("f", ReadOnlyFlag, 0)
		defer f.Close()
		if _, err := f.Seek(-1, io.SeekStart); err == nil {
			t.Error("negative seek succeeded")
		}
	})
}

func TestReadAtWriteAt(t *testing.T) {
	both(t, func(t *testing.T, fsys FS) {
		f, err := fsys.OpenFile("blocks", ReadWriteFlag, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte("BBBB"), 4); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		if _, err := f.WriteAt([]byte("AAAA"), 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		buf := make([]byte, 8)
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatalf("ReadAt: %v", err)
		}
		if string(buf) != "AAAABBBB" {
			t.Errorf("got %q", buf)
		}
		// Sparse write beyond EOF zero-fills.
		f.WriteAt([]byte("Z"), 10)
		fi, _ := f.Stat()
		if fi.Size() != 11 {
			t.Errorf("size %d want 11", fi.Size())
		}
		one := make([]byte, 1)
		f.ReadAt(one, 9)
		if one[0] != 0 {
			t.Errorf("gap byte %q want NUL", one)
		}
	})
}

func TestTruncate(t *testing.T) {
	both(t, func(t *testing.T, fsys FS) {
		f, _ := fsys.OpenFile("f", ReadWriteFlag, 0o644)
		defer f.Close()
		f.Write([]byte("0123456789"))
		if err := f.Truncate(4); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		fi, _ := f.Stat()
		if fi.Size() != 4 {
			t.Errorf("size %d want 4", fi.Size())
		}
		if err := f.Truncate(8); err != nil {
			t.Fatalf("grow: %v", err)
		}
		fi, _ = f.Stat()
		if fi.Size() != 8 {
			t.Errorf("size %d want 8", fi.Size())
		}
	})
}

func TestRemove(t *testing.T) {
	both(t, func(t *testing.T, fsys FS) {
		WriteFile(fsys, "f", []byte("x"))
		if err := fsys.Remove("f"); err != nil {
			t.Fatalf("remove: %v", err)
		}
		if Exists(fsys, "f") {
			t.Error("file exists after remove")
		}
		if err := fsys.Remove("f"); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("double remove err = %v", err)
		}
	})
}

func TestList(t *testing.T) {
	m := NewMemFS()
	WriteFile(m, "job/a", nil)
	WriteFile(m, "job/b", nil)
	WriteFile(m, "other", nil)
	names, err := m.List("job/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "job/a" || names[1] != "job/b" {
		t.Errorf("List = %v", names)
	}
}

func TestReadOnlyHandleRejectsWrites(t *testing.T) {
	both(t, func(t *testing.T, fsys FS) {
		WriteFile(fsys, "f", []byte("x"))
		f, _ := fsys.OpenFile("f", ReadOnlyFlag, 0)
		defer f.Close()
		if _, err := f.Write([]byte("y")); err == nil {
			t.Error("write on read-only handle succeeded")
		}
	})
}

func TestWriteOnlyHandleRejectsReads(t *testing.T) {
	m := NewMemFS()
	f, _ := m.OpenFile("f", CreateTruncFlag, 0o644)
	defer f.Close()
	if _, err := f.Read(make([]byte, 1)); err == nil {
		t.Error("read on write-only handle succeeded")
	}
}

func TestClosedHandleFails(t *testing.T) {
	m := NewMemFS()
	f, _ := m.OpenFile("f", ReadWriteFlag, 0o644)
	f.Close()
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, fs.ErrClosed) {
		t.Errorf("read err = %v", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, fs.ErrClosed) {
		t.Errorf("write err = %v", err)
	}
	if err := f.Close(); !errors.Is(err, fs.ErrClosed) {
		t.Errorf("double close err = %v", err)
	}
}

func TestTwoHandlesShareContent(t *testing.T) {
	m := NewMemFS()
	w, _ := m.OpenFile("shared", CreateTruncFlag, 0o644)
	r, err := m.OpenFile("shared", ReadOnlyFlag, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("streamed"))
	got := make([]byte, 8)
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatalf("reader: %v", err)
	}
	if string(got) != "streamed" {
		t.Errorf("got %q", got)
	}
}

func TestOSFSEscapeBlocked(t *testing.T) {
	o := NewOSFS(t.TempDir())
	// Path traversal is cleaned into the root rather than escaping it.
	if err := WriteFile(o, "../../etc/passwd-probe", []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := os.Stat(o.Root + "/etc/passwd-probe"); err != nil {
		t.Errorf("file not contained in root: %v", err)
	}
}

// TestMemFileGrowthIsLinear bounds what a MemFS file allocates while it
// grows: sequential Writes (the testbed's bufio-flushed model output) and
// block-indexed WriteAts (a Grid Buffer cache spill) must each cost the
// final size plus at most one page: the first page doubles up to a quarter
// page before it is allocated whole, every other page is allocated once,
// whole, and no byte past the first quarter page is ever copied.
func TestMemFileGrowthIsLinear(t *testing.T) {
	const blocks, blockSize = 512, 4096
	block := make([]byte, blockSize)
	for name, write := range map[string]func(File, int) error{
		"Write": func(f File, _ int) error { _, err := f.Write(block); return err },
		"WriteAt": func(f File, i int) error {
			_, err := f.WriteAt(block, int64(i)*blockSize)
			return err
		},
	} {
		m := NewMemFS()
		f, err := m.OpenFile(name, ReadWriteFlag, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < blocks; i++ {
			if err := write(f, i); err != nil {
				t.Fatalf("%s block %d: %v", name, i, err)
			}
		}
		runtime.ReadMemStats(&after)
		f.Close()
		size := uint64(blocks * blockSize)
		if got := after.TotalAlloc - before.TotalAlloc; got > size+pageSize {
			t.Errorf("%s: growing a file to %d bytes allocated %d bytes, want <= %d", name, size, got, size+pageSize)
		}
	}
}

// memModel is what a file should hold: its bytes, with the os semantics for
// writes past the end (a hole of zeros) and truncation.
type memModel []byte

func (m *memModel) writeAt(b []byte, off int64) {
	if end := off + int64(len(b)); end > int64(len(*m)) {
		m.truncate(end)
	}
	copy((*m)[off:], b)
}

func (m *memModel) truncate(size int64) {
	if size <= int64(len(*m)) {
		*m = (*m)[:size]
		return
	}
	grown := make([]byte, size)
	copy(grown, *m)
	*m = grown
}

// TestMemFileMatchesModel drives random operation sequences against a
// memFile and a plain byte-slice model, checking a random read after every
// operation and the whole content at the end. Offsets and lengths
// concentrate on the page boundaries (k·pageSize and one either side), so
// writes straddle pages, leave holes of whole pages, and truncates cut into
// the middle of a page before a later extension reads past the cut; the
// sequences also reopen with O_TRUNC and write through an O_APPEND handle.
func TestMemFileMatchesModel(t *testing.T) {
	f := func(seed int64, nops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		// at is an offset or length: on a page boundary or one byte either
		// side of it, or anywhere in the first few pages.
		at := func() int64 {
			if rng.Intn(2) == 0 {
				return int64(max(0, rng.Intn(4)*pageSize+rng.Intn(3)-1))
			}
			return int64(rng.Intn(3 * pageSize))
		}
		length := func() int {
			switch rng.Intn(4) {
			case 0:
				return pageSize - 1 + rng.Intn(3)
			case 1:
				return 1 + rng.Intn(100)
			}
			return 1 + rng.Intn(2*pageSize)
		}
		m := NewMemFS()
		fh, err := m.OpenFile("f", ReadWriteFlag, 0o644)
		if err != nil {
			return false
		}
		defer func() { fh.Close() }()
		var model memModel
		pos := int64(0)
		for i := 0; i < int(nops%24)+6; i++ {
			switch rng.Intn(7) {
			case 0: // sequential write
				b := make([]byte, length())
				rng.Read(b)
				fh.Write(b)
				model.writeAt(b, pos)
				pos += int64(len(b))
			case 1: // seek
				pos = at()
				fh.Seek(pos, io.SeekStart)
			case 2: // WriteAt, often past the end: a sparse hole
				b := make([]byte, length())
				rng.Read(b)
				off := at()
				fh.WriteAt(b, off)
				model.writeAt(b, off)
			case 3: // truncate, into the middle of a page or past the end
				size := at()
				if rng.Intn(2) == 0 {
					size = int64(rng.Intn(4)*pageSize + pageSize/2)
				}
				fh.Truncate(size)
				model.truncate(size)
			case 4: // reopen with O_TRUNC, then write past the old length
				fh.Close()
				if fh, err = m.OpenFile("f", os.O_RDWR|os.O_TRUNC, 0); err != nil {
					return false
				}
				b := make([]byte, length())
				rng.Read(b)
				off := int64(len(model)) + at()%pageSize
				fh.WriteAt(b, off)
				model = nil
				model.writeAt(b, off)
				pos = 0
			case 5: // write through a second handle opened O_APPEND
				ah, err := m.OpenFile("f", os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					return false
				}
				b := make([]byte, length())
				rng.Read(b)
				ah.Write(b)
				ah.Close()
				model.writeAt(b, int64(len(model)))
			case 6: // truncate to a page boundary, then extend by WriteAt
				size := int64(rng.Intn(3) * pageSize)
				fh.Truncate(size)
				model.truncate(size)
				b := []byte{1, 2, 3}
				off := size + int64(rng.Intn(2*pageSize))
				fh.WriteAt(b, off)
				model.writeAt(b, off)
			}
			// A random ReadAt agrees with the model, zeros and EOF included.
			off := at()
			got := make([]byte, length())
			n, rerr := fh.ReadAt(got, off)
			var want []byte
			if off < int64(len(model)) {
				want = model[off:min(int64(len(model)), off+int64(len(got)))]
			}
			if n != len(want) || !bytes.Equal(got[:n], want) || (n < len(got)) != (rerr == io.EOF) {
				t.Logf("seed %d op %d: ReadAt(%d bytes, %d) = %d, %v; model has %d bytes there", seed, i, len(got), off, n, rerr, len(want))
				return false
			}
			if st, _ := fh.Stat(); st.Size() != int64(len(model)) {
				t.Logf("seed %d op %d: size %d, model %d", seed, i, st.Size(), len(model))
				return false
			}
		}
		got, err := ReadFile(m, "f")
		if err != nil {
			return false
		}
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
