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
// block-indexed WriteAts (a Grid Buffer cache spill) must each cost a
// constant multiple of the final size, not a copy of the file per write.
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
		if got := after.TotalAlloc - before.TotalAlloc; got > 4*size {
			t.Errorf("%s: growing a file to %d bytes allocated %d bytes, want <= %d", name, size, got, 4*size)
		}
	}
}

// opSeq drives the same random operation sequence against a memFile and a
// plain byte-slice model, checking full content equality at the end.
func TestMemFileMatchesModel(t *testing.T) {
	f := func(seed int64, nops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMemFS()
		fh, err := m.OpenFile("f", ReadWriteFlag, 0o644)
		if err != nil {
			return false
		}
		defer func() { fh.Close() }()
		model := []byte{}
		pos := int64(0)
		for i := 0; i < int(nops%40)+5; i++ {
			switch rng.Intn(5) {
			case 0: // sequential write
				b := make([]byte, rng.Intn(100)+1)
				rng.Read(b)
				fh.Write(b)
				end := pos + int64(len(b))
				if end > int64(len(model)) {
					grown := make([]byte, end)
					copy(grown, model)
					model = grown
				}
				copy(model[pos:end], b)
				pos = end
			case 1: // seek
				if len(model) == 0 {
					continue
				}
				off := int64(rng.Intn(len(model) + 1))
				fh.Seek(off, io.SeekStart)
				pos = off
			case 2: // WriteAt
				b := make([]byte, rng.Intn(50)+1)
				rng.Read(b)
				off := int64(rng.Intn(200))
				fh.WriteAt(b, off)
				end := off + int64(len(b))
				if end > int64(len(model)) {
					grown := make([]byte, end)
					copy(grown, model)
					model = grown
				}
				copy(model[off:end], b)
			case 3: // truncate
				size := int64(rng.Intn(150))
				fh.Truncate(size)
				if size <= int64(len(model)) {
					model = model[:size]
				} else {
					grown := make([]byte, size)
					copy(grown, model)
					model = grown
				}
			case 4: // reopen with O_TRUNC, then write past the old length
				fh.Close()
				if fh, err = m.OpenFile("f", os.O_RDWR|os.O_TRUNC, 0); err != nil {
					return false
				}
				b := make([]byte, rng.Intn(50)+1)
				rng.Read(b)
				off := int64(len(model) + rng.Intn(20))
				fh.WriteAt(b, off)
				model = make([]byte, off+int64(len(b)))
				copy(model[off:], b)
				pos = 0
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
