package gridftp

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"
	"time"

	"griddles/internal/rpc"
	"griddles/internal/simnet"
	"griddles/internal/vfs"
)

// stageShapes are the remote sizes TestStagedCopyIsExact stages one after
// the other into the same local path: each shrink leaves a tail of the
// previous copy for the stage-in to cut away.
var stageShapes = []int{1 << 20, 100 << 10, 300 << 10}

// TestStagedCopyIsExact: a stage-in overwrites its local copy in place, so
// after every stage the copy must equal the remote in bytes and in size,
// whatever was staged into that path before — on the in-memory and on a real
// file system, single-stream and striped.
func TestStagedCopyIsExact(t *testing.T) {
	locals := []struct {
		name string
		fs   func(t *testing.T) vfs.FS
	}{
		{"memfs", func(*testing.T) vfs.FS { return vfs.NewMemFS() }},
		{"osfs", func(t *testing.T) vfs.FS { return vfs.NewOSFS(t.TempDir()) }},
	}
	for _, local := range locals {
		for _, streams := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/streams=%d", local.name, streams), func(t *testing.T) {
				r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
				fsys := local.fs(t)
				r.v.Run(func() {
					r.start(t)
					for i, size := range stageShapes {
						want := make([]byte, size)
						rand.New(rand.NewSource(int64(i))).Read(want)
						if err := vfs.WriteFile(r.fs, "remote", want); err != nil {
							t.Fatal(err)
						}
						n, err := r.client.CopyIn("remote", fsys, "stage/local", streams)
						if err != nil || n != int64(size) {
							t.Fatalf("stage %d: CopyIn = %d, %v; want %d bytes", i, n, err, size)
						}
						got, err := vfs.ReadFile(fsys, "stage/local")
						if err != nil {
							t.Fatal(err)
						}
						fi, err := fsys.Stat("stage/local")
						if err != nil {
							t.Fatal(err)
						}
						if fi.Size() != int64(size) || !bytes.Equal(got, want) {
							t.Fatalf("stage %d: the local copy is %d bytes (bytes equal: %v), the remote %d",
								i, fi.Size(), bytes.Equal(got, want), size)
						}
					}
				})
			})
		}
	}
}

// TestRemoteFileWindowProperty: whatever the read-ahead window does, a
// handle reads what a MemFS file with the same content reads. Ninety seeded
// scripts of Read, Seek (all three whences), ReadAt, and WriteAt followed by
// a Read through the same handle, over files sized around every edge of the
// window (empty, one byte, the 64 KiB floor ± 1, the 256 KiB cap ± 1, and
// 1 MiB + 3). A third of them then lose the connection in the middle of a
// refill at the cap, under the zero retry policy: that read fails, and a read
// back in the window the failed refill was overwriting must still return the
// file's bytes, not the buffer's.
func TestRemoteFileWindowProperty(t *testing.T) {
	sizes := []int{0, 1, rpc.WindowMin - 1, rpc.WindowMin, rpc.WindowMin + 1,
		rpc.WindowMax - 1, rpc.WindowMax, rpc.WindowMax + 1, 1<<20 + 3}
	lengths := []int{1, 100, 4096, rpc.WindowMin, rpc.WindowMin + 1, 300_000}
	for seed := 0; seed < 90; seed++ {
		size := sizes[seed%len(sizes)]
		faulty := seed/len(sizes)%3 == 2
		t.Run(fmt.Sprintf("seed%d-size%d-faulty=%v", seed, size, faulty), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			content := make([]byte, size)
			rng.Read(content)
			r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
			oracle := vfs.NewMemFS()
			for _, fsys := range []vfs.FS{r.fs, oracle} {
				if err := vfs.WriteFile(fsys, "f", content); err != nil {
					t.Fatal(err)
				}
			}
			model, err := oracle.OpenFile("f", os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			r.v.Run(func() {
				r.start(t)
				f, err := r.client.Open("f", os.O_RDWR)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				var mpos int64 // the model's position, for messages
				// Each step makes the same call on the handle and the model.
				read := func(n int) error {
					got, want := make([]byte, n), make([]byte, n)
					gn, gerr := io.ReadFull(f, got)
					wn, werr := io.ReadFull(model, want)
					if gerr != nil && gerr != io.EOF && gerr != io.ErrUnexpectedEOF {
						return gerr // a transport failure: the caller decides
					}
					if gn != wn || gerr != werr || !bytes.Equal(got[:gn], want[:wn]) {
						t.Fatalf("read(%d) at %d = %d, %v; the model says %d, %v (bytes equal: %v)",
							n, mpos, gn, gerr, wn, werr, bytes.Equal(got[:gn], want[:wn]))
					}
					mpos += int64(wn)
					return nil
				}
				seek := func(off int64, whence int) {
					gp, gerr := f.Seek(off, whence)
					wp, werr := model.Seek(off, whence)
					if (gerr != nil) != (werr != nil) || (gerr == nil && gp != wp) {
						t.Fatalf("seek(%d, %d) = %d, %v; the model says %d, %v", off, whence, gp, gerr, wp, werr)
					}
					if werr == nil {
						mpos = wp
					}
				}
				readAt := func(n int, off int64) {
					got, want := make([]byte, n), make([]byte, n)
					gn, gerr := f.ReadAt(got, off)
					wn, werr := model.ReadAt(want, off)
					if gn != wn || (gerr == io.EOF) != (werr == io.EOF) || (gerr != nil && gerr != io.EOF) ||
						!bytes.Equal(got[:gn], want[:wn]) {
						t.Fatalf("ReadAt(%d, %d) = %d, %v; the model says %d, %v (bytes equal: %v)",
							n, off, gn, gerr, wn, werr, bytes.Equal(got[:gn], want[:wn]))
					}
				}
				writeAt := func(n int, off int64) {
					p := make([]byte, n)
					rng.Read(p)
					gn, gerr := f.WriteAt(p, off)
					wn, werr := model.WriteAt(p, off)
					if gn != wn || gerr != nil || werr != nil {
						t.Fatalf("WriteAt(%d, %d) = %d, %v; the model says %d, %v", n, off, gn, gerr, wn, werr)
					}
				}
				length := func() int { return lengths[rng.Intn(len(lengths))] }
				script := func(steps int) {
					for i := 0; i < steps; i++ {
						switch rng.Intn(6) {
						case 0:
							seek(rng.Int63n(int64(size)+20)-10, io.SeekStart)
						case 1:
							seek(rng.Int63n(200_000)-100_000, io.SeekCurrent)
						case 2:
							seek(-rng.Int63n(int64(size)+20)+10, io.SeekEnd)
						case 3:
							readAt(length(), rng.Int63n(int64(size)+20))
						case 4:
							writeAt(length()/3+1, rng.Int63n(int64(size)+1000))
						}
						if err := read(length()); err != nil {
							t.Fatalf("read failed with no fault armed: %v", err)
						}
					}
				}
				script(20)
				if !faulty {
					return
				}
				// Scan from the start until the window stops growing, so the
				// refill that fails is as large as refills get.
				seek(0, io.SeekStart)
				for f.pos < f.size && (f.ahead < rpc.WindowMax || f.pos < f.bufOff+int64(len(f.buf))) {
					if err := read(rpc.WindowMin); err != nil {
						t.Fatalf("scan: %v", err)
					}
				}
				prevOff, prevLen := f.bufOff, int64(len(f.buf))
				// Cut the server's side inside the next reply: far enough in,
				// when the file allows, that data has landed in the buffer the
				// previous window lives in.
				cut := 1 + rng.Int63n(max(f.size-f.pos, 1))
				if f.size-f.pos > 200_000 {
					cut = 110_000 + rng.Int63n(80_000)
				}
				r.net.FailAfter("srv", "app", cut)
				pos := f.pos
				if err := read(rpc.WindowMin); err != nil {
					if f.pos != pos {
						t.Fatalf("a failed read moved the position from %d to %d", pos, f.pos)
					}
					// The frame header and the reply's own prefix come first:
					// the window's first cut-10 bytes are what the failed
					// refill overwrote.
					if hit := min(prevLen, cut-10) - 1000; hit > 0 {
						seek(prevOff+rng.Int63n(hit), io.SeekStart)
						if err := read(1000); err != nil {
							t.Fatalf("read back in the previous window after a failed refill: %v", err)
						}
					}
				} else {
					if f.size-pos > 200_000 {
						t.Fatalf("a reset %d bytes into a %d-byte refill went unnoticed", cut, f.size-pos)
					}
					// Trip what a short file never reached, on a reply
					// nothing reads, so the rest runs on a healthy link.
					r.net.FailAfter("srv", "app", 0)
					r.client.Stat("f")
				}
				script(20)
			})
		})
	}
}

// TestReadBuffersStopAtTheCap: the session and the handle keep their reply
// buffers for the next read only up to the window cap. A larger read, up to
// the protocol's MaxFrame/2 limit, is served and received in buffers neither
// keeps.
func TestReadBuffersStopAtTheCap(t *testing.T) {
	const size = 1 << 20
	content := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(content)
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	if err := vfs.WriteFile(r.fs, "f", content); err != nil {
		t.Fatal(err)
	}
	local, err := r.fs.OpenFile("f", os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	sess := &session{}
	var frame bytes.Buffer
	for _, n := range []int{rpc.WindowMin, rpc.WindowMax, rpc.WindowMax + 1, size} {
		frame.Reset()
		if err := sess.read(&frame, local, 0, n); err != nil {
			t.Fatal(err)
		}
		if got := frame.Bytes()[5+readPrefix:]; !bytes.Equal(got, content[:n]) {
			t.Fatalf("read(%d) answered %d bytes, not the file's first %d", n, len(got), n)
		}
		if cap(sess.reply) > rpc.WindowMax+readPrefix {
			t.Fatalf("after a %d-byte read the session keeps a %d-byte buffer", n, cap(sess.reply))
		}
	}
	r.v.Run(func() {
		r.start(t)
		f, err := r.client.Open("f", os.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for _, n := range []int{rpc.WindowMin, size} {
			p := make([]byte, n)
			if got, err := f.ReadAt(p, 0); got != n || err != nil || !bytes.Equal(p, content[:n]) {
				t.Fatalf("ReadAt(%d) = %d, %v", n, got, err)
			}
			if cap(f.reply) > rpc.WindowMax+readPrefix {
				t.Fatalf("after a %d-byte read the handle keeps a %d-byte buffer", n, cap(f.reply))
			}
		}
	})
}
