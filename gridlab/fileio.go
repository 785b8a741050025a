package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"path/filepath"
	"time"

	"griddles/internal/gns"
	"griddles/internal/objstore"
	"griddles/internal/replica"
	"griddles/internal/simclock"
)

// ioCall is the application's call size on the bulk paths.
const ioCall = 64 << 10

// rotStep spaces file rotations so every file starts on an ioCall boundary
// of the base block and no IO call straddles its end.
const rotStep = ioCall

// readAll is the application side of a whole-file sequential read: OPEN,
// READ in call-sized pieces to EOF, CLOSE, with a running CRC. It fills
// the op's first-byte time, close time and byte count.
func readAll(h *fmHandle, path string, call int, epoch time.Time, rec *opRec) (sum uint32, err error) {
	f, err := h.open(path)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, call)
	for {
		n, rerr := h.read(f, buf)
		if n > 0 {
			if rec.bytes == 0 {
				rec.first = time.Since(epoch)
			}
			sum = crc32.Update(sum, crc32.IEEETable, buf[:n])
			rec.bytes += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			err = rerr
			break
		}
	}
	closing := time.Now()
	cerr := h.closeFile(f)
	rec.closeDur = time.Since(closing)
	return sum, errors.Join(err, cerr)
}

// putObject uploads one rotation of the dataset to the object store.
func putObject(c *objstore.Client, d *dataset, key string, rot, size int64) error {
	_, err := c.Put(key, &rotReader{d: d, rot: rot, size: size})
	return err
}

// ---------------------------------------------------------------------------
// file_read

// file_read: one client reads whole files sequentially in 64 KiB calls.
// The files are spread round-robin over mechanisms 2 (stage-in copy),
// 3 (remote blocks), 4 (replica, remote), 5 (replica, striped copy from
// both gridftpd) and 7 (object GETs); every fourth op re-reads the file
// before it. Bytes dominate — a per-OPEN cost is under a percent of an op —
// so this is where the gridftp and objstore servers, the block path and
// stage-in through vfs show; the re-read share is where a default-on block
// cache would.
const (
	readFiles     = 24
	readFileBytes = 16 << 20
)

var readModes = []gns.Mode{gns.ModeCopy, gns.ModeRemote, gns.ModeReplicaRemote, gns.ModeReplicaCopy, gns.ModeObject}

type fileSpec struct {
	path string
	mode gns.Mode
	rot  int64
	sum  uint32
}

type fileReadWorkload struct {
	g      *grid
	data   *dataset
	files  []fileSpec
	order  []int // seeded visiting order, cycled
	client handlePair
	n      int
	last   int
	size   int64
}

func (w *fileReadWorkload) name() string { return "file_read" }
func (w *fileReadWorkload) clients() int { return 1 }

func (w *fileReadWorkload) prepare(g *grid, seed int64, tr *tracer) error {
	w.g = g
	w.data = newDataset(seed)
	rng := rand.New(rand.NewSource(seed))
	modeOf := rng.Perm(readFiles) // which round-robin slot each file takes
	w.order = rng.Perm(readFiles)

	catalog := replica.NewCatalog()
	objc := objstore.NewClient(tcpDialer{}, g.obj, simclock.Real{})
	admin := adminGNS(g)
	defer admin.Close()
	for i := 0; i < readFiles; i++ {
		f := fileSpec{
			path: fmt.Sprintf("data/f%02d", i),
			mode: readModes[modeOf[i]%len(readModes)],
			rot:  int64(i*9%256) * rotStep,
		}
		f.sum = w.data.crc(f.rot, w.size)
		remote := fmt.Sprintf("read/f%02d", i)
		m := gns.Mapping{Mode: f.mode}
		switch f.mode {
		case gns.ModeCopy, gns.ModeRemote:
			m.RemoteHost, m.RemotePath = g.ftp[0], remote
			if err := w.data.writeFile(filepath.Join(g.ftpRoot[0], remote), f.rot, w.size); err != nil {
				return err
			}
		case gns.ModeReplicaRemote, gns.ModeReplicaCopy:
			m.LogicalName = "lfn/" + remote
			// Without an NWS the first registered replica wins a mode-4
			// choice; putting the second gridftpd first gives it that share.
			for _, k := range []int{1, 0} {
				catalog.Register(m.LogicalName, replica.Location{Host: fmt.Sprintf("ftp%d", k), Addr: g.ftp[k], Path: remote})
				if err := w.data.writeFile(filepath.Join(g.ftpRoot[k], remote), f.rot, w.size); err != nil {
					return err
				}
			}
		case gns.ModeObject:
			m.RemoteHost, m.RemotePath = g.obj, remote
			if err := putObject(objc, w.data, remote, f.rot, w.size); err != nil {
				return err
			}
		}
		if f.mode == gns.ModeCopy || f.mode == gns.ModeReplicaCopy {
			m.LocalPath = fmt.Sprintf("stage/f%02d", i)
		}
		if err := setMapping(admin, "client0", f.path, m); err != nil {
			return err
		}
		w.files = append(w.files, f)
	}
	var err error
	w.client, err = newHandlePair(g, "client0", filepath.Join(g.dir, "client0"), catalog, tr, 0)
	return err
}

func (w *fileReadWorkload) op(_ int, traced bool, epoch time.Time) opRec {
	idx := w.last
	if w.n%4 != 3 {
		idx = w.order[(w.n-w.n/4)%len(w.order)]
	}
	w.n++
	w.last = idx
	return readOp(w.client.pick(traced), w.files[idx], w.size, ioCall, opRead, epoch)
}

// readOp reads one file end to end in call-sized reads and checks its size
// and CRC.
func readOp(h *fmHandle, f fileSpec, size int64, call int, kind uint8, epoch time.Time) opRec {
	rec := opRec{kind: kind, scheme: uint8(f.mode), traced: h.ct != nil}
	tk := h.ct.begin(spOp, 0, false)
	rec.traceOps = []uint32{h.ct.opID()}
	rec.start = time.Since(epoch)
	sum, err := readAll(h, f.path, call, epoch, &rec)
	rec.end = time.Since(epoch)
	h.ct.end(tk, int(rec.bytes))
	switch {
	case err != nil:
		rec.err = fmt.Errorf("%s (%s): %w", f.path, f.mode, err)
	case rec.bytes != size || sum != f.sum:
		rec.err = fmt.Errorf("%s (%s): read %d bytes crc %08x, want %d bytes crc %08x", f.path, f.mode, rec.bytes, sum, size, f.sum)
	}
	if rec.err != nil {
		rec.bytes = 0
	}
	return rec
}

func (w *fileReadWorkload) finish(time.Time) []opRec { return nil }
func (w *fileReadWorkload) close()                   { w.client.shut() }

// ---------------------------------------------------------------------------
// file_write

// file_write: one client overwrites files in place: mechanism 3 in the
// paper's 4 KiB writes (one round trip each), mechanism 2 (local writes,
// stage-out at close) and mechanism 7 (one PUT at close) in 64 KiB writes.
// The same gridftp, objstore and vfs layers as file_read, used the other
// way: a read-side gain that costs writes, or a write-behind default that
// moves time into close, shows here. Each op checks the size the service
// reports; after the window every file is read back and its CRC checked.
const (
	writeFiles     = 24
	writeFileBytes = 8 << 20
	remoteCall     = 4096
)

var writeModes = []gns.Mode{gns.ModeRemote, gns.ModeCopy, gns.ModeObject}

type outFile struct {
	fileSpec
	version int // bumped by every overwrite; selects the rotation written
	written bool
}

type fileWriteWorkload struct {
	g      *grid
	data   *dataset
	files  []outFile
	order  []int
	client handlePair
	n      int
	size   int64
}

func (w *fileWriteWorkload) name() string { return "file_write" }
func (w *fileWriteWorkload) clients() int { return 1 }

func (w *fileWriteWorkload) prepare(g *grid, seed int64, tr *tracer) error {
	w.g = g
	w.data = newDataset(seed)
	rng := rand.New(rand.NewSource(seed))
	modeOf := rng.Perm(writeFiles)
	w.order = rng.Perm(writeFiles)
	admin := adminGNS(g)
	defer admin.Close()
	for i := 0; i < writeFiles; i++ {
		f := outFile{fileSpec: fileSpec{
			path: fmt.Sprintf("out/f%02d", i),
			mode: writeModes[modeOf[i]%len(writeModes)],
		}}
		remote := fmt.Sprintf("write/f%02d", i)
		m := gns.Mapping{Mode: f.mode, RemotePath: remote, RemoteHost: g.ftp[0]}
		switch f.mode {
		case gns.ModeCopy:
			m.LocalPath = fmt.Sprintf("wstage/f%02d", i)
		case gns.ModeObject:
			m.RemoteHost = g.obj
		}
		if err := setMapping(admin, "client0", f.path, m); err != nil {
			return err
		}
		w.files = append(w.files, f)
	}
	var err error
	w.client, err = newHandlePair(g, "client0", filepath.Join(g.dir, "client0"), nil, tr, 0)
	return err
}

func (w *fileWriteWorkload) op(_ int, traced bool, epoch time.Time) opRec {
	h := w.client.pick(traced)
	i := w.order[w.n%len(w.order)]
	w.n++
	f := &w.files[i]
	f.version++
	f.written = true
	f.rot = int64((i*7+f.version*13)%256) * rotStep
	call := ioCall
	if f.mode == gns.ModeRemote {
		call = remoteCall
	}

	rec := opRec{kind: opWrite, scheme: uint8(f.mode), traced: h.ct != nil}
	tk := h.ct.begin(spOp, 0, true)
	rec.traceOps = []uint32{h.ct.opID()}
	rec.start = time.Since(epoch)
	err := func() error {
		file, err := h.create(f.path)
		if err != nil {
			return err
		}
		werr := w.data.each(f.rot, w.size, call, func(p []byte) error {
			_, err := h.write(file, p)
			if rec.first == 0 {
				rec.first = time.Since(epoch)
			}
			return err
		})
		closing := time.Now()
		cerr := h.closeFile(file)
		rec.closeDur = time.Since(closing)
		return errors.Join(werr, cerr)
	}()
	rec.end = time.Since(epoch)
	h.ct.end(tk, int(w.size))
	if err == nil {
		// Outside the timed op: what does the grid say the file holds now?
		var size int64
		var exists bool
		if size, exists, err = h.fm.Stat(f.path); err == nil && (!exists || size != w.size) {
			err = fmt.Errorf("after close the file is %d bytes (exists=%v), want %d", size, exists, w.size)
		}
	}
	if err != nil {
		rec.err = fmt.Errorf("%s (%s): %w", f.path, f.mode, err)
		return rec
	}
	rec.bytes = w.size
	return rec
}

// finish reads every written file back through the plain FM and checks its
// CRC against the last rotation written to it.
func (w *fileWriteWorkload) finish(epoch time.Time) []opRec {
	var recs []opRec
	for i := range w.files {
		f := &w.files[i]
		if !f.written {
			continue
		}
		f.sum = w.data.crc(f.rot, w.size)
		recs = append(recs, readOp(w.client.plain, f.fileSpec, w.size, ioCall, opVerify, epoch))
	}
	return recs
}

func (w *fileWriteWorkload) close() { w.client.shut() }
