package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/replica"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
	"griddles/internal/wire"
)

// pollInterval is the one non-default FM setting: the 200 ms default paces
// WaitClose polling for a 2004 WAN, and on loopback it would be all a
// Grid Buffer rendezvous measures.
const pollInterval = 5 * time.Millisecond

// fmHandle is one File Multiplexer as a legacy application would hold it,
// plus the span recorder of its client when the run is traced. Its methods
// are the application's OPEN/READ/WRITE/CLOSE; with a nil ct they add
// nothing to the FM's own calls.
type fmHandle struct {
	fm  *core.Multiplexer
	gns *gns.Client
	ct  *clientTrace
}

// newFM builds an FM on the grid with the zero-value core.Config plus
// wiring — what a user gets by writing GNS entries and nothing else. A
// non-nil ct wraps the three injected seams so the run is traced.
func newFM(g *grid, machine, fsDir string, replicas *replica.Catalog, ct *clientTrace) (*fmHandle, error) {
	if err := os.MkdirAll(fsDir, 0o755); err != nil {
		return nil, err
	}
	var dialer core.Dialer = tcpDialer{}
	var fsys vfs.FS = vfs.NewOSFS(fsDir)
	if ct != nil {
		dialer = &tracedDialer{inner: dialer, ct: ct, svcOf: g.svcOf}
		fsys = &tracedFS{inner: fsys, ct: ct}
	}
	gc := gns.NewShardedClient(dialer, g.gnsSeeds, simclock.Real{})
	var resolver gns.Resolver = gc
	if ct != nil {
		resolver = &tracedResolver{inner: gc, ct: ct}
	}
	cfg := core.Config{
		Machine:      machine,
		Clock:        simclock.Real{},
		FS:           fsys,
		Dialer:       dialer,
		GNS:          resolver,
		PollInterval: pollInterval,
	}
	if replicas != nil {
		cfg.Replicas = replica.CatalogLookuper{Catalog: replicas}
	}
	fm, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &fmHandle{fm: fm, gns: gc, ct: ct}, nil
}

func (h *fmHandle) shut() {
	h.fm.Close()
	h.gns.Close()
}

func (h *fmHandle) open(path string) (core.File, error) {
	tk := h.ct.begin(spCoreOpen, 0, false)
	f, err := h.fm.Open(path)
	h.ct.end(tk, 0)
	return f, err
}

func (h *fmHandle) create(path string) (core.File, error) {
	tk := h.ct.begin(spCoreOpen, 0, true)
	f, err := h.fm.Create(path)
	h.ct.end(tk, 0)
	return f, err
}

func (h *fmHandle) read(f core.File, p []byte) (int, error) {
	tk := h.ct.begin(spCoreIO, 0, false)
	n, err := f.Read(p)
	h.ct.end(tk, n)
	return n, err
}

func (h *fmHandle) write(f core.File, p []byte) (int, error) {
	tk := h.ct.begin(spCoreIO, 0, true)
	n, err := f.Write(p)
	h.ct.end(tk, n)
	return n, err
}

func (h *fmHandle) closeFile(f core.File) error {
	tk := h.ct.begin(spCoreClose, 0, false)
	err := f.Close()
	h.ct.end(tk, 0)
	return err
}

// handlePair is a client's two FMs over the same machine name and local
// directory: the plain one every untraced op uses, and — in a traced run
// only — one with the seams wrapped.
type handlePair struct {
	plain, traced *fmHandle
}

func newHandlePair(g *grid, machine, fsDir string, replicas *replica.Catalog, tr *tracer, client int) (handlePair, error) {
	var hp handlePair
	var err error
	if hp.plain, err = newFM(g, machine, fsDir, replicas, nil); err != nil {
		return hp, err
	}
	if tr != nil {
		ct := &clientTrace{t: tr, client: uint8(client)}
		if hp.traced, err = newFM(g, machine, fsDir, replicas, ct); err != nil {
			return hp, err
		}
	}
	return hp, nil
}

func (hp handlePair) pick(traced bool) *fmHandle {
	if traced && hp.traced != nil {
		return hp.traced
	}
	return hp.plain
}

func (hp handlePair) shut() {
	hp.plain.shut()
	if hp.traced != nil {
		hp.traced.shut()
	}
}

// ---------------------------------------------------------------------------
// Seeded content.

// dataset is the run's one seeded random block. Every file and stream is a
// rotation of it — content[j] = base[(rot+j) mod len(base)] — so files are
// distinct, a read at a wrong offset or of a wrong replica fails its CRC,
// and generating a gigabyte of inputs costs one 16 MiB fill.
type dataset struct {
	base []byte
}

const datasetBytes = 16 << 20

func newDataset(seed int64) *dataset {
	d := &dataset{base: make([]byte, datasetBytes)}
	rand.New(rand.NewSource(seed)).Read(d.base)
	return d
}

// each calls fn with successive pieces of size bytes of rotation rot, each
// at most step bytes and never crossing the end of the base block.
func (d *dataset) each(rot, size int64, step int, fn func(p []byte) error) error {
	for off := int64(0); off < size; {
		n := int64(step)
		if size-off < n {
			n = size - off
		}
		at := (rot + off) % int64(len(d.base))
		if rest := int64(len(d.base)) - at; rest < n {
			n = rest
		}
		if err := fn(d.base[at : at+n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// crc reports the CRC-32 of size bytes of rotation rot.
func (d *dataset) crc(rot, size int64) uint32 {
	var sum uint32
	d.each(rot, size, 1<<20, func(p []byte) error {
		sum = crc32.Update(sum, crc32.IEEETable, p)
		return nil
	})
	return sum
}

// writeFile writes size bytes of rotation rot to path on the harness's own
// disk — how inputs reach a gridftpd root or a client's local directory.
func (d *dataset) writeFile(path string, rot, size int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = d.each(rot, size, 1<<20, func(p []byte) error {
		_, err := f.Write(p)
		return err
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// rotReader streams a rotation as an io.Reader, for object PUTs.
type rotReader struct {
	d         *dataset
	rot, size int64
	off       int64
}

func (r *rotReader) Read(p []byte) (int, error) {
	if r.off >= r.size {
		return 0, io.EOF
	}
	at := (r.rot + r.off) % int64(len(r.d.base))
	n := copy(p, r.d.base[at:min(int64(len(r.d.base)), at+r.size-r.off)])
	r.off += int64(n)
	return n, nil
}

// ---------------------------------------------------------------------------
// Grid administration the workloads share.

// adminGNS returns the sharded client the harness writes GNS entries with.
func adminGNS(g *grid) *gns.Client {
	return gns.NewShardedClient(tcpDialer{}, g.gnsSeeds, simclock.Real{})
}

// setMapping installs one GNS entry, riding out the first moments of a ring
// whose members are still finding each other.
func setMapping(c *gns.Client, machine, path string, m gns.Mapping) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Set(machine, path, m)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dropBuffer deletes a Grid Buffer key on the service, so a finished
// stream's table does not outlive it. No client in the tree sends this
// message; 11 and 12 are gridbuffer's msgDrop / msgDropResp.
func dropBuffer(addr, key string) error {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(opDeadline))
	if err := wire.WriteFrame(conn, 11, wire.NewEncoder().String(key).Bytes()); err != nil {
		return err
	}
	typ, _, err := wire.ReadFrame(conn)
	if err != nil {
		return err
	}
	if typ != 12 {
		return fmt.Errorf("gridlab: dropping buffer %q: reply type %d", key, typ)
	}
	return nil
}
