package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"time"

	"griddles/internal/gns"
	"griddles/internal/objstore"
	"griddles/internal/simclock"
)

// open_storm: several clients open small files at random — OPEN, four
// 4 KiB reads, CLOSE — spread uniformly over mechanisms 1 (local), 2 (copy),
// 3 (remote) and 7 (object). Per-OPEN cost dominates: the GNS resolve on
// the replicated ring, dial, negotiate and FM dispatch; the data layers
// move 16 KiB. One op in twenty is a GNS Set through the sharded client
// that re-binds a file to another mechanism — the share a majority-acked
// GNS write would move.
const (
	stormFiles     = 512
	stormFileBytes = 16 << 10
	stormCall      = 4096
	stormSetEvery  = 20
)

var stormModes = []gns.Mode{gns.ModeLocal, gns.ModeCopy, gns.ModeRemote, gns.ModeObject}

// stormClients is fixed, not min(nproc, 4): the whole run is confined to one
// CPU, and two closed-loop clients keep a request in flight while the other
// client checks its bytes.
const stormClients = 2

type stormClient struct {
	handlePair
	rng   *rand.Rand
	admin *gns.Client
}

type stormWorkload struct {
	g     *grid
	data  *dataset
	sums  []uint32
	mode  []atomic.Uint32 // the mechanism each file is bound to right now
	cls   []*stormClient
	files int
}

func (w *stormWorkload) name() string { return "open_storm" }
func (w *stormWorkload) clients() int { return len(w.cls) }

func stormPath(i int) string { return fmt.Sprintf("storm/f%04d", i) }

// mapping is the GNS entry binding file i to mode. Every store holds every
// file, so any binding reads the same bytes.
func (w *stormWorkload) mapping(i int, mode gns.Mode) gns.Mapping {
	m := gns.Mapping{Mode: mode}
	switch mode {
	case gns.ModeLocal:
		m.LocalPath = stormPath(i)
	case gns.ModeCopy:
		m.RemoteHost, m.RemotePath, m.LocalPath = w.g.ftp[0], stormPath(i), "stage/"+stormPath(i)
	case gns.ModeRemote:
		m.RemoteHost, m.RemotePath = w.g.ftp[0], stormPath(i)
	case gns.ModeObject:
		m.RemoteHost, m.RemotePath = w.g.obj, stormPath(i)
	}
	return m
}

func (w *stormWorkload) prepare(g *grid, seed int64, tr *tracer) error {
	w.g = g
	w.data = newDataset(seed)
	w.sums = make([]uint32, w.files)
	w.mode = make([]atomic.Uint32, w.files)
	rng := rand.New(rand.NewSource(seed))

	for c := 0; c < stormClients; c++ {
		hp, err := newHandlePair(g, fmt.Sprintf("client%d", c), filepath.Join(g.dir, fmt.Sprintf("client%d", c)), nil, tr, c)
		if err != nil {
			return err
		}
		w.cls = append(w.cls, &stormClient{
			handlePair: hp,
			rng:        rand.New(rand.NewSource(seed*1000 + int64(c))),
			admin:      adminGNS(g),
		})
	}
	objc := objstore.NewClient(tcpDialer{}, g.obj, simclock.Real{})
	admin := adminGNS(g)
	defer admin.Close()
	for i := 0; i < w.files; i++ {
		mode := stormModes[rng.Intn(len(stormModes))]
		w.mode[i].Store(uint32(mode))
		if err := w.populate(i, objc, admin, mode); err != nil {
			return err
		}
	}
	return nil
}

// populate puts file i into the gridftpd root, every client's local
// directory and the object store, and binds it to mode in the GNS.
func (w *stormWorkload) populate(i int, objc *objstore.Client, admin *gns.Client, mode gns.Mode) error {
	rot := int64(i) * stormCall
	w.sums[i] = w.data.crc(rot, stormFileBytes)
	if err := w.data.writeFile(filepath.Join(w.g.ftpRoot[0], stormPath(i)), rot, stormFileBytes); err != nil {
		return err
	}
	for c := range w.cls {
		if err := w.data.writeFile(filepath.Join(w.g.dir, fmt.Sprintf("client%d", c), stormPath(i)), rot, stormFileBytes); err != nil {
			return err
		}
	}
	if err := putObject(objc, w.data, stormPath(i), rot, stormFileBytes); err != nil {
		return err
	}
	// One wildcard-machine entry serves every client.
	return setMapping(admin, "*", stormPath(i), w.mapping(i, mode))
}

func (w *stormWorkload) op(c int, traced bool, epoch time.Time) opRec {
	cl := w.cls[c]
	i := cl.rng.Intn(w.files)
	if cl.rng.Intn(stormSetEvery) == 0 {
		return w.rebind(cl, i, epoch)
	}
	f := fileSpec{path: stormPath(i), mode: gns.Mode(w.mode[i].Load()), sum: w.sums[i]}
	return readOp(cl.pick(traced), f, stormFileBytes, stormCall, opRead, epoch)
}

// rebind points file i at a different mechanism with an acknowledged Set.
func (w *stormWorkload) rebind(cl *stormClient, i int, epoch time.Time) opRec {
	old := gns.Mode(w.mode[i].Load())
	mode := old
	for mode == old {
		mode = stormModes[cl.rng.Intn(len(stormModes))]
	}
	rec := opRec{kind: opSet, scheme: noScheme, start: time.Since(epoch)}
	_, err := cl.admin.Set("*", stormPath(i), w.mapping(i, mode))
	rec.end = time.Since(epoch)
	if err != nil {
		rec.err = fmt.Errorf("set %s -> %s: %w", stormPath(i), mode, err)
		return rec
	}
	w.mode[i].Store(uint32(mode))
	return rec
}

func (w *stormWorkload) finish(time.Time) []opRec { return nil }

func (w *stormWorkload) close() {
	for _, cl := range w.cls {
		cl.shut()
		cl.admin.Close()
	}
}
