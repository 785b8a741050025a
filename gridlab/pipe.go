package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"time"

	"griddles/internal/gns"
)

// pipe_stream: one producer FM and one consumer FM coupled through a Grid
// Buffer (mechanism 6), back-to-back streams written and read in the
// paper's 4 KiB calls. gridbuffer and wire do nearly all the work, at the
// smallest message size the system has; the GNS answers one resolve per
// side per stream.
const (
	pipeStreamBytes = 64 << 20
	pipeCall        = 4096
	pipeVariants    = 4 // distinct stream contents, cycled

	// pipeKeys is how many (path, buffer key) pairs the streams cycle
	// through. gridbufferd finds a buffer by key when a connection goes
	// away, so a key re-created right after its Drop can be hit by the old
	// stream's teardown (seen as "block 0 no longer available", or a stalled
	// stream, once in ~1500 streams). Each stream drops its key when done,
	// and the key is not used again until 127 other streams have been.
	pipeKeys = 128
)

func pipePath(i int) string { return fmt.Sprintf("pipe/%03d.dat", i) }
func pipeKey(i int) string  { return fmt.Sprintf("gridlab/pipe/%03d", i) }

type pipeWorkload struct {
	g        *grid
	data     *dataset
	sums     [pipeVariants]uint32
	producer handlePair
	consumer handlePair
	cached   bool // the cache_on diagnostic: CacheEnabled on the mapping
	size     int64
	n        int
}

func (w *pipeWorkload) name() string { return "pipe_stream" }
func (w *pipeWorkload) clients() int { return 1 }

// pipeRot is the rotation of the dataset that stream variant carries.
func pipeRot(variant int) int64 { return int64(variant) * 3 << 20 }

func (w *pipeWorkload) prepare(g *grid, seed int64, tr *tracer) error {
	w.g = g
	w.data = newDataset(seed)
	for v := range w.sums {
		w.sums[v] = w.data.crc(pipeRot(v), w.size)
	}
	var err error
	if w.producer, err = newHandlePair(g, "producer", filepath.Join(g.dir, "producer"), nil, tr, 0); err != nil {
		return err
	}
	if w.consumer, err = newHandlePair(g, "consumer", filepath.Join(g.dir, "consumer"), nil, tr, 1); err != nil {
		return err
	}
	admin := adminGNS(g)
	defer admin.Close()
	for i := 0; i < pipeKeys; i++ {
		// One wildcard-machine entry serves producer and consumer alike.
		m := gns.Mapping{Mode: gns.ModeBuffer, BufferHost: g.buf, BufferKey: pipeKey(i), CacheEnabled: w.cached}
		if err := setMapping(admin, "*", pipePath(i), m); err != nil {
			return err
		}
	}
	return nil
}

// op moves one stream: the consumer opens and reads to EOF on its own
// goroutine while the producer creates, writes and closes on this one.
func (w *pipeWorkload) op(_ int, traced bool, epoch time.Time) opRec {
	variant, slot := w.n%pipeVariants, w.n%pipeKeys
	w.n++
	prod, cons := w.producer.pick(traced), w.consumer.pick(traced)
	rec := opRec{kind: opStream, scheme: uint8(gns.ModeBuffer), traced: prod.ct != nil}

	type consumed struct {
		first time.Duration
		n     int64
		sum   uint32
		op    uint32
		err   error
	}
	got := make(chan consumed, 1)
	rec.start = time.Since(epoch)
	go func() {
		var c consumed
		tk := cons.ct.begin(spOp, 0, false)
		c.op = cons.ct.opID()
		defer func() { cons.ct.end(tk, int(c.n)); got <- c }()
		f, err := cons.open(pipePath(slot))
		if err != nil {
			c.err = err
			return
		}
		buf := make([]byte, pipeCall)
		for {
			n, err := cons.read(f, buf)
			if n > 0 {
				if c.n == 0 {
					c.first = time.Since(epoch)
				}
				c.sum = crc32.Update(c.sum, crc32.IEEETable, buf[:n])
				c.n += int64(n)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				c.err = err
				break
			}
		}
		if err := cons.closeFile(f); c.err == nil {
			c.err = err
		}
	}()

	tk := prod.ct.begin(spOp, 0, true)
	prodOp := prod.ct.opID()
	var firstWrite time.Duration
	perr := func() error {
		f, err := prod.create(pipePath(slot))
		if err != nil {
			return err
		}
		firstWrite = time.Since(epoch)
		werr := w.data.each(pipeRot(variant), w.size, pipeCall, func(p []byte) error {
			_, err := prod.write(f, p)
			return err
		})
		closing := time.Now()
		cerr := prod.closeFile(f)
		rec.closeDur = time.Since(closing)
		return errors.Join(werr, cerr)
	}()
	prod.ct.end(tk, int(w.size))
	c := <-got
	derr := dropBuffer(w.g.buf, pipeKey(slot))
	rec.end = time.Since(epoch)

	rec.traceOps = []uint32{prodOp, c.op}
	if c.first > 0 {
		rec.first = rec.start + (c.first - firstWrite)
	}
	switch {
	case perr != nil:
		rec.err = fmt.Errorf("producer: %w", perr)
	case c.err != nil:
		rec.err = fmt.Errorf("consumer: %w", c.err)
	case c.n != w.size || c.sum != w.sums[variant]:
		rec.err = fmt.Errorf("consumer read %d bytes crc %08x, want %d bytes crc %08x", c.n, c.sum, w.size, w.sums[variant])
	case derr != nil:
		rec.err = derr
	default:
		rec.bytes = w.size
	}
	return rec
}

func (w *pipeWorkload) finish(time.Time) []opRec { return nil }

func (w *pipeWorkload) close() {
	w.producer.shut()
	w.consumer.shut()
}
