package gridbuffer

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"griddles/internal/simclock"
	"griddles/internal/vfs"
)

// ackBelowScan is the reference AckBelow: visit every resident block and
// mark those below upto. The watermark walk must be indistinguishable from
// it at every call boundary.
func ackBelowScan(b *Buffer, id int, upto int64) {
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		for idx := range s.blocks {
			if idx < upto {
				b.markConsumedLocked(s, idx, id)
			}
		}
		s.mu.Unlock()
	}
}

// tableState is everything AckBelow can change: capacity accounting and each
// block's resident / consumed-by / dead / cached state.
type tableState struct {
	Resident int
	Blocks   map[int64]string
}

func snapshotTable(b *Buffer) tableState {
	st := tableState{Resident: b.Resident(), Blocks: map[int64]string{}}
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		for idx := range s.blocks {
			by := make([]bool, 8)
			for id := range s.consumed[idx] {
				by[id] = true
			}
			st.Blocks[idx] = fmt.Sprintf("resident consumed=%v", by)
		}
		for idx := range s.dead {
			st.Blocks[idx] += " dead"
		}
		for idx := range s.inCache {
			st.Blocks[idx] += " cached"
		}
		s.mu.Unlock()
	}
	return st
}

// TestAckBelowWatermarkMatchesScan drives two buffers with the same seeded
// schedule — out-of-order Puts, Puts below a reader's watermark, forward
// seeks (acks far past anything written), acks that go backward, consuming
// Gets, broadcast readers, cache on and off — acknowledging one through the
// watermark walk and the other through the full scan, and requires the two
// tables to be identical after every operation.
func TestAckBelowWatermarkMatchesScan(t *testing.T) {
	const span = 160 // block indices in play
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{
			BlockSize: 8,
			Readers:   1 + rng.Intn(3),
			Shards:    1 << rng.Intn(5),
			Cache:     rng.Intn(2) == 0,
		}
		mk := func() *Buffer {
			o := opts
			o.CacheFS = vfs.NewMemFS()
			b := NewBuffer(simclock.Real{}, "k", o)
			for i := 0; i < opts.Readers; i++ {
				b.Attach()
			}
			return b
		}
		walk, scan := mk(), mk()
		marks := make([]int64, opts.Readers)
		for step := 0; step < 400; step++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 5: // put, anywhere: ahead of, between and below the watermarks
				idx := int64(rng.Intn(span))
				data := []byte(fmt.Sprintf("%08d", idx))
				op = fmt.Sprintf("put %d", idx)
				if e1, e2 := walk.Put(idx, data), scan.Put(idx, data); e1 != nil || e2 != nil {
					t.Fatalf("seed %d step %d %s: %v / %v", seed, step, op, e1, e2)
				}
			case r < 8: // ack: usually a short advance, sometimes a seek, sometimes backward
				id := rng.Intn(opts.Readers)
				upto := marks[id] + int64(rng.Intn(12))
				switch rng.Intn(8) {
				case 0:
					upto = marks[id] + int64(span) + int64(rng.Intn(1<<20)) // far ahead
				case 1:
					upto = int64(rng.Intn(span)) // possibly backward
				}
				marks[id] = max(marks[id], upto)
				op = fmt.Sprintf("ack reader %d below %d", id, upto)
				walk.AckBelow(id, upto)
				ackBelowScan(scan, id, upto)
			default: // a consuming get of something that will not block
				id, idx := rng.Intn(opts.Readers), int64(rng.Intn(span))
				if !walk.Ready(idx) || !scan.Ready(idx) {
					continue
				}
				op = fmt.Sprintf("get reader %d block %d", id, idx)
				d1, _, e1 := walk.Get(id, idx)
				d2, _, e2 := scan.Get(id, idx)
				if string(d1) != string(d2) || (e1 == nil) != (e2 == nil) {
					t.Fatalf("seed %d step %d %s: %q,%v vs %q,%v", seed, step, op, d1, e1, d2, e2)
				}
			}
			if got, want := snapshotTable(walk), snapshotTable(scan); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (%+v) step %d, after %s:\nwatermark walk: %+v\nfull scan:      %+v", seed, opts, step, op, got, want)
			}
		}
	}
}
