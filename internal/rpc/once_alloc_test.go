//go:build !race

// The race detector makes sync.Pool drop a random quarter of what is put
// back, so pooled buffers are only measurable without it.

package rpc_test

import (
	"bytes"
	"runtime"
	"testing"

	"griddles/internal/rpc"
)

// TestOneShotReusesPooledBuffers: after warm-up a one-shot exchange on simnet
// allocates less than one of its buffers, at either buffer size, because both
// ends take them from ServeConn's pools and give them back. A stream that
// allocated its own would cost at least one (4 KiB: a reader; 64 KiB: a
// reader and, for the buffered request, a writer).
func TestOneShotReusesPooledBuffers(t *testing.T) {
	for _, bufs := range []rpc.Buffers{{}, {Size: 64 << 10}} {
		b := newBench()
		b.v.Run(func() {
			b.start(t)
			payload := bytes.Repeat([]byte("x"), 512)
			for i := 0; i < 4; i++ {
				oneShotEcho(t, b, bufs, payload)
			}
			const n = 64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				oneShotEcho(t, b, bufs, payload)
			}
			runtime.ReadMemStats(&after)
			size := uint64(4096)
			if bufs.Size > 0 {
				size = uint64(bufs.Size)
			}
			if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= size {
				t.Errorf("buffers of %d bytes: a one-shot exchange allocated %d bytes, want less than one buffer", size, per)
			}
		})
	}
}
