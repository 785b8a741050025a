package gridbuffer

import (
	"testing"

	"griddles/internal/wire"
)

// FuzzDecodeGetWin: arbitrary payloads never panic the windowed-GET
// decoder, and accepted requests round-trip exactly.
func FuzzDecodeGetWin(f *testing.F) {
	e := wire.NewEncoder()
	encodeGetWin(e, getWinReq{key: "wf/stream", readerID: 2, first: 7, count: 8, ackBelow: 5})
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeGetWin(wire.NewDecoder(data))
		if err != nil {
			return
		}
		e := wire.NewEncoder()
		encodeGetWin(e, req)
		again, err := decodeGetWin(wire.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of a re-encoded request failed: %v", err)
		}
		if again != req {
			t.Fatalf("round trip changed the request: %+v -> %+v", req, again)
		}
	})
}

// FuzzDecodeOptions: the options codec is total — any input decodes to an
// Options value that survives encode → decode unchanged.
func FuzzDecodeOptions(f *testing.F) {
	e := wire.NewEncoder()
	encodeOptions(e, Options{BlockSize: 1 << 15, Capacity: 64, Cache: true,
		CachePath: "/cache/k", Readers: 2, Shards: 16})
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		o := decodeOptions(wire.NewDecoder(data))
		e := wire.NewEncoder()
		encodeOptions(e, o)
		again := decodeOptions(wire.NewDecoder(e.Bytes()))
		// CacheFS is never on the wire; everything else must round-trip.
		if again.BlockSize != o.BlockSize || again.Capacity != o.Capacity ||
			again.Cache != o.Cache || again.CachePath != o.CachePath ||
			again.Readers != o.Readers || again.Shards != o.Shards {
			t.Fatalf("round trip changed the options: %+v -> %+v", o, again)
		}
	})
}
