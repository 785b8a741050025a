package gridbuffer

import (
	"bytes"
	"testing"

	"griddles/internal/wire"
)

// encodePutBatch is the PUT-BATCH encoder old writers carried; current
// writers coalesce plain PUTs in the connection buffer, so it lives on only
// to feed the server-side decoder in tests.
func encodePutBatch(e *wire.Encoder, key string, blocks []wblock) {
	e.String(key)
	e.U32(uint32(len(blocks)))
	for _, blk := range blocks {
		e.I64(blk.idx)
		e.Bytes32(blk.data)
	}
}

// FuzzDecodePutBatch: arbitrary payloads never panic the PUT-BATCH decoder,
// and anything it accepts survives an encode → decode round trip.
func FuzzDecodePutBatch(f *testing.F) {
	e := wire.NewEncoder()
	encodePutBatch(e, "wf/stream", []wblock{
		{idx: 0, data: []byte("first block")},
		{idx: 1, data: []byte("second")},
	})
	f.Add(e.Bytes())
	e = wire.NewEncoder()
	encodePutBatch(e, "", nil)
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodePutBatch(wire.NewDecoder(data))
		if err != nil {
			return
		}
		e := wire.NewEncoder()
		encodePutBatch(e, req.key, req.blocks)
		again, err := decodePutBatch(wire.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of a re-encoded batch failed: %v", err)
		}
		if again.key != req.key || len(again.blocks) != len(req.blocks) {
			t.Fatalf("round trip changed the batch: key %q->%q, %d->%d blocks",
				req.key, again.key, len(req.blocks), len(again.blocks))
		}
		for i := range req.blocks {
			if again.blocks[i].idx != req.blocks[i].idx ||
				!bytes.Equal(again.blocks[i].data, req.blocks[i].data) {
				t.Fatalf("round trip changed block %d", i)
			}
		}
	})
}

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
