package chaos

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"griddles/internal/core"
	"griddles/internal/xdr"
)

// TestChaosCompressedFrames re-runs the fault matrix's networked mechanisms
// with the consumer negotiating lzb frames: output must stay byte-identical
// to the no-fault raw run under mid-stream resets and partitions. This is
// the pin for codec state across retries — every reconnect renegotiates on
// the fresh connection, so a replayed request never decodes with stale
// per-connection state.
func TestChaosCompressedFrames(t *testing.T) {
	compress := func(c *core.Config) { c.WireCodec = "lzb" }
	for _, mech := range Mechanisms {
		if mech.ID == 1 {
			continue // no network path, nothing to negotiate
		}
		t.Run(fmt.Sprintf("mech%d-%s", mech.ID, mech.Name), func(t *testing.T) {
			baseline, _ := runCell(t, mech, nil)
			if want := Payload(1, dataSize); !bytes.Equal(baseline, want) {
				t.Fatalf("no-fault run broken: got %d bytes, want %d", len(baseline), len(want))
			}
			for _, sc := range []scenario{scenarios[0], scenarios[2]} { // midstream-reset, partition-then-heal
				t.Run(sc.name, func(t *testing.T) {
					got, trace, _ := runCellWith(t, mech, sc.actions(mech), compress)
					if !bytes.Equal(got, baseline) {
						t.Fatalf("compressed output under faults differs from raw no-fault run: got %d bytes, want %d",
							len(got), len(baseline))
					}
					if !strings.Contains(trace, "fault.injected") {
						t.Error("trace has no fault.injected event")
					}
					if !strings.Contains(trace, "fm.codec.select") {
						t.Error("trace shows no fm.codec.select decision despite WireCodec=lzb")
					}
				})
			}
		})
	}
}

// TestChaosColumnarFrames adds the columnar XDR transform on top of
// compression for the remote-file mechanism: a record schema registered for
// the chaos file must survive the same fault scenarios byte-identically.
func TestChaosColumnarFrames(t *testing.T) {
	mech := Mechanisms[2] // 3-remote: fetch path == open path, so the schema engages
	if mech.ID != 3 {
		t.Fatalf("mechanism table moved: got id %d, want 3", mech.ID)
	}
	// dataSize = 96 000 bytes = 6 000 whole 16-byte records.
	columnar := func(c *core.Config) {
		c.WireCodec = "lzb"
		c.Records = map[string]core.RecordSpec{File: {Schema: xdr.Schema{Fields: []xdr.Field{
			{Name: "a", Kind: xdr.KindUint32},
			{Name: "b", Kind: xdr.KindUint32},
			{Name: "v", Kind: xdr.KindFloat64},
		}}}}
	}
	baseline, _ := runCell(t, mech, nil)
	if want := Payload(1, dataSize); !bytes.Equal(baseline, want) {
		t.Fatalf("no-fault run broken: got %d bytes, want %d", len(baseline), len(want))
	}
	for _, sc := range []scenario{scenarios[0], scenarios[2]} {
		t.Run(sc.name, func(t *testing.T) {
			got, trace, _ := runCellWith(t, mech, sc.actions(mech), columnar)
			if !bytes.Equal(got, baseline) {
				t.Fatalf("columnar output under faults differs from raw no-fault run: got %d bytes, want %d",
					len(got), len(baseline))
			}
			if !strings.Contains(trace, "fault.injected") {
				t.Error("trace has no fault.injected event")
			}
		})
	}
}
