package core

import (
	"testing"
	"time"

	"griddles/internal/nws"
	"griddles/internal/obs"
	"griddles/internal/wire"
)

// TestCodecForDecisions pins the per-link decision table: an explicit
// WireCodec decides every link, and without one every link stays raw
// whatever the NWS forecasts.
func TestCodecForDecisions(t *testing.T) {
	now := time.Unix(0, 0)
	cases := []struct {
		name   string
		extra  func(*Config)
		seed   func(s *nws.Service)
		addr   string
		want   string
		reason string // "" = no event expected
	}{
		{
			name:  "feature-off-default",
			extra: func(c *Config) {},
			addr:  "brecca:6000", want: "", reason: "",
		},
		{
			name:  "configured-lzb-wins",
			extra: func(c *Config) { c.WireCodec = wire.CodecLZB },
			addr:  "brecca:6000", want: wire.CodecLZB, reason: "configured",
		},
		{
			name:  "configured-raw-pins-raw",
			extra: func(c *Config) { c.WireCodec = wire.CodecRaw },
			addr:  "brecca:6000", want: "", reason: "configured",
		},
		{
			// An NWS forecast arms nothing: only WireCodec negotiates.
			name: "no-forecast-stays-raw",
			addr: "brecca:6000", want: "", reason: "",
		},
		{
			name: "fast-link-stays-raw",
			seed: func(s *nws.Service) {
				// 100 MB/s LAN = 800,000 kbit/s.
				s.Record("vpac27", "brecca", nws.MetricBandwidth, now, 100e6)
			},
			addr: "brecca:6000", want: "", reason: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv()
			if tc.seed != nil {
				tc.seed(e.nws)
			}
			e.v.Run(func() {
				fm := e.fm(t, "vpac27", tc.extra)
				if got := fm.codecFor(tc.addr); got != tc.want {
					t.Errorf("codecFor(%s) = %q, want %q", tc.addr, got, tc.want)
				}
				total := int64(0)
				for _, reason := range []string{"configured"} {
					for _, codec := range []string{wire.CodecRaw, wire.CodecLZB} {
						n := fm.Obs().Counter(obs.Key("fm.codec.select.total", "codec", codec, "reason", reason)).Value()
						total += n
						if n > 0 && reason != tc.reason {
							t.Errorf("unexpected decision counter codec=%s reason=%s", codec, reason)
						}
					}
				}
				if tc.reason == "" && total != 0 {
					t.Errorf("default-off FM emitted %d codec decisions, want none", total)
				}
				if tc.reason != "" && total != 1 {
					t.Errorf("recorded %d codec decisions, want exactly 1 (%s)", total, tc.reason)
				}
			})
		})
	}
}
