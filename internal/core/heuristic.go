package core

import (
	"fmt"
	"time"

	"griddles/internal/gns"
	"griddles/internal/nws"
)

// The §3.1 copy-vs-remote heuristic. The paper: "The choice of mode should
// be based on information about the access patterns and the file size. For
// example, if an application reads a small fraction of the remote file, it
// may not warrant copying it to the local file system. Further, if the
// file is very large, it may not be possible to copy it ... On the other
// hand, if a file is small and the latency to the remote system is high,
// then it is more efficient to copy the file."

// HeuristicConfig tunes the ModeAuto decision.
type HeuristicConfig struct {
	// MaxCopyBytes is the largest file the FM will stage locally ("if the
	// file is very large, it may not be possible to copy it"); 0 selects
	// 256 MiB.
	MaxCopyBytes int64
	// SmallReadFraction is the read share below which remote block access
	// wins regardless of link quality; 0 selects 0.25.
	SmallReadFraction float64
	// BlockSize is the remote-access granularity assumed by the cost
	// model; 0 selects the mapping's block size.
	BlockSize int
}

func (h HeuristicConfig) maxCopy() int64 {
	if h.MaxCopyBytes > 0 {
		return h.MaxCopyBytes
	}
	return 256 << 20
}

func (h HeuristicConfig) smallFraction() float64 {
	if h.SmallReadFraction > 0 {
		return h.SmallReadFraction
	}
	return 0.25
}

// Decision records an auto-mode choice (exposed for tests and stats). It is
// the FM's §3.1 decision record: the heuristic's inputs next to its output,
// also emitted on the obs trace as an "fm.decision" event.
type Decision struct {
	Mode     gns.Mode // ModeCopy or ModeRemote
	Size     int64
	CopyCost time.Duration // estimated; zero when no NWS data
	ReadCost time.Duration
	Reason   string

	// Path is the open path the decision was made for.
	Path string
	// ReadFraction is the mapping's read-share hint after defaulting (1
	// means "whole file").
	ReadFraction float64
	// ForecastKnown reports whether the NWS had data for the link; when
	// true, LatencySec and BandwidthBps are the forecasts the cost model
	// used.
	ForecastKnown bool
	LatencySec    float64
	BandwidthBps  float64
}

// decideAuto resolves a ModeAuto mapping into ModeCopy or ModeRemote.
func (m *Multiplexer) decideAuto(path string, mapping gns.Mapping) (Decision, error) {
	c := m.client(mapping.RemoteHost)
	size, exists, err := c.Stat(remotePath(mapping, path))
	if err != nil {
		return Decision{}, err
	}
	if !exists {
		return Decision{}, fmt.Errorf("core: %s: no such remote file on %s", path, mapping.RemoteHost)
	}
	h := m.cfg.Heuristic
	frac := mapping.ReadFraction
	if frac <= 0 || frac > 1 {
		frac = 1
	}

	d := Decision{Size: size, Path: path, ReadFraction: frac}
	switch {
	case size > h.maxCopy():
		// Too large to stage at all.
		d.Mode, d.Reason = gns.ModeRemote, "file exceeds the staging limit"
	case frac <= h.smallFraction():
		// The application touches a small fraction: block access wins.
		d.Mode, d.Reason = gns.ModeRemote, "application reads a small fraction"
	default:
		// Compare estimated costs when the NWS knows the link; default to
		// copying (the latency-hiding bulk transfer) otherwise.
		host := hostOf(mapping.RemoteHost)
		if m.cfg.NWS != nil {
			copyCost, okC := m.cfg.NWS.EstimateTransfer(host, m.cfg.Machine, size)
			bs := h.BlockSize
			if bs <= 0 {
				bs = mapping.EffectiveBlockSize()
			}
			readBytes := int64(float64(size) * frac)
			blocks := (readBytes + int64(bs) - 1) / int64(bs)
			lat, okL := m.cfg.NWS.Forecast(host, m.cfg.Machine, nws.MetricLatency)
			if okC && okL {
				d.CopyCost = copyCost
				d.ForecastKnown = true
				d.LatencySec = lat
				if bw, okB := m.cfg.NWS.Forecast(host, m.cfg.Machine, nws.MetricBandwidth); okB {
					d.BandwidthBps = bw
				}
				// Each remote block costs a round trip plus its share of the
				// bandwidth-bound transfer.
				perBlock := 2 * time.Duration(lat*float64(time.Second))
				d.ReadCost = time.Duration(blocks)*perBlock + time.Duration(float64(copyCost)*frac)
				if d.ReadCost < d.CopyCost {
					d.Mode, d.Reason = gns.ModeRemote, "forecast favours block access"
				} else {
					d.Mode, d.Reason = gns.ModeCopy, "forecast favours staging"
				}
				return d, nil
			}
		}
		d.Mode, d.Reason = gns.ModeCopy, "whole-file read; staging hides latency"
	}
	return d, nil
}

// hostOf strips the port from a service address for NWS lookups.
func hostOf(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[:i]
		}
	}
	return addr
}
