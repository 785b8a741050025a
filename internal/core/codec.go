package core

import (
	"net"

	"griddles/internal/gns"
	"griddles/internal/gridftp"
	"griddles/internal/obs"
	"griddles/internal/wire"
)

// codecFor decides the stream codec for a link from this FM to addr
// (a "machine:port" service address). The decision order is the one the
// negotiated-wire-encoding design pins:
//
//  1. Config.WireCodec, when set, wins deterministically ("raw" pins the
//     link raw, anything else is negotiated everywhere).
//  2. Otherwise links whose NWS bandwidth forecast falls below
//     Config.CompressThresholdKbps negotiate block compression.
//  3. Fast links, links with no forecast, and FMs with no NWS stay raw —
//     a LAN transfer never pays compression CPU for bytes it could have
//     streamed in the same time.
//
// "" means raw: the client sends no negotiation frame at all, which is what
// Paper2004 runs. Every non-default decision is recorded as an
// fm.codec.select event, mirroring fm.backend.select.
func (m *Multiplexer) codecFor(addr string) string {
	if c := m.cfg.WireCodec; c != "" {
		m.emitCodecSelect(addr, c, "configured", -1)
		if c == wire.CodecRaw {
			return ""
		}
		return c
	}
	threshold := m.cfg.CompressThresholdKbps
	if threshold <= 0 {
		return "" // feature off: no events, no negotiation
	}
	host := hostOfAddr(addr)
	if m.cfg.NWS == nil {
		m.emitCodecSelect(addr, wire.CodecRaw, "no-nws", -1)
		return ""
	}
	// A pooled client moves bytes both ways; take whichever direction the
	// NWS has measured (outbound preferred).
	bw, ok := m.cfg.NWS.EstimateBandwidth(m.cfg.Machine, host)
	if !ok {
		bw, ok = m.cfg.NWS.EstimateBandwidth(host, m.cfg.Machine)
	}
	if !ok {
		m.emitCodecSelect(addr, wire.CodecRaw, "no-forecast", -1)
		return ""
	}
	kbps := bw * 8 / 1000 // NWS forecasts bytes/sec; the threshold is kilobits/sec
	if kbps < float64(threshold) {
		m.emitCodecSelect(addr, wire.CodecLZB, "slow-link", kbps)
		return wire.CodecLZB
	}
	m.emitCodecSelect(addr, wire.CodecRaw, "fast-link", kbps)
	return ""
}

// emitCodecSelect records one link's codec decision; kbps < 0 means the
// bandwidth was unknown.
func (m *Multiplexer) emitCodecSelect(addr, codec, reason string, kbps float64) {
	kv := []obs.Attr{
		obs.KV("addr", addr), obs.KV("codec", codec), obs.KV("reason", reason),
	}
	if kbps >= 0 {
		kv = append(kv, obs.KV("kbps", int64(kbps)))
	}
	m.obs.Emit("fm.codec.select", m.cfg.Machine, kv...)
	m.obs.Counter(obs.Key("fm.codec.select.total", "codec", codec, "reason", reason)).Inc()
}

// hostOfAddr strips the port from a service address; bare machine names
// pass through unchanged (the NWS keys links by machine).
func hostOfAddr(addr string) string {
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}

// configureCodec arms a freshly pooled file-service client with the link's
// codec decision and, when one is negotiated, declares every Config.Records
// schema under its open-path key so numeric transfers get the columnar
// transform. Mappings that rename the file remotely add their remote-path
// alias at open time (registerRemoteSchema).
func (m *Multiplexer) configureCodec(c *gridftp.Client, addr string) {
	codec := m.codecFor(addr)
	if codec == "" {
		return
	}
	c.SetCodec(codec)
	if len(m.cfg.Records) == 0 {
		return
	}
	for path, spec := range m.cfg.Records {
		// An invalid schema is ignored here — the stream still compresses,
		// it just skips the columnar reorder; translation reports the
		// schema error loudly at open.
		_ = c.RegisterSchema(path, spec.Schema, m.order)
	}
}

// registerRemoteSchema re-keys path's record schema under the mapping's
// remote name and declared byte order, so columnar negotiation engages on
// renamed and foreign-order fetches too.
func (m *Multiplexer) registerRemoteSchema(c *gridftp.Client, path, rp string, mapping gns.Mapping) {
	if cn := c.Codec(); cn == "" || cn == wire.CodecRaw {
		return
	}
	spec, ok := m.cfg.Records[path]
	if !ok {
		return
	}
	name := mapping.DataOrder
	if name == "" {
		name = m.cfg.ByteOrder
	}
	if ord, err := orderByName(name); err == nil {
		_ = c.RegisterSchema(rp, spec.Schema, ord)
	}
}
