package core

import (
	"griddles/internal/gns"
	"griddles/internal/gridftp"
	"griddles/internal/obs"
	"griddles/internal/wire"
)

// codecFor decides the stream codec for a link from this FM to addr (a
// "machine:port" service address): Config.WireCodec, when set, decides every
// link ("raw" pins it raw, anything else is negotiated), and is recorded as
// an fm.codec.select event, mirroring fm.backend.select. "" means raw: the
// client sends no negotiation frame at all, which is what Paper2004 runs.
func (m *Multiplexer) codecFor(addr string) string {
	c := m.cfg.WireCodec
	if c == "" {
		return ""
	}
	m.obs.Emit("fm.codec.select", m.cfg.Machine,
		obs.KV("addr", addr), obs.KV("codec", c), obs.KV("reason", "configured"))
	m.obs.Counter(obs.Key("fm.codec.select.total", "codec", c, "reason", "configured")).Inc()
	if c == wire.CodecRaw {
		return ""
	}
	return c
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
