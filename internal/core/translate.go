package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"griddles/internal/gns"
	"griddles/internal/xdr"
)

// RecordSpec registers a file's record layout for the paper's §3.3
// heterogeneity scheme: when a GNS mapping declares the file's DataOrder
// and it differs from this machine's order, the FM reorders bytes in
// flight — the application reads native-order records from a foreign-order
// file without knowing.
type RecordSpec struct {
	Schema xdr.Schema
}

// orderByName resolves the GNS DataOrder strings.
func orderByName(name string) (binary.ByteOrder, error) {
	switch name {
	case "le":
		return binary.LittleEndian, nil
	case "be":
		return binary.BigEndian, nil
	default:
		return nil, fmt.Errorf("core: unknown byte order %q (want \"le\" or \"be\")", name)
	}
}

// maybeTranslate wraps f with an in-flight byte-order translator when the
// mapping declares a foreign DataOrder and a record schema is registered
// for the open path. Files opened for writing are never wrapped (the FM
// writes native order; the GNS entry records it).
func (m *Multiplexer) maybeTranslate(f File, path string, mapping gns.Mapping, writing bool) (File, error) {
	if writing || mapping.DataOrder == "" || mapping.DataOrder == m.cfg.ByteOrder {
		return f, nil
	}
	spec, ok := m.cfg.Records[path]
	if !ok {
		return nil, fmt.Errorf("core: %s is %s-order data but no record schema is registered (Config.Records)", path, mapping.DataOrder)
	}
	if err := spec.Schema.Validate(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	from, err := orderByName(mapping.DataOrder)
	if err != nil {
		return nil, err
	}
	m.stats.translated()
	return &translatingFile{
		inner: f, schema: spec.Schema, from: from, to: m.order,
		recSize: spec.Schema.Size(),
	}, nil
}

// translatingFile converts whole records between byte orders as they are
// read. Reads are internally record-aligned: bytes are pulled from the
// underlying file until a full record (or EOF) is available, translated
// once, then served at whatever granularity the application asks for.
type translatingFile struct {
	inner   File
	schema  xdr.Schema
	from    binary.ByteOrder
	to      binary.ByteOrder
	recSize int

	buf  []byte // translated bytes not yet delivered
	tail []byte // raw bytes of a partial trailing record
	eof  bool
}

func (t *translatingFile) Name() string { return t.inner.Name() }

func (t *translatingFile) Read(p []byte) (int, error) {
	for len(t.buf) == 0 {
		if t.eof {
			if len(t.tail) > 0 {
				return 0, fmt.Errorf("core: %s: %d trailing bytes are not a whole %d-byte record",
					t.Name(), len(t.tail), t.recSize)
			}
			return 0, io.EOF
		}
		chunk := make([]byte, 32*1024)
		n, err := t.inner.Read(chunk)
		t.tail = append(t.tail, chunk[:n]...)
		if err == io.EOF {
			t.eof = true
		} else if err != nil {
			return 0, err
		}
		whole := (len(t.tail) / t.recSize) * t.recSize
		if whole > 0 {
			recs := t.tail[:whole]
			if terr := xdr.Translate(recs, t.schema, t.from, t.to); terr != nil {
				return 0, terr
			}
			t.buf = append(t.buf, recs...)
			t.tail = append(t.tail[:0], t.tail[whole:]...)
		}
	}
	n := copy(p, t.buf)
	t.buf = t.buf[n:]
	return n, nil
}

// Write is rejected: translation applies to read bindings only.
func (t *translatingFile) Write([]byte) (int, error) {
	return 0, fmt.Errorf("core: %s: translated files are read-only", t.Name())
}

// Seek is supported at record boundaries only (translation state resets).
func (t *translatingFile) Seek(offset int64, whence int) (int64, error) {
	if whence == io.SeekCurrent {
		return 0, fmt.Errorf("core: %s: relative seeks are not supported on translated files", t.Name())
	}
	pos, err := t.inner.Seek(offset, whence)
	if err != nil {
		return 0, err
	}
	if pos%int64(t.recSize) != 0 {
		return 0, fmt.Errorf("core: %s: seek to %d is not a record boundary (record size %d)", t.Name(), pos, t.recSize)
	}
	t.buf, t.tail, t.eof = nil, nil, false
	return pos, nil
}

func (t *translatingFile) Close() error { return t.inner.Close() }
