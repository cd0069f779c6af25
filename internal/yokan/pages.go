package yokan

import (
	"encoding/binary"
	"fmt"

	"github.com/hep-on-hpc/hepnos-go/internal/serde"
)

// Columnar page layout (DESIGN.md §17). Products of a registered columnar
// type are not stored as one row blob per event; they are clustered into
// *pages* spanning a contiguous run of events inside one (container,
// label, type) group. A page is a family of ordinary KV entries in the
// same product database — so pages ride the existing put/bulk path, the
// LSM block cache, replica placement and anti-entropy resync with zero new
// storage machinery:
//
//	key   = group || colID(1B) || firstEvent(8B BE)
//	group = an opaque prefix the writer owns (core uses a reserved marker +
//	        subrun container key + label + type name)
//
// colID 0..N-1 are the schema's field columns; colID RowMetaCol (0xFF) is
// the page's row-meta entry recording which events the page covers, how
// many rows each contributed, and how many bytes the row-oriented encoding
// of the same products would occupy (the denominator of the bytes-saved
// metrics). Field pages store the column chunk produced by
// serde.MarshalColumns; the interleaving invariant means a page family can
// always be reassembled into the exact row-path bytes.
//
// Pages are write-once: the builder seals a page before storing it and
// never rewrites it, so replicated puts stay idempotent and scans never
// observe a partial page.

// RowMetaCol is the column id of a page's row-meta entry. It also bounds
// the schema width: columnar types can have at most RowMetaCol fields.
const RowMetaCol byte = 0xFF

// pageKeySuffix is colID + firstEvent.
const pageKeySuffix = 1 + 8

// AppendPageKey appends the page key for (group, col, firstEvent) to dst.
func AppendPageKey(dst, group []byte, col byte, firstEvent uint64) []byte {
	dst = append(dst, group...)
	dst = append(dst, col)
	var ev [8]byte
	binary.BigEndian.PutUint64(ev[:], firstEvent)
	return append(dst, ev[:]...)
}

// SplitPageKey splits a page key into its group prefix, column id and
// first event number. Parsing anchors at the end of the key, so the group
// stays opaque to this layer.
func SplitPageKey(key []byte) (group []byte, col byte, firstEvent uint64, ok bool) {
	if len(key) <= pageKeySuffix {
		return nil, 0, 0, false
	}
	n := len(key) - pageKeySuffix
	return key[:n], key[n], binary.BigEndian.Uint64(key[n+1:]), true
}

// rowMetaTag is the first byte of a row-meta page value; field pages start
// with their serde.ColKind, which is never zero.
const rowMetaTag = 0

// PageEvent records one event's contribution to a page.
type PageEvent struct {
	Event uint64 // event number within the page's subrun
	Rows  uint64 // rows (e.g. slices) the event's product contributed
}

// PageMeta is the decoded row-meta entry of one page.
type PageMeta struct {
	Rows      uint64 // total rows across the page
	FullBytes uint64 // bytes of the row-path encodings of the same products
	Events    []PageEvent
}

// FirstEvent and LastEvent bound the page's event range. Events are
// appended in ascending order by the builder.
func (m *PageMeta) FirstEvent() uint64 {
	if len(m.Events) == 0 {
		return 0
	}
	return m.Events[0].Event
}

func (m *PageMeta) LastEvent() uint64 {
	if len(m.Events) == 0 {
		return 0
	}
	return m.Events[len(m.Events)-1].Event
}

// AppendMeta appends the encoded row-meta value to dst.
func (m *PageMeta) AppendMeta(dst []byte) []byte {
	dst = append(dst, rowMetaTag)
	dst = appendPageUvarint(dst, m.Rows)
	dst = appendPageUvarint(dst, m.FullBytes)
	dst = appendPageUvarint(dst, uint64(len(m.Events)))
	for _, ev := range m.Events {
		dst = appendPageUvarint(dst, ev.Event)
		dst = appendPageUvarint(dst, ev.Rows)
	}
	return dst
}

// DecodePageMeta decodes a row-meta value into m, reusing m.Events.
func DecodePageMeta(v []byte, m *PageMeta) error {
	if len(v) == 0 || v[0] != rowMetaTag {
		return fmt.Errorf("yokan: not a row-meta page")
	}
	off := 1
	var err error
	if m.Rows, off, err = pageUvarint(v, off); err != nil {
		return err
	}
	if m.FullBytes, off, err = pageUvarint(v, off); err != nil {
		return err
	}
	var n uint64
	if n, off, err = pageUvarint(v, off); err != nil {
		return err
	}
	if n > uint64(len(v)) { // each event entry takes >= 2 bytes
		return fmt.Errorf("yokan: row-meta claims %d events in %d bytes", n, len(v))
	}
	m.Events = m.Events[:0]
	var sumRows uint64
	for i := uint64(0); i < n; i++ {
		var ev PageEvent
		if ev.Event, off, err = pageUvarint(v, off); err != nil {
			return err
		}
		if ev.Rows, off, err = pageUvarint(v, off); err != nil {
			return err
		}
		if i > 0 && ev.Event <= m.Events[len(m.Events)-1].Event {
			return fmt.Errorf("yokan: row-meta events out of order")
		}
		sumRows += ev.Rows
		m.Events = append(m.Events, ev)
	}
	if off != len(v) {
		return fmt.Errorf("yokan: %d trailing bytes in row-meta", len(v)-off)
	}
	if sumRows != m.Rows {
		return fmt.Errorf("yokan: row-meta rows %d != sum of event rows %d", m.Rows, sumRows)
	}
	return nil
}

// AppendFieldPage appends the encoded field-page value for one column
// chunk: the column kind, the row count, then the chunk bytes verbatim.
func AppendFieldPage(dst []byte, kind serde.ColKind, rows int, chunk []byte) []byte {
	dst = append(dst, byte(kind))
	dst = appendPageUvarint(dst, uint64(rows))
	return append(dst, chunk...)
}

// DecodeFieldPage splits a field-page value into its kind, row count and
// column chunk. The chunk is a view into v (zero-copy).
func DecodeFieldPage(v []byte) (kind serde.ColKind, rows int, chunk []byte, err error) {
	if len(v) == 0 || v[0] == rowMetaTag {
		return 0, 0, nil, fmt.Errorf("yokan: not a field page")
	}
	kind = serde.ColKind(v[0])
	r, off, err := pageUvarint(v, 1)
	if err != nil {
		return 0, 0, nil, err
	}
	chunk = v[off:]
	// Every column kind encodes a row in at least one byte.
	if r > uint64(len(chunk)) {
		return 0, 0, nil, fmt.Errorf("yokan: field page claims %d rows in a %d-byte chunk", r, len(chunk))
	}
	return kind, int(r), chunk, nil
}

func appendPageUvarint(dst []byte, v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	return append(dst, b[:n]...)
}

func pageUvarint(v []byte, off int) (uint64, int, error) {
	u, n := binary.Uvarint(v[off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("yokan: bad varint in page encoding")
	}
	return u, off + n, nil
}
