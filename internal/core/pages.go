package core

import (
	"fmt"
	"reflect"

	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// Columnar product pages (DESIGN.md §17). Products whose type is registered
// with serde.RegisterColumnar and stored on *events* are not written as one
// row-oriented value per event; instead the client clusters them into
// per-field column pages keyed by event range, so the servers can evaluate
// selection predicates and project columns without ever materializing whole
// products (the pushdown scan path).
//
// Pages of one (subrun, label, type) form a *page group*. The group prefix
// is placed by the subrun key — not the event key like row products — so
// every page of a group lands on one database and a scan walks them with a
// single iterator:
//
//	"!cp!" <subrun key> <label> '#' <type name> 0x00
//
// The marker distinguishes page keys from row product keys, which start
// with a random dataset UUID; a UUID beginning with "!cp!" has probability
// 2^-32 and would only misclassify tooling counts, never data paths.
// The 0x00 terminator keeps one group's prefix from matching another whose
// label#type merely extends it. Below the group prefix the yokan page key
// layout takes over (column id byte + first event number, pages.go there).
//
// Pages are write-once: re-storing a columnar product on an event that a
// sealed page already covers is unsupported (HEP ingest is write-once per
// event). Events with zero rows ride the row path so presence survives —
// a page never carries an empty event, which keeps "no rows in pages" an
// unambiguous fall-back signal for Load.

// pageGroupMarker prefixes every columnar page key.
const pageGroupMarker = "!cp!"

// Sealing thresholds for open pages: a page is emitted once it holds this
// many rows or column bytes, always on an event boundary.
const (
	pageSealRows  = 256
	pageSealBytes = 64 << 10
)

// pageGroupKey builds the page-group prefix for a subrun's labelled,
// typed columnar products.
func pageGroupKey(srKey keys.ContainerKey, label, typeName string) []byte {
	sk := srKey.Bytes()
	b := make([]byte, 0, len(pageGroupMarker)+len(sk)+len(label)+1+len(typeName)+1)
	b = append(b, pageGroupMarker...)
	b = append(b, sk...)
	b = append(b, label...)
	b = append(b, '#')
	b = append(b, typeName...)
	b = append(b, 0)
	return b
}

// columnarRows reports how many rows a columnar-eligible product value
// holds (slices, possibly behind pointers). Non-slices report 0 and stay
// on the row path.
func columnarRows(value any) int {
	rv := reflect.ValueOf(value)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return 0
		}
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Slice {
		return 0
	}
	return rv.Len()
}

// openPage accumulates one group's rows until it seals: per-field column
// chunks built with AppendColumn plus the page meta (event boundaries and
// the row-path byte total the accounting compares against).
type openPage struct {
	schema *serde.ColumnSchema
	group  []byte
	to     place // the subrun's product databases
	meta   yokan.PageMeta
	cols   [][]byte
	bytes  int    // column bytes accumulated, drives pageSealBytes
	rowBuf []byte // scratch for row-path sizing (FullBytes)
}

func newOpenPage(schema *serde.ColumnSchema, group []byte, srKey keys.ContainerKey) *openPage {
	return &openPage{
		schema: schema,
		group:  group,
		to:     place{roleProducts, srKey.Bytes()},
		cols:   make([][]byte, schema.NumFields()),
	}
}

// appendEvent appends one event's rows to every column and records the
// event boundary. Callers guarantee ev is greater than every event already
// in the page and that value holds at least one row.
func (p *openPage) appendEvent(ev uint64, value any) error {
	rows := 0
	before := p.bytes
	var err error
	for f := 0; f < p.schema.NumFields(); f++ {
		n := len(p.cols[f])
		p.cols[f], rows, err = p.schema.AppendColumn(p.cols[f], f, value)
		if err != nil {
			return fmt.Errorf("hepnos: columnar encode: %w", err)
		}
		p.bytes += len(p.cols[f]) - n
	}
	rb, err := serde.MarshalAppend(p.rowBuf[:0], value)
	if err != nil {
		p.bytes = before
		return fmt.Errorf("hepnos: columnar encode: %w", err)
	}
	p.rowBuf = rb
	p.meta.FullBytes += uint64(len(rb))
	p.meta.Events = append(p.meta.Events, yokan.PageEvent{Event: ev, Rows: uint64(rows)})
	p.meta.Rows += uint64(rows)
	return nil
}

// full reports whether the page reached a sealing threshold.
func (p *openPage) full() bool {
	return p.meta.Rows >= pageSealRows || p.bytes >= pageSealBytes
}

// covers reports whether appending event ev would violate the page's
// ascending-event invariant (the page already holds ev or a later event).
func (p *openPage) covers(ev uint64) bool {
	return len(p.meta.Events) > 0 && ev <= p.meta.LastEvent()
}

// pageKVs materializes the sealed page as KV pairs: one field page per
// column plus the row-meta page, all keyed under the group prefix by the
// page's first event.
func (p *openPage) pageKVs() (ks, vs [][]byte) {
	first := p.meta.FirstEvent()
	for f := 0; f < p.schema.NumFields(); f++ {
		ks = append(ks, yokan.AppendPageKey(nil, p.group, byte(f), first))
		vs = append(vs, yokan.AppendFieldPage(nil, p.schema.Field(f).Kind, int(p.meta.Rows), p.cols[f]))
	}
	ks = append(ks, yokan.AppendPageKey(nil, p.group, yokan.RowMetaCol, first))
	vs = append(vs, p.meta.AppendMeta(nil))
	return ks, vs
}
