package serde

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"

	"github.com/hep-on-hpc/hepnos-go/internal/wire"
)

// Columnar layout (DESIGN.md §17). A product type whose elements are flat
// scalar structs — the shape of HEP candidate records like nova.Slice — can
// be split into per-field *columns*: column j is the concatenation of every
// row's field-j encoding, using exactly the bytes the row-oriented Archive
// would have produced for that field. The row encoding of []S is therefore
// a pure interleaving of the columns (plus the leading row-count varint),
// which keeps the two representations mutually convertible and lets the
// fuzz suite pin their agreement byte for byte.
//
// Column schemas are derived from the same structPlan the row codec is
// compiled from, so a type's row and columnar views can never disagree
// about which fields exist or in what order.

// ColKind is the wire kind of one column.
type ColKind uint8

// Column kinds. The numeric kinds (ColBool through ColFloat64) take the
// ordered predicate comparisons; ColString columns take the string-equality
// predicates (EqStr/NeStr); ColBytes columns can be stored and fetched but
// not filtered on.
const (
	colInvalid ColKind = iota
	ColBool
	ColInt
	ColUint
	ColFloat32
	ColFloat64
	ColString
	ColBytes
)

// String names the kind for diagnostics.
func (k ColKind) String() string {
	switch k {
	case ColBool:
		return "bool"
	case ColInt:
		return "int"
	case ColUint:
		return "uint"
	case ColFloat32:
		return "float32"
	case ColFloat64:
		return "float64"
	case ColString:
		return "string"
	case ColBytes:
		return "bytes"
	default:
		return fmt.Sprintf("colkind(%d)", uint8(k))
	}
}

// Numeric reports whether the kind can appear in a predicate comparison
// (booleans compare as 0/1).
func (k ColKind) Numeric() bool { return k >= ColBool && k <= ColFloat64 }

// fixedWidth returns the encoded byte width of the kind, or 0 for
// variable-width kinds (varints, strings, bytes).
func (k ColKind) fixedWidth() int {
	switch k {
	case ColBool:
		return 1
	case ColFloat32:
		return 4
	case ColFloat64:
		return 8
	default:
		return 0
	}
}

// ColumnField describes one column of a schema.
type ColumnField struct {
	Name string
	Kind ColKind

	index int    // struct field index in the element type
	op    flatOp // a numeric kind's scalar layout, in scalarLayouts
}

// ColumnSchema is the derived per-type column layout: one column per
// serialized field of the slice-element struct, in structPlan (declaration)
// order. Schemas are immutable once derived.
type ColumnSchema struct {
	typeName string
	slice    reflect.Type // the product type, []S
	elem     reflect.Type // the element struct type S
	fields   []ColumnField
	byName   map[string]int
}

// TypeName returns the canonical product type name ("vector<Slice>").
func (s *ColumnSchema) TypeName() string { return s.typeName }

// NumFields returns the number of columns.
func (s *ColumnSchema) NumFields() int { return len(s.fields) }

// Field returns column i's descriptor.
func (s *ColumnSchema) Field(i int) ColumnField { return s.fields[i] }

// FieldIndex returns the column index of the named field, or -1.
func (s *ColumnSchema) FieldIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// columnSchemas caches derivation results per slice type; the value is
// either *ColumnSchema or the derivation error, so ineligible types are
// rejected exactly once too.
var columnSchemas sync.Map // reflect.Type -> any

// ColumnSchemaOf derives (and caches) the column schema for a product type.
// example is a value of the product type — a slice of flat scalar structs,
// optionally behind pointers — e.g. []nova.Slice{}. Types that are not
// slices of eligible structs return ErrUnsupported: they stay on the row
// path.
func ColumnSchemaOf(example any) (*ColumnSchema, error) {
	t := reflect.TypeOf(example)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil {
		return nil, fmt.Errorf("%w: columnar schema of nil", ErrUnsupported)
	}
	if v, ok := columnSchemas.Load(t); ok {
		if err, bad := v.(error); bad {
			return nil, err
		}
		return v.(*ColumnSchema), nil
	}
	s, err := deriveColumnSchema(t)
	if err != nil {
		columnSchemas.LoadOrStore(t, err)
		return nil, err
	}
	actual, _ := columnSchemas.LoadOrStore(t, s)
	if err, bad := actual.(error); bad {
		return nil, err
	}
	return actual.(*ColumnSchema), nil
}

// deriveColumnSchema builds the schema from the row path's structPlan.
func deriveColumnSchema(t reflect.Type) (*ColumnSchema, error) {
	if t.Kind() != reflect.Slice {
		return nil, fmt.Errorf("%w: columnar type %s is not a slice of structs", ErrUnsupported, t)
	}
	elem := t.Elem()
	if elem.Kind() != reflect.Struct {
		return nil, fmt.Errorf("%w: columnar element %s is not a struct", ErrUnsupported, elem)
	}
	// A Custom serializer owns its own wire format; the archive never walks
	// the plan for such a type, so no column layout can be derived from it.
	if isCustom(elem) {
		return nil, fmt.Errorf("%w: columnar element %s has a custom serializer", ErrUnsupported, elem)
	}
	plan := planFor(elem)
	if len(plan.fields) == 0 {
		return nil, fmt.Errorf("%w: columnar element %s has no serialized fields", ErrUnsupported, elem)
	}
	s := &ColumnSchema{
		typeName: typeNameOf(t),
		slice:    t,
		elem:     elem,
		byName:   make(map[string]int, len(plan.fields)),
	}
	for i, fi := range plan.fields {
		ft := elem.Field(fi).Type
		kind, err := colKindOf(ft)
		if err != nil {
			return nil, fmt.Errorf("%w (field %s.%s)", err, elem.Name(), plan.names[i])
		}
		op, _ := scalarOp(ft)
		s.byName[plan.names[i]] = len(s.fields)
		s.fields = append(s.fields, ColumnField{Name: plan.names[i], Kind: kind, index: fi, op: op})
	}
	return s, nil
}

func colKindOf(t reflect.Type) (ColKind, error) {
	if isCustom(t) {
		return colInvalid, fmt.Errorf("%w: custom-serialized field type %s", ErrUnsupported, t)
	}
	switch t.Kind() {
	case reflect.Bool:
		return ColBool, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return ColInt, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return ColUint, nil
	case reflect.Float32:
		return ColFloat32, nil
	case reflect.Float64:
		return ColFloat64, nil
	case reflect.String:
		return ColString, nil
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return ColBytes, nil
		}
	}
	return colInvalid, fmt.Errorf("%w: field kind %s is not columnar", ErrUnsupported, t.Kind())
}

// Columnar registry: product types opted into the page store. Registration
// is what routes a type off the row path, so it is explicit — deriving a
// schema alone (ColumnSchemaOf) changes nothing.
var (
	columnarByName sync.Map // string -> *ColumnSchema
	columnarByType sync.Map // reflect.Type -> *ColumnSchema
)

// RegisterColumnar derives the column schema for the product type of
// example and registers it process-wide: core stores of this type build
// columnar pages and loads/scans read them back. Returns the schema.
// Registering an ineligible type returns ErrUnsupported and registers
// nothing. Idempotent for the same type.
func RegisterColumnar(example any) (*ColumnSchema, error) {
	s, err := ColumnSchemaOf(example)
	if err != nil {
		return nil, err
	}
	columnarByName.Store(s.typeName, s)
	columnarByType.Store(s.slice, s)
	return s, nil
}

// ColumnarOf returns the registered schema for the product type of example
// (pointers are looked through), or nil when the type is on the row path.
// This sits on the hot store path, so it is two cached map lookups.
func ColumnarOf(example any) *ColumnSchema {
	t := reflect.TypeOf(example)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil {
		return nil
	}
	if s, ok := columnarByType.Load(t); ok {
		return s.(*ColumnSchema)
	}
	return nil
}

// ColumnarNamed returns the registered schema for a product type name, or
// nil. Servers resolve scan requests through this.
func ColumnarNamed(typeName string) *ColumnSchema {
	if s, ok := columnarByName.Load(typeName); ok {
		return s.(*ColumnSchema)
	}
	return nil
}

// MarshalColumns splits product value v (a slice of the schema's element
// type, optionally behind pointers) into per-field column chunks appended
// to the segment arena: the returned views are stable until seg is
// released, and each holds exactly the bytes the row path would emit for
// that field across all rows, in row order. Views are appended to cols
// (pass a reused cols[:0] to keep the call allocation-free) and the row
// count is returned.
func (s *ColumnSchema) MarshalColumns(seg *wire.Segment, v any, cols [][]byte) ([][]byte, int, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return cols, 0, fmt.Errorf("serde: MarshalColumns of nil %s", rv.Type())
		}
		rv = rv.Elem()
	}
	if rv.Type() != s.slice {
		return cols, 0, fmt.Errorf("serde: MarshalColumns of %s with schema for %s", rv.Type(), s.slice)
	}
	rows := rv.Len()
	scratch := wire.Acquire(256)
	defer scratch.Release()
	for f := range s.fields {
		b := scratch.B[:0]
		fd := &s.fields[f]
		for i := 0; i < rows; i++ {
			b = appendColValue(b, fd, rv.Index(i).Field(fd.index))
		}
		scratch.B = b
		cols = append(cols, seg.Append(b))
	}
	return cols, rows, nil
}

// AppendColumn appends the column-f encoding of v's rows to dst and returns
// the extended slice — the streaming half of MarshalColumns used by page
// builders that accumulate several products into one open page before
// sealing it.
func (s *ColumnSchema) AppendColumn(dst []byte, f int, v any) ([]byte, int, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return dst, 0, fmt.Errorf("serde: AppendColumn of nil %s", rv.Type())
		}
		rv = rv.Elem()
	}
	if rv.Type() != s.slice {
		return dst, 0, fmt.Errorf("serde: AppendColumn of %s with schema for %s", rv.Type(), s.slice)
	}
	if f < 0 || f >= len(s.fields) {
		return dst, 0, fmt.Errorf("serde: AppendColumn field %d of %d", f, len(s.fields))
	}
	rows := rv.Len()
	fd := &s.fields[f]
	for i := 0; i < rows; i++ {
		dst = appendColValue(dst, fd, rv.Index(i).Field(fd.index))
	}
	return dst, rows, nil
}

// appendColValue encodes one field value exactly as the row codec would;
// fv is a field of a slice element, so it is addressable.
func appendColValue(dst []byte, fd *ColumnField, fv reflect.Value) []byte {
	switch kind := fd.Kind; kind {
	case ColBool, ColInt, ColUint, ColFloat32, ColFloat64:
		return scalarLayouts[fd.op].encode(dst, fv.Addr().UnsafePointer())
	case ColString:
		sv := fv.String()
		dst = appendUvarint(dst, uint64(len(sv)))
		return append(dst, sv...)
	case ColBytes:
		bv := fv.Bytes()
		dst = appendUvarint(dst, uint64(len(bv)))
		return append(dst, bv...)
	default:
		panic("serde: invalid column kind " + kind.String())
	}
}

// UnmarshalColumns reassembles rows from column chunks into the slice
// pointed to by out (a *[]S for the schema's element type). cols is
// parallel to the schema's fields; nil entries are allowed and leave their
// field zero in every row, which is how projection scans materialize only
// the requested columns. The decode is borrowed: ColBytes fields alias
// their column chunk (the UnmarshalBorrow contract, DESIGN.md §12); all
// other kinds copy. The existing backing array of *out is reused when it
// has capacity.
func (s *ColumnSchema) UnmarshalColumns(cols [][]byte, rows int, out any) error {
	sl, err := s.targetSlice(out, rows)
	if err != nil {
		return err
	}
	if len(cols) != len(s.fields) {
		return fmt.Errorf("serde: UnmarshalColumns got %d columns, schema has %d", len(cols), len(s.fields))
	}
	for f, col := range cols {
		if col == nil {
			continue
		}
		if err := s.decodeColumnInto(f, col, rows, sl); err != nil {
			return err
		}
	}
	return nil
}

// UnmarshalColumn decodes a single column chunk into field f of the slice
// pointed to by out, leaving every other field zero — the narrowest
// reassembly a projection needs. Same borrow semantics as UnmarshalColumns.
func (s *ColumnSchema) UnmarshalColumn(f int, data []byte, rows int, out any) error {
	if f < 0 || f >= len(s.fields) {
		return fmt.Errorf("serde: UnmarshalColumn field %d of %d", f, len(s.fields))
	}
	sl, err := s.targetSlice(out, rows)
	if err != nil {
		return err
	}
	return s.decodeColumnInto(f, data, rows, sl)
}

// targetSlice prepares *out as a zeroed slice of length rows, reusing its
// backing array when possible, and returns it.
func (s *ColumnSchema) targetSlice(out any, rows int) (reflect.Value, error) {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() || rv.Elem().Type() != s.slice {
		return reflect.Value{}, fmt.Errorf("serde: columnar decode target must be *%s, got %T", s.slice, out)
	}
	sl := rv.Elem()
	if sl.Cap() >= rows {
		sl.SetLen(rows)
		for i := 0; i < rows; i++ {
			sl.Index(i).SetZero()
		}
	} else {
		sl.Set(reflect.MakeSlice(s.slice, rows, rows))
	}
	return sl, nil
}

func (s *ColumnSchema) decodeColumnInto(f int, data []byte, rows int, sl reflect.Value) error {
	fd := &s.fields[f]
	off := 0
	for i := 0; i < rows; i++ {
		fv := sl.Index(i).Field(fd.index)
		n, err := decodeColValue(data, off, fd, fv)
		if err != nil {
			return fmt.Errorf("column %s row %d: %w", fd.Name, i, err)
		}
		off = n
	}
	if off != len(data) {
		return fmt.Errorf("%w: column %s has %d trailing bytes", ErrCorrupt, fd.Name, len(data)-off)
	}
	return nil
}

// decodeColValue decodes one value at data[off:] into fv, a field of an
// element of the target slice, and returns the new offset. ColBytes fields
// become views into data (borrowed decode).
func decodeColValue(data []byte, off int, fd *ColumnField, fv reflect.Value) (int, error) {
	switch kind := fd.Kind; kind {
	case ColBool, ColInt, ColUint, ColFloat32, ColFloat64:
		return scalarLayouts[fd.op].decode(data, off, fv.Addr().UnsafePointer())
	case ColString, ColBytes:
		u, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
		}
		start := off + n
		if u > uint64(len(data)-start) {
			return 0, fmt.Errorf("%w: length %d exceeds input", ErrCorrupt, u)
		}
		end := start + int(u)
		if kind == ColString {
			fv.SetString(string(data[start:end]))
		} else {
			fv.SetBytes(data[start:end:end])
		}
		return end, nil
	default:
		return 0, fmt.Errorf("%w: column kind %s", ErrCorrupt, kind)
	}
}

// DecodeNumericColumn decodes a numeric column chunk into float64s for
// vectorized predicate evaluation (bools become 0/1; int and uint exactly
// up to 2^53). dst is reused: the result is dst[:0] grown to rows. String
// and bytes columns return ErrUnsupported.
func DecodeNumericColumn(kind ColKind, data []byte, rows int, dst []float64) ([]float64, error) {
	if !kind.Numeric() {
		return nil, fmt.Errorf("%w: %s column is not numeric", ErrUnsupported, kind)
	}
	dst = dst[:0]
	off := 0
	for i := 0; i < rows; i++ {
		switch kind {
		case ColBool:
			if off >= len(data) {
				return nil, fmt.Errorf("%w: truncated bool column", ErrCorrupt)
			}
			c := data[off]
			if c > 1 {
				return nil, fmt.Errorf("%w: bool byte %#x", ErrCorrupt, c)
			}
			dst = append(dst, float64(c))
			off++
		case ColInt:
			u, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad varint in int column", ErrCorrupt)
			}
			dst = append(dst, float64(unzigzag(u)))
			off += n
		case ColUint:
			u, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad varint in uint column", ErrCorrupt)
			}
			dst = append(dst, float64(u))
			off += n
		case ColFloat32:
			if len(data)-off < 4 {
				return nil, fmt.Errorf("%w: truncated float32 column", ErrCorrupt)
			}
			dst = append(dst, float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))))
			off += 4
		case ColFloat64:
			if len(data)-off < 8 {
				return nil, fmt.Errorf("%w: truncated float64 column", ErrCorrupt)
			}
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(data[off:])))
			off += 8
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes in %s column", ErrCorrupt, len(data)-off, kind)
	}
	return dst, nil
}

// DecodeStringColumn decodes a string column chunk into Go strings for
// string-predicate evaluation. dst is reused: the result is dst[:0] grown
// to rows, each element a copy (never a view into data). Non-string
// columns return ErrUnsupported.
func DecodeStringColumn(kind ColKind, data []byte, rows int, dst []string) ([]string, error) {
	if kind != ColString {
		return nil, fmt.Errorf("%w: %s column is not string", ErrUnsupported, kind)
	}
	dst = dst[:0]
	off := 0
	for i := 0; i < rows; i++ {
		u, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad varint in string column", ErrCorrupt)
		}
		start := off + n
		if u > uint64(len(data)-start) {
			return nil, fmt.Errorf("%w: string length %d exceeds input", ErrCorrupt, u)
		}
		end := start + int(u)
		dst = append(dst, string(data[start:end]))
		off = end
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes in string column", ErrCorrupt, len(data)-off)
	}
	return dst, nil
}

// FilterColumn appends the encodings of the rows with keep[i] true to dst
// and returns the extended slice — the server-side projection that turns a
// full column chunk into only its surviving rows. Fixed-width kinds copy
// contiguous runs; variable-width kinds walk the encoding.
func FilterColumn(kind ColKind, data []byte, rows int, keep []bool, dst []byte) ([]byte, error) {
	if len(keep) < rows {
		return nil, fmt.Errorf("serde: FilterColumn keep mask has %d of %d rows", len(keep), rows)
	}
	if w := kind.fixedWidth(); w > 0 {
		if len(data) != rows*w {
			return nil, fmt.Errorf("%w: %s column is %d bytes for %d rows", ErrCorrupt, kind, len(data), rows)
		}
		runStart := -1
		for i := 0; i <= rows; i++ {
			if i < rows && keep[i] {
				if runStart < 0 {
					runStart = i
				}
				continue
			}
			if runStart >= 0 {
				dst = append(dst, data[runStart*w:i*w]...)
				runStart = -1
			}
		}
		return dst, nil
	}
	off := 0
	for i := 0; i < rows; i++ {
		next, err := skipColValue(kind, data, off)
		if err != nil {
			return nil, err
		}
		if keep[i] {
			dst = append(dst, data[off:next]...)
		}
		off = next
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes in %s column", ErrCorrupt, len(data)-off, kind)
	}
	return dst, nil
}

// skipColValue returns the offset just past the value at data[off:].
func skipColValue(kind ColKind, data []byte, off int) (int, error) {
	switch kind {
	case ColInt, ColUint:
		_, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
		}
		return off + n, nil
	case ColString, ColBytes:
		u, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
		}
		start := off + n
		if u > uint64(len(data)-start) {
			return 0, fmt.Errorf("%w: length %d exceeds input", ErrCorrupt, u)
		}
		return start + int(u), nil
	default:
		if w := kind.fixedWidth(); w > 0 {
			if len(data)-off < w {
				return 0, fmt.Errorf("%w: truncated %s", ErrCorrupt, kind)
			}
			return off + w, nil
		}
		return 0, fmt.Errorf("%w: column kind %s", ErrCorrupt, kind)
	}
}

// appendUvarint appends the unsigned varint encoding of v — the
// package-level twin of Archive.putUvarint for column encoders.
func appendUvarint(dst []byte, v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	return append(dst, b[:n]...)
}
