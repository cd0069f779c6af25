package serde

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/wire"
)

// flatRec exercises every columnar kind.
type flatRec struct {
	OK    bool
	N     int32
	Seq   uint64
	E     float32
	W     float64
	Tag   string
	Blob  []byte
	Extra string `serde:"-"`
}

func flatRecs() []flatRec {
	return []flatRec{
		{OK: true, N: -42, Seq: 7, E: 3.25, W: -2.5, Tag: "a", Blob: []byte{1, 2}},
		{OK: false, N: 0, Seq: math.MaxUint64, E: float32(math.Inf(1)), W: 0, Tag: "", Blob: nil},
		{OK: true, N: 1 << 30, Seq: 1, E: -0.125, W: math.Pi, Tag: "long tag value", Blob: []byte{0xff}},
	}
}

func TestColumnSchemaDerivation(t *testing.T) {
	s, err := ColumnSchemaOf([]flatRec{})
	if err != nil {
		t.Fatalf("ColumnSchemaOf: %v", err)
	}
	wantNames := []string{"OK", "N", "Seq", "E", "W", "Tag", "Blob"}
	wantKinds := []ColKind{ColBool, ColInt, ColUint, ColFloat32, ColFloat64, ColString, ColBytes}
	if s.NumFields() != len(wantNames) {
		t.Fatalf("NumFields = %d, want %d", s.NumFields(), len(wantNames))
	}
	for i := range wantNames {
		f := s.Field(i)
		if f.Name != wantNames[i] || f.Kind != wantKinds[i] {
			t.Errorf("field %d = %s %s, want %s %s", i, f.Name, f.Kind, wantNames[i], wantKinds[i])
		}
		if s.FieldIndex(f.Name) != i {
			t.Errorf("FieldIndex(%s) = %d, want %d", f.Name, s.FieldIndex(f.Name), i)
		}
	}
	if s.TypeName() != "vector<flatRec>" {
		t.Errorf("TypeName = %q", s.TypeName())
	}
	// Pointers to the product type resolve to the same schema.
	s2, err := ColumnSchemaOf(&[]flatRec{})
	if err != nil || s2 != s {
		t.Fatalf("pointer derivation: %v, same=%v", err, s2 == s)
	}

	// Ineligible shapes fall back to the row path with ErrUnsupported.
	for _, bad := range []any{
		flatRec{},                      // not a slice
		[]int{},                        // element not a struct
		[]everything{},                 // nested/non-scalar fields
		[]versionedBlob{},              // custom serializer
		[]struct{ M map[string]int }{}, // map field
	} {
		if _, err := ColumnSchemaOf(bad); !errors.Is(err, ErrUnsupported) {
			t.Errorf("ColumnSchemaOf(%T) err = %v, want ErrUnsupported", bad, err)
		}
	}
}

func TestColumnsRoundTrip(t *testing.T) {
	s, err := ColumnSchemaOf([]flatRec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]flatRec{flatRecs(), {}, flatRecs()[:1]} {
		seg := new(wire.Segment)
		cols, rows, err := s.MarshalColumns(seg, in, nil)
		if err != nil {
			t.Fatalf("MarshalColumns: %v", err)
		}
		if rows != len(in) || len(cols) != s.NumFields() {
			t.Fatalf("rows=%d cols=%d", rows, len(cols))
		}

		// Reassembled rows must equal the input exactly.
		var out []flatRec
		if err := s.UnmarshalColumns(cols, rows, &out); err != nil {
			t.Fatalf("UnmarshalColumns: %v", err)
		}
		if !reflect.DeepEqual(normalize(in), normalize(out)) {
			t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
		}

		// The row encoding is the interleaving of the columns: rebuilding
		// rowcount + row-major field bytes from the column chunks must
		// reproduce Marshal byte for byte.
		rowBytes, err := Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt := appendUvarint(nil, uint64(rows))
		offs := make([]int, len(cols))
		for r := 0; r < rows; r++ {
			for f, col := range cols {
				next, err := skipColValue(s.Field(f).Kind, col, offs[f])
				if err != nil {
					t.Fatalf("skip col %d row %d: %v", f, r, err)
				}
				rebuilt = append(rebuilt, col[offs[f]:next]...)
				offs[f] = next
			}
		}
		if !bytes.Equal(rebuilt, rowBytes) {
			t.Fatalf("column interleave != row encoding:\ncols=%x\n row=%x", rebuilt, rowBytes)
		}
		seg.Release()
	}
}

// normalize maps nil and empty byte/string representations to a canonical
// form: the codec does not distinguish nil from empty slices.
func normalize(in []flatRec) []flatRec {
	out := make([]flatRec, len(in))
	copy(out, in)
	for i := range out {
		if len(out[i].Blob) == 0 {
			out[i].Blob = nil
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func TestUnmarshalColumnProjection(t *testing.T) {
	s, err := ColumnSchemaOf([]flatRec{})
	if err != nil {
		t.Fatal(err)
	}
	in := flatRecs()
	seg := new(wire.Segment)
	defer seg.Release()
	cols, rows, err := s.MarshalColumns(seg, in, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Single-column reassembly leaves every other field zero.
	ei := s.FieldIndex("E")
	var proj []flatRec
	if err := s.UnmarshalColumn(ei, cols[ei], rows, &proj); err != nil {
		t.Fatalf("UnmarshalColumn: %v", err)
	}
	for i := range proj {
		if proj[i].E != in[i].E {
			t.Errorf("row %d E = %v, want %v", i, proj[i].E, in[i].E)
		}
		if proj[i].N != 0 || proj[i].Tag != "" || proj[i].Blob != nil {
			t.Errorf("row %d has non-projected fields set: %+v", i, proj[i])
		}
	}

	// UnmarshalColumns with nil entries behaves the same, and reuses the
	// target's backing array (stale fields must be zeroed, not leak).
	sparse := make([][]byte, len(cols))
	sparse[ei] = cols[ei]
	reuse := append([]flatRec(nil), in...) // full stale values
	if err := s.UnmarshalColumns(sparse, rows, &reuse); err != nil {
		t.Fatal(err)
	}
	for i := range reuse {
		if reuse[i].E != in[i].E || reuse[i].Seq != 0 || reuse[i].Tag != "" {
			t.Errorf("row %d after sparse reuse decode: %+v", i, reuse[i])
		}
	}

	// Decode target must be a pointer to the schema's slice type.
	var wrong []particle
	if err := s.UnmarshalColumn(ei, cols[ei], rows, &wrong); err == nil {
		t.Error("decode into wrong slice type succeeded")
	}
}

func TestColumnsBorrowAliases(t *testing.T) {
	s, err := ColumnSchemaOf([]flatRec{})
	if err != nil {
		t.Fatal(err)
	}
	in := flatRecs()
	seg := new(wire.Segment)
	defer seg.Release()
	cols, rows, err := s.MarshalColumns(seg, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	bi := s.FieldIndex("Blob")
	var out []flatRec
	if err := s.UnmarshalColumns(cols, rows, &out); err != nil {
		t.Fatal(err)
	}
	col := cols[bi]
	for i := range out {
		if len(out[i].Blob) == 0 {
			continue
		}
		p := &out[i].Blob[0]
		aliased := false
		for j := range col {
			if p == &col[j] {
				aliased = true
				break
			}
		}
		if !aliased {
			t.Errorf("row %d Blob does not alias its column chunk", i)
		}
	}
}

func TestColumnsCorruptInputs(t *testing.T) {
	s, err := ColumnSchemaOf([]flatRec{})
	if err != nil {
		t.Fatal(err)
	}
	ni := s.FieldIndex("N")
	var out []flatRec
	// Truncated varint.
	if err := s.UnmarshalColumn(ni, []byte{0x80}, 1, &out); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated varint err = %v", err)
	}
	// Trailing bytes.
	if err := s.UnmarshalColumn(ni, []byte{0x02, 0x02}, 1, &out); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes err = %v", err)
	}
	// Bad bool byte.
	oi := s.FieldIndex("OK")
	if err := s.UnmarshalColumn(oi, []byte{2}, 1, &out); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad bool err = %v", err)
	}
	// Over-long bytes length.
	bi := s.FieldIndex("Blob")
	if err := s.UnmarshalColumn(bi, []byte{0x10, 0x01}, 1, &out); !errors.Is(err, ErrCorrupt) {
		t.Errorf("overlong bytes err = %v", err)
	}
	if _, err := DecodeNumericColumn(ColFloat32, []byte{1, 2, 3}, 1, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short float32 err = %v", err)
	}
	if _, err := DecodeNumericColumn(ColString, nil, 0, nil); !errors.Is(err, ErrUnsupported) {
		t.Errorf("string numeric decode err = %v", err)
	}
}

func TestRegisterColumnar(t *testing.T) {
	if got := ColumnarOf([]flatRec{}); got != nil && ColumnarNamed("vector<flatRec>") == nil {
		t.Fatal("inconsistent registry state")
	}
	s, err := RegisterColumnar([]flatRec{})
	if err != nil {
		t.Fatalf("RegisterColumnar: %v", err)
	}
	if got := ColumnarOf([]flatRec{}); got != s {
		t.Error("ColumnarOf did not return registered schema")
	}
	if got := ColumnarOf(&[]flatRec{}); got != s {
		t.Error("ColumnarOf through pointer did not return registered schema")
	}
	if got := ColumnarNamed(s.TypeName()); got != s {
		t.Error("ColumnarNamed did not return registered schema")
	}
	if got := ColumnarOf([]particle{}); got != nil {
		t.Error("unregistered type reported columnar")
	}
	if _, err := RegisterColumnar([]everything{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("RegisterColumnar(everything) err = %v", err)
	}
}

func TestDecodeNumericAndFilter(t *testing.T) {
	s, err := ColumnSchemaOf([]flatRec{})
	if err != nil {
		t.Fatal(err)
	}
	in := flatRecs()
	seg := new(wire.Segment)
	defer seg.Release()
	cols, rows, err := s.MarshalColumns(seg, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < s.NumFields(); f++ {
		fd := s.Field(f)
		if !fd.Kind.Numeric() {
			continue
		}
		vec, err := DecodeNumericColumn(fd.Kind, cols[f], rows, nil)
		if err != nil {
			t.Fatalf("DecodeNumericColumn(%s): %v", fd.Name, err)
		}
		for i := range in {
			want := numericField(in[i], fd.Name)
			if vec[i] != want && !(math.IsNaN(vec[i]) && math.IsNaN(want)) {
				t.Errorf("%s row %d = %v, want %v", fd.Name, i, vec[i], want)
			}
		}
	}

	// Filtering every column down to the kept rows must equal marshaling
	// only those rows.
	keep := []bool{true, false, true}
	var kept []flatRec
	for i, k := range keep {
		if k {
			kept = append(kept, in[i])
		}
	}
	keptSeg := new(wire.Segment)
	defer keptSeg.Release()
	wantCols, _, err := s.MarshalColumns(keptSeg, kept, nil)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < s.NumFields(); f++ {
		got, err := FilterColumn(s.Field(f).Kind, cols[f], rows, keep, nil)
		if err != nil {
			t.Fatalf("FilterColumn(%s): %v", s.Field(f).Name, err)
		}
		if !bytes.Equal(got, wantCols[f]) {
			t.Errorf("FilterColumn(%s) = %x, want %x", s.Field(f).Name, got, wantCols[f])
		}
	}
}

func numericField(r flatRec, name string) float64 {
	switch name {
	case "OK":
		if r.OK {
			return 1
		}
		return 0
	case "N":
		return float64(r.N)
	case "Seq":
		return float64(r.Seq)
	case "E":
		return float64(r.E)
	case "W":
		return r.W
	default:
		panic("not numeric: " + name)
	}
}
