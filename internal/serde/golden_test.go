package serde_test

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/nova"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/wire"
)

type goldenNode struct {
	V    int32
	Next *goldenNode
}

type goldenCustomField struct {
	N    int
	Blob serde.VersionedBlob
	Tail string
}

type goldenPtrs struct {
	Nil  *serde.Particle
	Some *serde.Particle
}

func goldenEverything() serde.Everything {
	return serde.Everything{
		B: true, I8: -8, I16: -1600, I32: -320000, I64: -64,
		U8: 8, U16: 1600, U32: 320000, U64: 1<<64 - 1,
		F32: 3.14, F64: -2.71828,
		S:    "hello, HEPnOS",
		Raw:  []byte{0, 1, 2, 255},
		Ints: []int{-1, 0, 1 << 40},
		Arr:  [3]uint16{1, 2, 3},
		M:    map[string]int32{"a": 1, "b": -2},
		Ptr:  &serde.Particle{X: 1, Y: 2, Z: 3},
		Nest: serde.Particle{X: 4, Y: 5, Z: 6},
	}
}

// goldenCases are the stored-product shapes whose bytes must never change:
// every product already in a database was written with them. The hex was
// produced by the reflective per-value encoder the compiled codecs replaced.
var goldenCases = []struct {
	name string
	v    any
	hex  string
}{
	{"nova.Slice x4", repEvent().Slices, "" +
		"0400f0013333f33f9a99193f3d0a573f8fc2f53d52b89e3e0000f1429a199bc300805e44ec51783f5466665a436f12833c00009c43" +
		"01f2013333f33f9a99193f3d0a573f8fc2f53d52b89e3e0000f1429a199bc300805e44ec51783f5466665a436f12833c00009c43" +
		"02f4013333f33f9a99193f3d0a573f8fc2f53d52b89e3e0000f1429a199bc300805e44ec51783f5466665a436f12833c00009c43" +
		"03f6013333f33f9a99193f3d0a573f8fc2f53d52b89e3e0000f1429a199bc300805e44ec51783f5466665a436f12833c00009c43"},
	{"everything", goldenEverything(), "" +
		"010fff18ff87277f08c00c80c413ffffffffffffffffff01c3f5484090f7" +
		"aa9509bf05c00d68656c6c6f2c204845506e4f5304000102ff0301008080" +
		"8080804001020302016102016203010000803f0000004000004040000080" +
		"400000a0400000c040"},
	{"custom elements", []serde.VersionedBlob{{A: 3, B: 4}, {A: 5, B: 6}}, "0204030605"},
	{"custom field", goldenCustomField{N: -3, Blob: serde.VersionedBlob{A: 1, B: 2}, Tail: "t"}, "0502010174"},
	{"nil and non-nil pointer", goldenPtrs{Some: &serde.Particle{X: 1, Y: -2, Z: 0.5}}, "0001 0000803f000000c00000003f"},
	{"sorted map", map[string]int{"z": 26, "a": 1, "m": 13, "q": 17}, "04016102016d1a017122017a34"},
	{"recursive list", &goldenNode{V: 1, Next: &goldenNode{V: -2, Next: &goldenNode{V: 300}}}, "0201 03 01d804 00"},
}

func TestWireFormatGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			want := strings.ReplaceAll(c.hex, " ", "")
			got, err := serde.Marshal(c.v)
			if err != nil {
				t.Fatal(err)
			}
			if hex.EncodeToString(got) != want {
				t.Fatalf("Marshal = %x\nwant      %s", got, want)
			}
			// The bytes decode back to a value that encodes to them again.
			typ := reflect.TypeOf(c.v)
			for typ.Kind() == reflect.Pointer {
				typ = typ.Elem()
			}
			out := reflect.New(typ)
			if err := serde.Unmarshal(got, out.Interface()); err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			again, err := serde.Marshal(out.Interface())
			if err != nil {
				t.Fatal(err)
			}
			if hex.EncodeToString(again) != want {
				t.Fatalf("re-Marshal = %x\nwant         %s", again, want)
			}
		})
	}

	// Column chunks of the same 4-slice product: one per field, the row
	// bytes of that field across the rows.
	schema, err := serde.ColumnSchemaOf([]nova.Slice{})
	if err != nil {
		t.Fatal(err)
	}
	var seg wire.Segment
	defer seg.Release()
	cols, rows, err := schema.MarshalColumns(&seg, repEvent().Slices, nil)
	if err != nil || rows != 4 {
		t.Fatalf("MarshalColumns: rows=%d err=%v", rows, err)
	}
	var got []string
	for _, c := range cols {
		got = append(got, hex.EncodeToString(c))
	}
	wantCols := "00010203|f001f201f401f601|" +
		"3333f33f3333f33f3333f33f3333f33f|9a99193f9a99193f9a99193f9a99193f|" +
		"3d0a573f3d0a573f3d0a573f3d0a573f|8fc2f53d8fc2f53d8fc2f53d8fc2f53d|" +
		"52b89e3e52b89e3e52b89e3e52b89e3e|0000f1420000f1420000f1420000f142|" +
		"9a199bc39a199bc39a199bc39a199bc3|00805e4400805e4400805e4400805e44|" +
		"ec51783fec51783fec51783fec51783f|54545454|" +
		"66665a4366665a4366665a4366665a43|6f12833c6f12833c6f12833c6f12833c|" +
		"00009c4300009c4300009c4300009c43"
	if strings.Join(got, "|") != wantCols {
		t.Fatalf("columns = %s\nwant      %s", strings.Join(got, "|"), wantCols)
	}
}
