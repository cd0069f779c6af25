package serde

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
)

type tree struct {
	Name string
	Kids []tree
	Up   *tree `serde:"-"`
	Next *tree
}

type graph map[string]graph

func TestCodecRecursiveTypes(t *testing.T) {
	in := tree{Name: "root", Kids: []tree{{Name: "a", Next: &tree{Name: "a'"}}, {Name: "b", Kids: []tree{{Name: "b1"}}}}}
	var out tree
	roundTrip(t, in, &out)
	if a, b := mustMarshal(t, in), mustMarshal(t, out); !bytes.Equal(a, b) || out.Kids[0].Next.Name != "a'" || out.Kids[1].Kids[0].Name != "b1" {
		t.Fatalf("tree round trip:\n in: %+v\nout: %+v", in, out)
	}
	g := graph{"x": graph{"y": graph{}}, "z": nil}
	var gout graph
	roundTrip(t, g, &gout)
	if len(gout) != 2 || len(gout["x"]) != 1 || gout["x"]["y"] == nil || len(gout["z"]) != 0 {
		t.Fatalf("graph round trip: %#v", gout)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

type customScalar int32

// Serialize stores the value negated, so the test can tell it ran.
func (c *customScalar) Serialize(ar *Archive) error {
	v := -int64(*c)
	if err := ar.Int64(&v); err != nil {
		return err
	}
	*c = customScalar(-v)
	return nil
}

type withCustomField struct {
	A int32
	B customScalar
}

type withCustomStruct struct {
	A int32
	B versionedBlob
}

// TestCodecCustomStaysOffFlatPath pins that Custom anywhere keeps a type
// off the offset path: an all-scalar struct that is itself Custom, and
// structs whose field is Custom, scalar-kinded or not.
func TestCodecCustomStaysOffFlatPath(t *testing.T) {
	for _, v := range []any{versionedBlob{}, withCustomField{}, withCustomStruct{}, customScalar(0), []withCustomField{}} {
		typ := reflect.TypeOf(v)
		if c := codecFor(typ); c.flat != nil {
			t.Errorf("%s compiled to the offset path", typ)
		}
	}
	if c := codecFor(reflect.TypeOf(particle{})); c.flat == nil {
		t.Error("particle did not compile to the offset path")
	}

	in := []withCustomField{{A: 1, B: 2}, {A: -3, B: 4}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// Count, then per row A zig-zagged and B negated by its Serialize.
	if want := []byte{2, 2, 3, 5, 7}; !bytes.Equal(data, want) {
		t.Fatalf("Marshal = % x, want % x", data, want)
	}
	var out []withCustomField
	if err := Unmarshal(data, &out); err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip = %+v, %v", out, err)
	}
}

func TestCodecNarrowIntOverflow(t *testing.T) {
	type narrow struct {
		A int8
		B uint16
	}
	wide := func(v any) []byte { return mustMarshal(t, v) }
	type wideRow struct {
		A int64
		B uint64
	}
	cases := []struct {
		name   string
		data   []byte
		target any
	}{
		{"int8 scalar", wide(int64(200)), new(int8)},
		{"uint16 scalar", wide(uint64(70000)), new(uint16)},
		{"int8 field", wide(wideRow{-129, 1}), new(narrow)},
		{"uint16 field", wide(wideRow{1, 1 << 16}), new(narrow)},
		{"uint16 field in slice", wide([]wideRow{{1, 2}, {3, 1 << 20}}), new([]narrow)},
		{"int8 in map", wide(map[string]int32{"k": 1000}), new(map[string]int8)},
	}
	for _, c := range cases {
		err := Unmarshal(c.data, c.target)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
	// In range still decodes.
	var ok narrow
	if err := Unmarshal(wide(wideRow{-128, 65535}), &ok); err != nil || ok != (narrow{-128, 65535}) {
		t.Fatalf("in-range decode = %+v, %v", ok, err)
	}
}

// TestCodecFlatSkipsUnexportedAndTagged pins the struct plan on the offset
// path: only exported, untagged fields are laid out, encoded and written.
func TestCodecFlatSkipsUnexportedAndTagged(t *testing.T) {
	type skipper struct {
		A    int32
		b    int64
		C    float32 `serde:"-"`
		D    uint8
		tail bool
	}
	c := codecFor(reflect.TypeOf(skipper{}))
	if c.flat == nil || len(c.flat.fields) != 2 {
		t.Fatalf("layout = %+v, want the 2 serialized fields", c.flat)
	}
	in := skipper{A: -7, b: 99, C: 1.5, D: 200, tail: true}
	byPtr, err := Marshal(&in) // addressable: the offset path
	if err != nil {
		t.Fatal(err)
	}
	byVal, err := Marshal(in) // not addressable: through a pooled copy
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Marshal(struct {
		A int32
		D uint8
	}{-7, 200})
	if !bytes.Equal(byPtr, want) || !bytes.Equal(byVal, want) {
		t.Fatalf("Marshal(&v) = % x, Marshal(v) = % x, want % x", byPtr, byVal, want)
	}
	out := skipper{b: 5, C: 2, tail: true}
	if err := Unmarshal(byPtr, &out); err != nil {
		t.Fatal(err)
	}
	if out != (skipper{A: -7, b: 5, C: 2, D: 200, tail: true}) {
		t.Fatalf("decode touched a skipped field: %+v", out)
	}
}

// TestCodecConcurrentFirstUse has eight goroutines use a never-seen type
// at once; run under -race it checks that compiling and publishing a codec
// is safe, and every goroutine must get the same codec and bytes.
func TestCodecConcurrentFirstUse(t *testing.T) {
	type leaf struct {
		X float64
		N uint16
	}
	type fresh struct {
		Name   string
		Leaves []leaf
		Self   *fresh
		Tags   map[string]int8
	}
	in := fresh{Name: "n", Leaves: []leaf{{1.5, 7}, {-2, 65535}}, Self: &fresh{Name: "inner"}, Tags: map[string]int8{"a": -1, "b": 1}}
	const workers = 8
	var (
		start    = make(chan struct{})
		wg       sync.WaitGroup
		compiled [workers]*codec
		out      [workers][]byte
		errs     [workers]error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			compiled[w] = codecFor(reflect.TypeOf(fresh{}))
			data, err := Marshal(&in)
			if err == nil {
				var back fresh
				if err = Unmarshal(data, &back); err == nil && (back.Self.Name != "inner" || !reflect.DeepEqual(in.Tags, back.Tags)) {
					t.Errorf("worker %d: round trip = %+v", w, back)
				}
			}
			out[w], errs[w] = data, err
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if compiled[w] != compiled[0] || !bytes.Equal(out[w], out[0]) {
			t.Fatalf("worker %d got a different codec or bytes", w)
		}
	}
}
