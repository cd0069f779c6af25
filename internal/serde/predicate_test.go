package serde

import (
	"errors"
	"strings"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/wire"
)

func TestPredicateValidate(t *testing.T) {
	good := And(GE("N", 1), Or(LT("E", 0.5), NE("W", 0)), EQ("OK", 1))
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate(good): %v", err)
	}
	bad := []Predicate{
		{},                                       // zero op
		And(),                                    // empty composite
		{Op: OpLT, Sub: []Predicate{GT("N", 1)}}, // leaf with children
		{Op: 99},                                 // unknown op
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad[%d] validated", i)
		}
	}
	// Depth and node limits.
	deep := LT("N", 1)
	for i := 0; i < MaxPredicateDepth; i++ {
		deep = And(deep)
	}
	if err := deep.Validate(); err == nil {
		t.Error("over-deep predicate validated")
	}
	var wide []Predicate
	for i := 0; i < MaxPredicateNodes; i++ {
		wide = append(wide, GT("N", float64(i)))
	}
	w := And(wide...)
	if err := w.Validate(); err == nil {
		t.Error("over-wide predicate validated")
	}
}

func TestPredicateBindAndEval(t *testing.T) {
	s, err := ColumnSchemaOf([]flatRec{})
	if err != nil {
		t.Fatal(err)
	}
	in := []flatRec{
		{OK: true, N: 10, E: 0.3, W: 5},
		{OK: false, N: 50, E: 0.9, W: -1},
		{OK: true, N: 50, E: 0.1, W: 2},
		{OK: true, N: -3, E: 0.5, W: 0},
	}
	p := And(GE("N", 10), Or(LT("E", 0.5), EQ("OK", 0)), NE("W", 0))
	bound, err := p.Bind(s)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := bound.CheckBound(s); err != nil {
		t.Fatalf("CheckBound: %v", err)
	}

	// Decode the marked columns and evaluate.
	seg := new(wire.Segment)
	defer seg.Release()
	cols, rows, err := s.MarshalColumns(seg, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	mark := make([]bool, s.NumFields())
	bound.MarkColumns(mark)
	for _, name := range []string{"N", "E", "OK", "W"} {
		if !mark[s.FieldIndex(name)] {
			t.Errorf("column %s not marked", name)
		}
	}
	if mark[s.FieldIndex("Tag")] {
		t.Error("unused column Tag marked")
	}
	vecs := make([][]float64, s.NumFields())
	for f, m := range mark {
		if !m {
			continue
		}
		vecs[f], err = DecodeNumericColumn(s.Field(f).Kind, cols[f], rows, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	out := make([]bool, rows)
	if err := bound.Eval(vecs, rows, out); err != nil {
		t.Fatalf("Eval: %v", err)
	}
	for i, r := range in {
		want := r.N >= 10 && (r.E < 0.5 || !r.OK) && r.W != 0
		if out[i] != want {
			t.Errorf("row %d = %v, want %v (%+v)", i, out[i], want, r)
		}
	}

	// Bind failures: unknown field, non-numeric field.
	if _, err := LT("Nope", 1).Bind(s); err == nil {
		t.Error("bind of unknown field succeeded")
	}
	if _, err := LT("Tag", 1).Bind(s); !errors.Is(err, ErrUnsupported) {
		t.Errorf("bind of string field err = %v", err)
	}
	// A wire predicate with an out-of-range column index is rejected.
	evil := Predicate{Op: OpLT, Col: 99, Const: 1}
	if err := evil.CheckBound(s); err == nil {
		t.Error("out-of-range column passed CheckBound")
	}
	// Eval without the needed column decoded fails cleanly.
	if err := bound.Eval(make([][]float64, s.NumFields()), rows, out); err == nil {
		t.Error("eval without columns succeeded")
	}
}

func TestPredicateStringEquality(t *testing.T) {
	s, err := ColumnSchemaOf([]flatRec{})
	if err != nil {
		t.Fatal(err)
	}
	in := []flatRec{
		{N: 1, Tag: "numu"},
		{N: 2, Tag: "nue"},
		{N: 3, Tag: "numu"},
		{N: 4, Tag: ""},
	}
	p := And(EqStr("Tag", "numu"), GE("N", 2))
	bound, err := p.Bind(s)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := bound.CheckBound(s); err != nil {
		t.Fatalf("CheckBound: %v", err)
	}

	seg := new(wire.Segment)
	defer seg.Release()
	cols, rows, err := s.MarshalColumns(seg, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	mark := make([]bool, s.NumFields())
	bound.MarkColumns(mark)
	if !mark[s.FieldIndex("Tag")] || !mark[s.FieldIndex("N")] {
		t.Fatalf("marked = %v", mark)
	}
	vecs := make([][]float64, s.NumFields())
	strs := make([][]string, s.NumFields())
	for f, m := range mark {
		if !m {
			continue
		}
		if k := s.Field(f).Kind; k == ColString {
			strs[f], err = DecodeStringColumn(k, cols[f], rows, nil)
		} else {
			vecs[f], err = DecodeNumericColumn(k, cols[f], rows, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	out := make([]bool, rows)
	if err := bound.EvalCols(vecs, strs, rows, out); err != nil {
		t.Fatalf("EvalCols: %v", err)
	}
	for i, r := range in {
		if want := r.Tag == "numu" && r.N >= 2; out[i] != want {
			t.Errorf("row %d = %v, want %v (%+v)", i, out[i], want, r)
		}
	}

	// NeStr is the complement on the string side.
	ne, err := NeStr("Tag", "numu").Bind(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := ne.EvalCols(nil, strs, rows, out); err != nil {
		t.Fatalf("EvalCols(NeStr): %v", err)
	}
	for i, r := range in {
		if want := r.Tag != "numu"; out[i] != want {
			t.Errorf("NeStr row %d = %v, want %v", i, out[i], want)
		}
	}

	// The wire round trip preserves the string constant and stays bound.
	data, err := Marshal(bound)
	if err != nil {
		t.Fatal(err)
	}
	var back Predicate
	if err := Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.CheckBound(s); err != nil {
		t.Fatalf("CheckBound after wire trip: %v", err)
	}
	if back.String() != bound.String() || !strings.Contains(back.String(), `Tag ==s "numu"`) {
		t.Errorf("wire trip String() = %q, want %q", back.String(), bound.String())
	}

	// Kind mismatches are rejected on both ends of the wire.
	if _, err := EqStr("N", "x").Bind(s); !errors.Is(err, ErrUnsupported) {
		t.Errorf("EqStr on numeric field bind err = %v", err)
	}
	if _, err := EqStr("Blob", "x").Bind(s); !errors.Is(err, ErrUnsupported) {
		t.Errorf("EqStr on bytes field bind err = %v", err)
	}
	evil := Predicate{Op: OpEqStr, Col: uint32(s.FieldIndex("N")), Str: "x"}
	if err := evil.CheckBound(s); !errors.Is(err, ErrUnsupported) {
		t.Errorf("string op on numeric column passed CheckBound: %v", err)
	}
	// Eval without the string column decoded fails cleanly.
	if err := ne.EvalCols(vecs, make([][]string, s.NumFields()), rows, out); err == nil {
		t.Error("eval without string column succeeded")
	}
}

func TestPredicateWireRoundTrip(t *testing.T) {
	s, err := ColumnSchemaOf([]flatRec{})
	if err != nil {
		t.Fatal(err)
	}
	p := And(GE("N", 10), Or(LT("E", F32(0.08)), GT("W", 2.5)))
	bound, err := p.Bind(s)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(bound)
	if err != nil {
		t.Fatalf("Marshal(predicate): %v", err)
	}
	var back Predicate
	if err := Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal(predicate): %v", err)
	}
	if err := back.CheckBound(s); err != nil {
		t.Fatalf("CheckBound after wire trip: %v", err)
	}
	if back.String() != bound.String() {
		t.Errorf("wire trip changed predicate: %s != %s", back.String(), bound.String())
	}
	if !strings.Contains(back.String(), "N >= 10") {
		t.Errorf("String() = %q", back.String())
	}
}
