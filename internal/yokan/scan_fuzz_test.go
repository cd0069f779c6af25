package yokan

import (
	"bytes"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/serde"
)

// FuzzScanRequest feeds untrusted bytes through the scan provider's decode
// path — the request, then its predicate — and runs every accepted request
// against a map backend holding a few pages. It must never panic, and an
// accepted request must get the same answer twice: a scan keeps no state
// between calls.
func FuzzScanRequest(f *testing.F) {
	db, seeds := scanFuzzFixture(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var (
			req  scanReq
			pred serde.Predicate
		)
		havePred, err := decodeScanReq(payload, &req, &pred)
		if err != nil {
			return
		}
		first, err1 := scanPages(db, &req, pred, havePred)
		second, err2 := scanPages(db, &req, pred, havePred)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("same request answered %v, then %v", err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("same request failed as %q, then %q", err1, err2)
			}
			return
		}
		enc1, err := encodeResp(first)
		if err != nil {
			t.Fatal(err)
		}
		enc2, err := encodeResp(second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("same request answered differently:\n%+v\n%+v", first, second)
		}
	})
}

// scanFuzzFixture opens a map backend holding the scan tests' pages and
// returns it with the encoded requests that seed FuzzScanRequest.
func scanFuzzFixture(tb testing.TB) (Backend, [][]byte) {
	schema, err := serde.ColumnSchemaOf([]scanRec{})
	if err != nil {
		tb.Fatal(err)
	}
	db, err := OpenBackend(DBConfig{Name: "products", Type: "map"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	group := []byte("!cp!grp1#vector<scanRec>\x00")
	keys, vals := buildPages(tb, schema, group, scanFixture(), 3)
	for i := range keys {
		if err := db.Put(keys[i], vals[i]); err != nil {
			tb.Fatal(err)
		}
	}

	marshal := func(v any) []byte {
		b, err := serde.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	bind := func(p serde.Predicate) []byte {
		bound, err := p.Bind(schema)
		if err != nil {
			tb.Fatal(err)
		}
		return marshal(bound)
	}
	a, b, tag := uint32(schema.FieldIndex("A")), uint32(schema.FieldIndex("B")), uint32(schema.FieldIndex("Tag"))
	all := ^uint64(0)
	full := marshal(scanReq{DB: "products", Group: group, Cols: []uint32{a, tag}, Hi: all,
		Pred: bind(serde.And(serde.GE("A", 50), serde.LT("B", 8)))})
	return db, [][]byte{
		full,
		marshal(scanReq{Group: group, Cols: []uint32{a}, Lo: 5, Hi: 7}),
		marshal(scanReq{Group: group, Cols: []uint32{b}, Hi: all, Pages: 1}),
		marshal(scanReq{Group: group, Cols: []uint32{tag}, Hi: all, Pages: 2, From: keys[len(keys)/2]}),
		marshal(scanReq{Group: group, Hi: all, Pred: bind(serde.Or(serde.EqStr("Tag", "c"), serde.NE("A", 0)))}),
		marshal(scanReq{Group: group, Cols: []uint32{a}, Hi: all, Pred: bind(serde.NeStr("Tag", "b"))}),
		marshal(scanReq{Group: []byte("!cp!nope"), Cols: []uint32{0}, Hi: all}),
		// Rejected or failing: an invalid predicate op, a column id out of
		// range, a column with no page, and truncated or padded requests.
		marshal(scanReq{Group: group, Hi: all, Pred: marshal(serde.Predicate{Op: 99})}),
		marshal(scanReq{Group: group, Cols: []uint32{uint32(maxColID)}, Hi: all}),
		marshal(scanReq{Group: group, Cols: []uint32{7}, Hi: all}),
		full[:len(full)/2],
		append(append([]byte(nil), full...), 0),
		nil,
	}
}
