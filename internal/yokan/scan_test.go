package yokan

import (
	"context"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/wire"
)

// scanRec is the columnar product type of the scan tests.
type scanRec struct {
	A   int32
	B   float32
	Tag string
}

// scanEvent is one event's product in the fixture.
type scanEvent struct {
	ev   uint64
	rows []scanRec
}

// buildPages packs the fixture events into page families of perPage events
// each, exactly as the core page builder does, and returns the KV pairs to
// store.
func buildPages(t testing.TB, schema *serde.ColumnSchema, group []byte, events []scanEvent, perPage int) (keys, vals [][]byte) {
	t.Helper()
	for start := 0; start < len(events); start += perPage {
		end := start + perPage
		if end > len(events) {
			end = len(events)
		}
		page := events[start:end]
		first := page[0].ev
		var meta PageMeta
		cols := make([][]byte, schema.NumFields())
		for _, pe := range page {
			rowBytes, err := serde.Marshal(pe.rows)
			if err != nil {
				t.Fatal(err)
			}
			meta.FullBytes += uint64(len(rowBytes))
			var rows int
			for f := 0; f < schema.NumFields(); f++ {
				cols[f], rows, err = schema.AppendColumn(cols[f], f, pe.rows)
				if err != nil {
					t.Fatal(err)
				}
			}
			meta.Events = append(meta.Events, PageEvent{Event: pe.ev, Rows: uint64(rows)})
			meta.Rows += uint64(rows)
		}
		for f := 0; f < schema.NumFields(); f++ {
			keys = append(keys, AppendPageKey(nil, group, byte(f), first))
			vals = append(vals, AppendFieldPage(nil, schema.Field(f).Kind, int(meta.Rows), cols[f]))
		}
		keys = append(keys, AppendPageKey(nil, group, RowMetaCol, first))
		vals = append(vals, meta.AppendMeta(nil))
	}
	return keys, vals
}

func scanFixture() []scanEvent {
	var events []scanEvent
	for ev := uint64(0); ev < 20; ev++ {
		var rows []scanRec
		for r := 0; r < int(ev%4); r++ {
			rows = append(rows, scanRec{
				A:   int32(ev*10 + uint64(r)),
				B:   float32(ev) / 2,
				Tag: string(rune('a' + ev%26)),
			})
		}
		events = append(events, scanEvent{ev: ev, rows: rows})
	}
	return events
}

func TestScanPushdown(t *testing.T) {
	schema, err := serde.ColumnSchemaOf([]scanRec{})
	if err != nil {
		t.Fatal(err)
	}
	cli, db, prov := newService(t, "inproc", []DBConfig{{Name: "products"}})
	ctx := context.Background()
	group := []byte("!cp!grp1#vector<scanRec>\x00")
	events := scanFixture()
	keys, vals := buildPages(t, schema, group, events, 3)
	if err := cli.PutMulti(ctx, db, keys, vals); err != nil {
		t.Fatal(err)
	}

	pred, err := serde.And(serde.GE("A", 50), serde.LT("B", 8)).Bind(schema)
	if err != nil {
		t.Fatal(err)
	}
	aCol := uint32(schema.FieldIndex("A"))
	tagCol := uint32(schema.FieldIndex("Tag"))

	// Expected rows, client-side.
	var wantEvents []uint64
	var wantRows []scanRec
	for _, pe := range events {
		for _, r := range pe.rows {
			if r.A >= 50 && r.B < 8 {
				wantEvents = append(wantEvents, pe.ev)
				wantRows = append(wantRows, r)
			}
		}
	}
	if len(wantRows) == 0 {
		t.Fatal("fixture selects nothing")
	}

	res, err := cli.Scan(ctx, db, ScanRequest{
		Group: group, Pred: pred, Cols: []uint32{aCol, tagCol}, Hi: ^uint64(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.More) != 0 {
		t.Fatalf("unexpected resume cursor with default page budget")
	}
	checkScanResult(t, schema, res, wantEvents, wantRows, int(aCol), int(tagCol))
	if res.RowsScanned == 0 || res.FullBytes <= res.ReturnedBytes {
		t.Errorf("accounting: scanned=%d full=%d returned=%d",
			res.RowsScanned, res.FullBytes, res.ReturnedBytes)
	}

	// Paged drain with a one-page budget must agree with the single call.
	var gotEvents []uint64
	var from []byte
	calls := 0
	for {
		res, err := cli.Scan(ctx, db, ScanRequest{
			Group: group, Pred: pred, Cols: []uint32{aCol},
			Hi: ^uint64(0), Pages: 1, From: from,
		})
		if err != nil {
			t.Fatal(err)
		}
		gotEvents = append(gotEvents, res.Events...)
		calls++
		if len(res.More) == 0 {
			break
		}
		from = res.More
	}
	if calls < 2 {
		t.Fatalf("expected multiple paged calls, got %d", calls)
	}
	if len(gotEvents) != len(wantEvents) {
		t.Fatalf("paged drain found %d rows, want %d", len(gotEvents), len(wantEvents))
	}

	// Event-range restriction without a predicate.
	res, err = cli.Scan(ctx, db, ScanRequest{Group: group, Cols: []uint32{aCol}, Lo: 5, Hi: 7})
	if err != nil {
		t.Fatal(err)
	}
	var wantRange int
	for _, pe := range events {
		if pe.ev >= 5 && pe.ev <= 7 {
			wantRange += len(pe.rows)
		}
	}
	if int(res.RowsMatched) != wantRange || len(res.Events) != wantRange {
		t.Fatalf("range scan matched %d rows, want %d", res.RowsMatched, wantRange)
	}

	// Server-side counters moved.
	if metricSum(providerMetrics(prov), obs.MetricYokanOps, "op", "scan") == 0 ||
		prov.scanPagesTotal.Load() == 0 || prov.scanRowsMatched.Load() == 0 || prov.scanBytesSaved.Load() == 0 {
		t.Errorf("scan counters not accounted")
	}

	// A scan of an unknown group is empty, not an error.
	empty, err := cli.Scan(ctx, db, ScanRequest{Group: []byte("!cp!nope"), Cols: []uint32{0}, Hi: ^uint64(0)})
	if err != nil || len(empty.Events) != 0 || empty.PagesScanned != 0 {
		t.Fatalf("empty group scan = %+v, %v", empty, err)
	}

	// A malformed predicate is rejected server-side.
	if _, err := cli.Scan(ctx, db, ScanRequest{
		Group: group, Pred: serde.Predicate{Op: 99}, Hi: ^uint64(0),
	}); err == nil {
		t.Error("invalid predicate accepted")
	}
}

// checkScanResult reassembles the returned columns and compares them to
// the expected rows, byte-identically via re-marshal.
func checkScanResult(t *testing.T, schema *serde.ColumnSchema, res *ScanResult, wantEvents []uint64, wantRows []scanRec, aCol, tagCol int) {
	t.Helper()
	if len(res.Events) != len(wantEvents) {
		t.Fatalf("got %d surviving rows, want %d", len(res.Events), len(wantEvents))
	}
	for i := range wantEvents {
		if res.Events[i] != wantEvents[i] {
			t.Fatalf("event[%d] = %d, want %d", i, res.Events[i], wantEvents[i])
		}
	}
	rows := len(wantRows)
	var gotA, gotTag []scanRec
	if err := schema.UnmarshalColumn(aCol, res.Cols[0], rows, &gotA); err != nil {
		t.Fatalf("decode A column: %v", err)
	}
	if err := schema.UnmarshalColumn(tagCol, res.Cols[1], rows, &gotTag); err != nil {
		t.Fatalf("decode Tag column: %v", err)
	}
	for i, want := range wantRows {
		if gotA[i].A != want.A || gotTag[i].Tag != want.Tag {
			t.Errorf("row %d = (A=%d, Tag=%q), want (A=%d, Tag=%q)",
				i, gotA[i].A, gotTag[i].Tag, want.A, want.Tag)
		}
	}
}

func TestPageCodecRoundTrip(t *testing.T) {
	meta := PageMeta{
		Rows: 7, FullBytes: 1234,
		Events: []PageEvent{{Event: 3, Rows: 2}, {Event: 4, Rows: 0}, {Event: 9, Rows: 5}},
	}
	enc := meta.AppendMeta(nil)
	var back PageMeta
	if err := DecodePageMeta(enc, &back); err != nil {
		t.Fatalf("DecodePageMeta: %v", err)
	}
	if back.Rows != meta.Rows || back.FullBytes != meta.FullBytes || len(back.Events) != 3 {
		t.Fatalf("meta round trip: %+v", back)
	}
	if back.FirstEvent() != 3 || back.LastEvent() != 9 {
		t.Errorf("event bounds: %d..%d", back.FirstEvent(), back.LastEvent())
	}

	// Corrupt metas are rejected.
	for _, bad := range [][]byte{
		nil,
		{1},                                    // field-page tag
		{0, 0x80},                              // truncated varint
		enc[:len(enc)-1],                       // truncated tail
		append(append([]byte(nil), enc...), 0), // trailing byte
	} {
		var m PageMeta
		if err := DecodePageMeta(bad, &m); err == nil {
			t.Errorf("DecodePageMeta(%x) accepted", bad)
		}
	}

	key := AppendPageKey(nil, []byte("group"), 7, 99)
	g, col, ev, ok := SplitPageKey(key)
	if !ok || string(g) != "group" || col != 7 || ev != 99 {
		t.Fatalf("SplitPageKey = %q %d %d %v", g, col, ev, ok)
	}
	if _, _, _, ok := SplitPageKey([]byte("short")); ok {
		t.Error("short key split")
	}

	chunk := make([]byte, 5*4) // five float32 rows
	fp := AppendFieldPage(nil, serde.ColFloat32, 5, chunk)
	kind, rows, got, err := DecodeFieldPage(fp)
	if err != nil || kind != serde.ColFloat32 || rows != 5 || string(got) != string(chunk) {
		t.Fatalf("field page round trip: %v %d %x %v", kind, rows, got, err)
	}
	if _, _, _, err := DecodeFieldPage(meta.AppendMeta(nil)); err == nil {
		t.Error("row-meta decoded as field page")
	}

	// The test helper's pages decode through the scan path end to end; a
	// page built through AppendColumn equals one built via MarshalColumns.
	schema, err := serde.ColumnSchemaOf([]scanRec{})
	if err != nil {
		t.Fatal(err)
	}
	rowsIn := []scanRec{{A: 1, B: 2, Tag: "x"}, {A: 3, B: 4, Tag: "y"}}
	seg := new(wire.Segment)
	defer seg.Release()
	mcols, n, err := schema.MarshalColumns(seg, rowsIn, nil)
	if err != nil || n != 2 {
		t.Fatal(err)
	}
	for f := 0; f < schema.NumFields(); f++ {
		acol, an, err := schema.AppendColumn(nil, f, rowsIn)
		if err != nil || an != 2 {
			t.Fatal(err)
		}
		if string(acol) != string(mcols[f]) {
			t.Errorf("AppendColumn(%d) != MarshalColumns chunk", f)
		}
	}
}
