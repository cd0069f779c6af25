package yokan

import (
	"bytes"
	"slices"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/serde"
)

// Page values arrive from clients through put_multi and are decoded by the
// scan provider, so both page decoders take untrusted bytes. The fuzzers
// hold them to: never panic, and anything accepted re-encodes to a value
// that decodes to the same result.

func FuzzDecodePageMeta(f *testing.F) {
	good := PageMeta{
		Rows: 7, FullBytes: 1234,
		Events: []PageEvent{{Event: 3, Rows: 2}, {Event: 4, Rows: 0}, {Event: 9, Rows: 5}},
	}
	enc := good.AppendMeta(nil)
	for _, seed := range [][]byte{
		enc,
		(&PageMeta{}).AppendMeta(nil),
		(&PageMeta{Rows: 1 << 40, FullBytes: 1 << 62, Events: []PageEvent{{Event: 1 << 63, Rows: 1 << 40}}}).AppendMeta(nil),
		// The corrupt metas TestPageCodecRoundTrip rejects.
		nil,
		{1},
		{0, 0x80},
		enc[:len(enc)-1],
		append(append([]byte(nil), enc...), 0),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v []byte) {
		var m PageMeta
		if err := DecodePageMeta(v, &m); err != nil {
			return
		}
		re := m.AppendMeta(nil)
		// Canonical varints are the shortest form, so re-encoding never
		// grows the value.
		if len(re) > len(v) {
			t.Fatalf("re-encoding grew %d bytes to %d", len(v), len(re))
		}
		var back PageMeta
		if err := DecodePageMeta(re, &back); err != nil {
			t.Fatalf("re-encoded meta rejected: %v", err)
		}
		if back.Rows != m.Rows || back.FullBytes != m.FullBytes || !slices.Equal(back.Events, m.Events) {
			t.Fatalf("meta round trip: %+v != %+v", back, m)
		}
	})
}

func FuzzDecodeFieldPage(f *testing.F) {
	meta := PageMeta{Rows: 2, Events: []PageEvent{{Event: 1, Rows: 2}}}
	for _, seed := range [][]byte{
		AppendFieldPage(nil, serde.ColFloat32, 5, []byte{1, 2, 3}),
		AppendFieldPage(nil, serde.ColString, 0, nil),
		AppendFieldPage(nil, serde.ColBytes, 300, bytes.Repeat([]byte{0xab}, 300)),
		// Rejected: empty, a row-meta value, a truncated row count, and a
		// row count larger than the page.
		nil,
		meta.AppendMeta(nil),
		{byte(serde.ColInt), 0x80},
		AppendFieldPage(nil, serde.ColInt, 1<<20, []byte{1}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v []byte) {
		kind, rows, chunk, err := DecodeFieldPage(v)
		if err != nil {
			return
		}
		if rows < 0 || rows > len(v) || len(chunk) > len(v) {
			t.Fatalf("accepted page claims %d rows and a %d-byte chunk in %d bytes", rows, len(chunk), len(v))
		}
		k2, r2, c2, err := DecodeFieldPage(AppendFieldPage(nil, kind, rows, chunk))
		if err != nil {
			t.Fatalf("re-encoded field page rejected: %v", err)
		}
		if k2 != kind || r2 != rows || !bytes.Equal(c2, chunk) {
			t.Fatalf("field page round trip: (%v, %d, %x) != (%v, %d, %x)", k2, r2, c2, kind, rows, chunk)
		}
	})
}
