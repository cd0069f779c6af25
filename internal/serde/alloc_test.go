package serde_test

import (
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/nova"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/wire"
)

// repEvent is a representative NOvA product: one triggered readout with
// four candidate slices (the paper's ≈4.10 slices/event average).
func repEvent() nova.Event {
	ev := nova.Event{Run: 15150, SubRun: 3, Event: 77}
	for i := 0; i < 4; i++ {
		ev.Slices = append(ev.Slices, nova.Slice{
			SliceIdx: uint32(i), NHit: 120 + int32(i), CalE: 1.9,
			RemID: 0.6, CVNe: 0.84, CVNm: 0.12, CosmicScore: 0.31,
			VtxX: 120.5, VtxY: -310.2, VtxZ: 890.0, DirZ: 0.97,
			NPlanes: 42, TimeMean: 218.4, EPerHit: 0.016, ProngLen: 312.0,
		})
	}
	return ev
}

// Locked allocation budgets. These are regression gates, locked at the
// counts measured with the compiled codecs. If a serde change pushes past
// them, either the change is a regression or the budget must be
// consciously re-locked.
const (
	budgetMarshal       = 2 // exact-size copy + boxing the value into any
	budgetMarshalAppend = 1 // boxing only
	budgetUnmarshal     = 2 // the Slices array + boxing the target
)

// raceEnabled is set by the race build, whose sync.Pool drops a share of
// the objects put back at random, so pooled paths allocate at random too.
var raceEnabled bool

func TestAllocBudgetSerde(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ev := repEvent()
	data, err := serde.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}

	m := testing.AllocsPerRun(100, func() {
		if _, err := serde.Marshal(ev); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Marshal(nova.Event): %.1f allocs/op (budget %d)", m, budgetMarshal)
	if m > budgetMarshal {
		t.Errorf("Marshal allocs/op = %.1f, budget %d", m, budgetMarshal)
	}

	buf := wire.Acquire(len(data))
	defer buf.Release()
	ma := testing.AllocsPerRun(100, func() {
		out, err := serde.MarshalAppend(buf.B[:0], ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.B = out
	})
	t.Logf("MarshalAppend(reused buf): %.1f allocs/op (budget %d)", ma, budgetMarshalAppend)
	if ma > budgetMarshalAppend {
		t.Errorf("MarshalAppend allocs/op = %.1f, budget %d", ma, budgetMarshalAppend)
	}

	u := testing.AllocsPerRun(100, func() {
		var out nova.Event
		if err := serde.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Unmarshal(nova.Event): %.1f allocs/op (budget %d)", u, budgetUnmarshal)
	if u > budgetUnmarshal {
		t.Errorf("Unmarshal allocs/op = %.1f, budget %d", u, budgetUnmarshal)
	}
}

// BenchmarkSliceProduct times the row codec on the representative 4-slice
// product, the unit select-mem decodes once per event.
func BenchmarkSliceProduct(b *testing.B) {
	slices := repEvent().Slices
	data, err := serde.Marshal(slices)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			if buf, err = serde.MarshalAppend(buf[:0], slices); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		var out []nova.Slice
		for b.Loop() {
			if err := serde.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestUnmarshalBorrowAliases pins the zero-copy decode contract: []byte
// fields of a borrowed decode alias the input buffer; the copying decode
// never does.
func TestUnmarshalBorrowAliases(t *testing.T) {
	type rec struct {
		Key []byte
		Val []byte
	}
	in := rec{Key: []byte("k-0001"), Val: []byte("payload-bytes")}
	data, err := serde.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}

	var borrowed rec
	if err := serde.UnmarshalBorrow(data, &borrowed); err != nil {
		t.Fatal(err)
	}
	if string(borrowed.Val) != "payload-bytes" {
		t.Fatalf("borrowed decode wrong: %q", borrowed.Val)
	}
	// Mutating the input must show through the borrowed views...
	data[len(data)-1] ^= 0xff
	if string(borrowed.Val) == "payload-bytes" {
		t.Fatal("UnmarshalBorrow did not alias the input buffer")
	}
	data[len(data)-1] ^= 0xff

	// ...and must NOT show through a copying decode.
	var copied rec
	if err := serde.Unmarshal(data, &copied); err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if string(copied.Val) != "payload-bytes" {
		t.Fatal("Unmarshal aliased the input buffer; it must copy")
	}
}
