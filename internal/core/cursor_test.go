package core

import (
	"context"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
)

func buildCursorSample(t *testing.T, ds *DataStore) *DataSet {
	t.Helper()
	ctx := context.Background()
	d, err := ds.CreateDataSet(ctx, "cursors")
	if err != nil {
		t.Fatal(err)
	}
	wb := ds.NewWriteBatch()
	for r := uint64(1); r <= 5; r++ {
		run, err := wb.CreateRun(ctx, d, r*10)
		if err != nil {
			t.Fatal(err)
		}
		for s := uint64(0); s < 3; s++ {
			sr, err := wb.CreateSubRun(ctx, run, s)
			if err != nil {
				t.Fatal(err)
			}
			for e := uint64(0); e < 40; e++ {
				ev, err := wb.CreateEvent(ctx, sr, e)
				if err != nil {
					t.Fatal(err)
				}
				if err := wb.Store(ctx, ev, "p", particle{X: float32(e)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := wb.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCursorsWalkTheHierarchyInOrder(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2})
	d := buildCursorSample(t, ds)
	ctx := context.Background()

	var runs []uint64
	// Page size 2 forces several pages for 5 runs.
	rc := d.RunCursor(ctx, 2)
	for rc.Next() {
		runs = append(runs, rc.Run().Number())
	}
	if rc.Err() != nil {
		t.Fatal(rc.Err())
	}
	if len(runs) != 5 || runs[0] != 10 || runs[4] != 50 {
		t.Fatalf("runs = %v", runs)
	}
	for i := 1; i < len(runs); i++ {
		if runs[i-1] >= runs[i] {
			t.Fatalf("cursor out of order: %v", runs)
		}
	}

	rc2 := d.RunCursor(ctx, 0)
	if !rc2.Next() {
		t.Fatal("empty run cursor")
	}
	firstRun := rc2.Run()
	src := firstRun.SubRunCursor(ctx, 2)
	var subs []uint64
	for src.Next() {
		subs = append(subs, src.SubRun().Number())
	}
	if src.Err() != nil || len(subs) != 3 {
		t.Fatalf("subruns = %v err=%v", subs, src.Err())
	}

	sr, err := firstRun.SubRun(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	ec := sr.EventCursor(ctx, 16)
	n := 0
	var last uint64
	for ec.Next() {
		ev := ec.Event()
		if n > 0 && ev.Number() <= last {
			t.Fatalf("event cursor out of order at %d", ev.Number())
		}
		last = ev.Number()
		n++
	}
	if ec.Err() != nil || n != 40 {
		t.Fatalf("events = %d err=%v", n, ec.Err())
	}
}

func TestEventCursorPrefetch(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2})
	d := buildCursorSample(t, ds)
	ctx := context.Background()
	run, err := d.Run(ctx, 30)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := run.SubRun(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	ec := sr.EventCursor(ctx, 8, SelectorFor("p", particle{}))
	n := 0
	for ec.Next() {
		ev := ec.Event()
		var p particle
		if err := ev.Load(ctx, "p", &p); err != nil {
			t.Fatalf("event %d: %v", ev.Number(), err)
		}
		if p.X != float32(ev.Number()) {
			t.Fatalf("event %d: product %v", ev.Number(), p)
		}
		// Prefetched products are served locally even for this check —
		// assert the cache is populated.
		if len(ev.prefetched) == 0 {
			t.Fatalf("event %d has no prefetched products", ev.Number())
		}
		n++
	}
	if ec.Err() != nil || n != 40 {
		t.Fatalf("events = %d err=%v", n, ec.Err())
	}
}

func TestCursorOnEmptyContainer(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	ctx := context.Background()
	d, _ := ds.CreateDataSet(ctx, "empty-cursor")
	rc := d.RunCursor(ctx, 10)
	if rc.Next() {
		t.Fatal("cursor over empty dataset yielded a run")
	}
	if rc.Err() != nil {
		t.Fatal(rc.Err())
	}
}

func TestCursorSurfacesClosedStore(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	ctx := context.Background()
	d, _ := ds.CreateDataSet(ctx, "closing")
	d.CreateRun(ctx, 1)
	rc := d.RunCursor(ctx, 10)
	ds.Close()
	if rc.Next() {
		t.Fatal("cursor advanced on a closed store")
	}
	if rc.Err() == nil {
		t.Fatal("cursor should report the close")
	}
}
