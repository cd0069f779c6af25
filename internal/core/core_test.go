package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

var deploySeq atomic.Int64

// newTestStore deploys a small service and connects a client.
func newTestStore(t testing.TB, spec bedrock.DeploySpec) *DataStore {
	t.Helper()
	if spec.NamePrefix == "" {
		spec.NamePrefix = fmt.Sprintf("coretest-%d", deploySeq.Add(1))
	}
	if spec.ProvidersPerServer == 0 {
		spec.ProvidersPerServer = 2
	}
	if spec.EventDBsPerServer == 0 {
		spec.EventDBsPerServer = 4
	}
	if spec.ProductDBsPerServer == 0 {
		spec.ProductDBsPerServer = 4
	}
	d, err := bedrock.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Shutdown)
	ds, err := Connect(context.Background(), ClientConfig{Group: d.Group})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.Close)
	return ds
}

// particle mirrors Listing 1's example struct.
type particle struct {
	X, Y, Z float32
}

func TestListing1EndToEnd(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2})
	ctx := context.Background()

	// Create a nested dataset and the 43/56/25 hierarchy from Listing 1.
	d, err := ds.CreateDataSet(ctx, "path/to/dataset")
	if err != nil {
		t.Fatal(err)
	}
	run, err := d.CreateRun(ctx, 43)
	if err != nil {
		t.Fatal(err)
	}
	subrun, err := run.CreateSubRun(ctx, 56)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := subrun.CreateEvent(ctx, 25)
	if err != nil {
		t.Fatal(err)
	}

	// Store and load a vector of particles.
	vp1 := []particle{{1, 2, 3}, {4, 5, 6}}
	if err := ev.Store(ctx, "mylabel", vp1); err != nil {
		t.Fatal(err)
	}
	var vp2 []particle
	if err := ev.Load(ctx, "mylabel", &vp2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vp1, vp2) {
		t.Fatalf("product round trip: %v vs %v", vp1, vp2)
	}

	// Reopen through paths and numbers.
	d2, err := ds.OpenDataSet(ctx, "path/to/dataset")
	if err != nil {
		t.Fatal(err)
	}
	if d2.UUID() != d.UUID() {
		t.Fatal("reopened dataset has different UUID")
	}
	run2, err := d2.Run(ctx, 43)
	if err != nil {
		t.Fatal(err)
	}
	sr2, err := run2.SubRun(ctx, 56)
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := sr2.Event(ctx, 25)
	if err != nil {
		t.Fatal(err)
	}
	var vp3 []particle
	if err := ev2.Load(ctx, "mylabel", &vp3); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vp1, vp3) {
		t.Fatal("product lost after reopen")
	}
	if ev2.ID() != (EventID{Run: 43, SubRun: 56, Event: 25}) {
		t.Fatalf("event id = %v", ev2.ID())
	}
}

func TestOpenErrors(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	ctx := context.Background()
	if _, err := ds.OpenDataSet(ctx, "nope"); !errors.Is(err, ErrNoSuchDataSet) {
		t.Fatalf("missing dataset: %v", err)
	}
	if _, err := ds.OpenDataSet(ctx, "a//b"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("bad path: %v", err)
	}
	if _, err := ds.CreateDataSet(ctx, ""); !errors.Is(err, ErrBadPath) {
		t.Fatalf("empty path: %v", err)
	}
	d, _ := ds.CreateDataSet(ctx, "exists")
	if _, err := d.Run(ctx, 99); !errors.Is(err, ErrNoSuchContainer) {
		t.Fatalf("missing run: %v", err)
	}
	run, _ := d.CreateRun(ctx, 1)
	if _, err := run.SubRun(ctx, 99); !errors.Is(err, ErrNoSuchContainer) {
		t.Fatalf("missing subrun: %v", err)
	}
	sr, _ := run.CreateSubRun(ctx, 1)
	if _, err := sr.Event(ctx, 99); !errors.Is(err, ErrNoSuchContainer) {
		t.Fatalf("missing event: %v", err)
	}
	ev, _ := sr.CreateEvent(ctx, 1)
	var p particle
	if err := ev.Load(ctx, "ghost", &p); !errors.Is(err, ErrNoSuchProduct) {
		t.Fatalf("missing product: %v", err)
	}
}

func TestCreateIsIdempotent(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	ctx := context.Background()
	a, err := ds.CreateDataSet(ctx, "x/y")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ds.CreateDataSet(ctx, "x/y")
	if err != nil {
		t.Fatal(err)
	}
	if a.UUID() != b.UUID() {
		t.Fatal("re-creating a dataset changed its UUID")
	}
	d, _ := ds.OpenDataSet(ctx, "x")
	if _, err := d.CreateRun(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateRun(ctx, 5); err != nil {
		t.Fatal(err)
	}
	runs, _ := d.Runs(ctx)
	if len(runs) != 1 {
		t.Fatalf("runs = %v", runs)
	}
}

func TestHierarchyIteration(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2})
	ctx := context.Background()
	d, _ := ds.CreateDataSet(ctx, "iter")

	// Insert runs out of order; expect ascending iteration (§II-C3).
	for _, n := range []uint64{5, 1, 99, 42, 7} {
		if _, err := d.CreateRun(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := d.Runs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runs, []uint64{1, 5, 7, 42, 99}) {
		t.Fatalf("runs = %v", runs)
	}

	run, _ := d.Run(ctx, 42)
	for n := uint64(0); n < 30; n++ {
		sr, err := run.CreateSubRun(ctx, 29-n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sr.CreateEvent(ctx, n%3); err != nil {
			t.Fatal(err)
		}
	}
	subs, err := run.SubRuns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 30 || !sort.SliceIsSorted(subs, func(i, j int) bool { return subs[i] < subs[j] }) {
		t.Fatalf("subruns = %v", subs)
	}
	sr, _ := run.SubRun(ctx, 3)
	evs, err := sr.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatalf("events = %v", evs)
	}

	// Big-number ordering (big-endian correctness at scale).
	d2, _ := ds.CreateDataSet(ctx, "iter2")
	for _, n := range []uint64{1 << 40, 255, 256, 1, 1 << 32} {
		d2.CreateRun(ctx, n)
	}
	runs2, _ := d2.Runs(ctx)
	if !reflect.DeepEqual(runs2, []uint64{1, 255, 256, 1 << 32, 1 << 40}) {
		t.Fatalf("runs2 = %v", runs2)
	}
}

func TestDataSetListing(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	ctx := context.Background()
	for _, p := range []string{"fermilab/nova", "fermilab/dune", "fermilab/nova/deep", "cern/atlas"} {
		if _, err := ds.CreateDataSet(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	top, err := ds.ListDataSets(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(top, []string{"cern", "fermilab"}) {
		t.Fatalf("top = %v", top)
	}
	kids, err := ds.ListDataSets(ctx, "fermilab")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kids, []string{"dune", "nova"}) {
		t.Fatalf("fermilab children = %v", kids)
	}
	none, err := ds.ListDataSets(ctx, "cern/atlas")
	if err != nil || len(none) != 0 {
		t.Fatalf("leaf children = %v %v", none, err)
	}
}

func TestProductsOnAllLevels(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2})
	ctx := context.Background()
	d, _ := ds.CreateDataSet(ctx, "lvl")
	run, _ := d.CreateRun(ctx, 1)
	sr, _ := run.CreateSubRun(ctx, 2)
	ev, _ := sr.CreateEvent(ctx, 3)

	// Same label on each level; they must not collide.
	type calib struct{ Gain float64 }
	for i, c := range []interface {
		Store(context.Context, string, any) error
	}{d, run, sr, ev} {
		if err := c.Store(ctx, "calib", calib{Gain: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range []interface {
		Load(context.Context, string, any) error
	}{d, run, sr, ev} {
		var out calib
		if err := c.Load(ctx, "calib", &out); err != nil {
			t.Fatal(err)
		}
		if out.Gain != float64(i) {
			t.Fatalf("level %d gain = %v", i, out.Gain)
		}
	}

	// Same label, different type => different product.
	if err := ev.Store(ctx, "calib", []particle{{1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	var ps []particle
	if err := ev.Load(ctx, "calib", &ps); err != nil || len(ps) != 1 {
		t.Fatalf("typed load: %v %v", ps, err)
	}
	var c calib
	if err := ev.Load(ctx, "calib", &c); err != nil {
		t.Fatal(err)
	}

	// HasProduct and ListProducts.
	ok, err := ev.HasProduct(ctx, "calib", calib{})
	if err != nil || !ok {
		t.Fatalf("HasProduct = %v %v", ok, err)
	}
	ok, _ = ev.HasProduct(ctx, "ghost", calib{})
	if ok {
		t.Fatal("phantom product")
	}
	prods, err := ev.ListProducts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(prods) != 2 {
		t.Fatalf("products = %v", prods)
	}
}

// TestWriteBatch runs unreplicated and at RF=2: either way Pending counts
// queued updates, not the copies a flush sends.
func TestWriteBatch(t *testing.T) {
	for _, rf := range []int{1, 2} {
		t.Run(fmt.Sprintf("rf%d", rf), func(t *testing.T) { testWriteBatch(t, rf) })
	}
}

func testWriteBatch(t *testing.T, rf int) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2, RF: rf})
	if ds.RF() != rf {
		t.Fatalf("RF = %d, want %d", ds.RF(), rf)
	}
	ctx := context.Background()
	d, _ := ds.CreateDataSet(ctx, "batched")
	wb := ds.NewWriteBatch()

	run, err := wb.CreateRun(ctx, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	var evs []*Event
	for sr := uint64(0); sr < 4; sr++ {
		subrun, err := wb.CreateSubRun(ctx, run, sr)
		if err != nil {
			t.Fatal(err)
		}
		for e := uint64(0); e < 25; e++ {
			ev, err := wb.CreateEvent(ctx, subrun, e)
			if err != nil {
				t.Fatal(err)
			}
			if err := wb.Store(ctx, ev, "p", particle{X: float32(e)}); err != nil {
				t.Fatal(err)
			}
			evs = append(evs, ev)
		}
	}
	// Nothing is visible before the flush... (containers were queued)
	if got, want := wb.Pending(), 1+4+4*25*2; got != want {
		t.Fatalf("pending = %d, want %d queued updates", got, want)
	}
	if err := wb.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if wb.Pending() != 0 {
		t.Fatalf("pending after flush = %d", wb.Pending())
	}

	// Everything is now visible.
	runs, _ := d.Runs(ctx)
	if !reflect.DeepEqual(runs, []uint64{1}) {
		t.Fatalf("runs = %v", runs)
	}
	run2, _ := d.Run(ctx, 1)
	subs, _ := run2.SubRuns(ctx)
	if len(subs) != 4 {
		t.Fatalf("subruns = %v", subs)
	}
	var p particle
	if err := evs[0].Load(ctx, "p", &p); err != nil {
		t.Fatal(err)
	}

	// Auto-flush via MaxPending.
	wb2 := ds.NewWriteBatch()
	wb2.MaxPending = 10
	for i := uint64(100); i < 130; i++ {
		if _, err := wb2.CreateRun(ctx, d, i); err != nil {
			t.Fatal(err)
		}
	}
	if wb2.Pending() >= 10 {
		t.Fatalf("auto-flush did not trigger: %d pending", wb2.Pending())
	}
	wb2.Flush(ctx)
	runs, _ = d.Runs(ctx)
	if len(runs) != 31 {
		t.Fatalf("after auto-flush: %d runs", len(runs))
	}
}

func TestAsyncWriteBatch(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2})
	ctx := context.Background()
	d, _ := ds.CreateDataSet(ctx, "async")
	run, _ := d.CreateRun(ctx, 1)
	sr, _ := run.CreateSubRun(ctx, 1)

	awb := ds.NewAsyncWriteBatch(64)
	const n = 1000
	for e := uint64(0); e < n; e++ {
		ev, err := awb.CreateEvent(ctx, sr, e)
		if err != nil {
			t.Fatal(err)
		}
		if err := awb.Store(ctx, ev, "p", particle{X: float32(e)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := awb.Close(ctx); err != nil {
		t.Fatal(err)
	}
	evs, err := sr.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != n {
		t.Fatalf("events after async close = %d", len(evs))
	}
	ev, _ := sr.Event(ctx, 777)
	var p particle
	if err := ev.Load(ctx, "p", &p); err != nil || p.X != 777 {
		t.Fatalf("product = %v %v", p, err)
	}
	if err := awb.Close(ctx); !errors.Is(err, ErrBatchClosed) {
		t.Fatalf("double close = %v, want ErrBatchClosed", err)
	}
}

// TestWriteBatchClosedSentinel is the regression test for the old
// AsynchronousWriteBatch panicking (send on closed channel) when used
// after Close: every mutating operation must instead return ErrBatchClosed.
func TestWriteBatchClosedSentinel(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{})
	ctx := context.Background()
	d, _ := ds.CreateDataSet(ctx, "closed")
	run, _ := d.CreateRun(ctx, 1)
	sr, _ := run.CreateSubRun(ctx, 1)

	for name, wb := range map[string]*WriteBatch{
		"sync":  ds.NewWriteBatch(),
		"async": ds.NewAsyncWriteBatch(16),
	} {
		ev, err := wb.CreateEvent(ctx, sr, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := wb.Close(ctx); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if _, err := wb.CreateEvent(ctx, sr, 2); !errors.Is(err, ErrBatchClosed) {
			t.Fatalf("%s: CreateEvent after close = %v, want ErrBatchClosed", name, err)
		}
		if _, err := wb.CreateRun(ctx, d, 9); !errors.Is(err, ErrBatchClosed) {
			t.Fatalf("%s: CreateRun after close = %v, want ErrBatchClosed", name, err)
		}
		if _, err := wb.CreateSubRun(ctx, run, 9); !errors.Is(err, ErrBatchClosed) {
			t.Fatalf("%s: CreateSubRun after close = %v, want ErrBatchClosed", name, err)
		}
		if err := wb.Store(ctx, ev, "p", particle{}); !errors.Is(err, ErrBatchClosed) {
			t.Fatalf("%s: Store after close = %v, want ErrBatchClosed", name, err)
		}
		if err := wb.Flush(ctx); !errors.Is(err, ErrBatchClosed) {
			t.Fatalf("%s: Flush after close = %v, want ErrBatchClosed", name, err)
		}
	}
}

// TestAsyncWriteBatchCancellation covers the old bug where async flush
// workers ran under context.Background(), ignoring caller cancellation: a
// flush submitted with a canceled context must not land and must surface
// the cancellation error, with the updates re-queued rather than lost.
func TestAsyncWriteBatchCancellation(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{})
	ctx := context.Background()
	d, _ := ds.CreateDataSet(ctx, "cancel")
	run, _ := d.CreateRun(ctx, 1)
	sr, _ := run.CreateSubRun(ctx, 1)

	wb := ds.NewAsyncWriteBatch(0)
	for e := uint64(0); e < 50; e++ {
		ev, err := wb.CreateEvent(ctx, sr, e)
		if err != nil {
			t.Fatal(err)
		}
		if err := wb.Store(ctx, ev, "p", particle{X: float32(e)}); err != nil {
			t.Fatal(err)
		}
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel() // canceled before the flush is even submitted
	if err := wb.Flush(cctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	err := wb.Wait(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after canceled flush = %v, want context.Canceled", err)
	}
	if wb.Pending() == 0 {
		t.Fatal("canceled flush lost its updates instead of re-queueing them")
	}
	// The store must be untouched by the canceled flush.
	if evs, _ := sr.Events(ctx); len(evs) != 0 {
		t.Fatalf("canceled flush landed %d events", len(evs))
	}
	// A live context drains the batch completely.
	if err := wb.Close(ctx); err != nil {
		t.Fatal(err)
	}
	evs, err := sr.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 50 {
		t.Fatalf("after close: %d events, want 50", len(evs))
	}
}

// TestAsyncWriteBatchErrorsSurfaceBeforeClose: a failing asynchronous
// flush must report on a later Store/Flush, not only at Close.
func TestAsyncWriteBatchErrorsSurfaceBeforeClose(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{})
	ctx := context.Background()
	d, _ := ds.CreateDataSet(ctx, "surface")
	run, _ := d.CreateRun(ctx, 1)
	sr, _ := run.CreateSubRun(ctx, 1)

	wb := ds.NewAsyncWriteBatch(0)
	ev, err := wb.CreateEvent(ctx, sr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.Store(ctx, ev, "p", particle{X: 1}); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := wb.Flush(cctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if err := wb.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	// Wait already reported the failure; later calls start clean and the
	// re-queued updates land on the next live flush.
	if err := wb.Flush(ctx); err != nil {
		t.Fatalf("second flush reported a stale error: %v", err)
	}
	if err := wb.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if evs, _ := sr.Events(ctx); len(evs) != 1 {
		t.Fatalf("re-queued update did not land: %d events", len(evs))
	}
}

func TestConnectErrors(t *testing.T) {
	if _, err := Connect(context.Background(), ClientConfig{}); err == nil {
		t.Fatal("empty group should fail")
	}
	// Group pointing at a dead server.
	group := bedrock.GroupFile{
		Protocol: "inproc",
		Servers:  []bedrock.ServerDescriptor{{Address: "inproc://dead", Providers: []uint16{0}}},
	}
	if _, err := Connect(context.Background(), ClientConfig{Group: group}); err == nil {
		t.Fatal("dead server should fail")
	}
}

func TestClosedDataStore(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	ctx := context.Background()
	d, _ := ds.CreateDataSet(ctx, "pre")
	ds.Close()
	if _, err := ds.CreateDataSet(ctx, "post"); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
	if _, err := d.Runs(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("iterate after close: %v", err)
	}
	ds.Close() // idempotent
}

func TestParseDBName(t *testing.T) {
	cases := []struct {
		name string
		role string
		idx  int
		ok   bool
	}{
		{"events_3", "events", 3, true},
		{"products_12", "products", 12, true},
		{"datasets_0", "datasets", 0, true},
		{"runs_1", "runs", 1, true},
		{"subruns_7", "subruns", 7, true},
		{"bogus_1", "", 0, false},
		{"events", "", 0, false},
		{"events_x", "", 0, false},
		{"_3", "", 0, false},
	}
	for _, c := range cases {
		role, idx, ok := parseDBName(c.name)
		if ok != c.ok || role != c.role || idx != c.idx {
			t.Errorf("parseDBName(%q) = %q %d %v", c.name, role, idx, ok)
		}
	}
}

func TestPlacementCoLocation(t *testing.T) {
	// All runs of a dataset map to one database, as do all subruns of a
	// run and all events of a subrun — the iterability invariant.
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 4})
	d, _ := ds.CreateDataSet(context.Background(), "place")
	v := ds.v()
	home := func(dbs []yokan.DBHandle, parentKey keys.ContainerKey) yokan.DBHandle {
		return dbs[ds.placement.placer(len(dbs)).Place(parentKey.Bytes())]
	}
	runDB := home(v.RunDBs, d.key)
	for n := uint64(0); n < 100; n++ {
		if got := home(v.RunDBs, d.key); got != runDB {
			t.Fatal("run placement depends on something other than the dataset")
		}
	}
	runKey := d.key.Child(7)
	// Different subruns usually map to different event databases (load
	// distribution); with 16 event DBs, 64 subruns hitting one DB would be
	// astronomically unlikely.
	all := map[string]bool{}
	for sr := uint64(0); sr < 64; sr++ {
		all[home(v.EventDBs, runKey.Child(sr)).String()] = true
	}
	if len(all) < 2 {
		t.Fatal("event placement does not spread subruns across databases")
	}
}

// TestServiceMetrics scrapes every server's registry through bedrock's
// admin provider and finds the stored hierarchy in it: every provider's
// key counts, and at least one write per stored key.
func TestServiceMetrics(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2})
	ctx := context.Background()
	d, _ := ds.CreateDataSet(ctx, "stats")
	run, _ := d.CreateRun(ctx, 1)
	sr, _ := run.CreateSubRun(ctx, 1)
	for i := uint64(0); i < 25; i++ {
		ev, err := sr.CreateEvent(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Store(ctx, "p", particle{X: float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sources, err := bedrock.ScrapeGroup(ctx, ds.Margo(), ds.v().Group)
	if err != nil {
		t.Fatal(err)
	}
	providers := map[string]bool{}
	var keys, writes float64
	for _, src := range sources {
		for _, f := range src.Families {
			for _, s := range f.Samples {
				switch {
				case f.Name == "hepnos_yokan_db_keys":
					providers[src.Name+"/"+s.Labels["provider"]] = true
					keys += s.Value
				case f.Name == obs.MetricYokanOps && strings.HasPrefix(s.Labels["op"], "put"):
					writes += s.Value
				}
			}
		}
	}
	if len(providers) != 4 { // 2 servers x 2 providers
		t.Fatalf("providers = %d", len(providers))
	}
	// 1 dataset entry + 1 run + 1 subrun + 25 events + 25 products.
	if keys != 53 {
		t.Fatalf("total keys = %v, want 53", keys)
	}
	if writes < 53 {
		t.Fatalf("write ops = %v", writes)
	}
}

// TestConcurrentClients has several independent client handles (each with
// its own endpoint, like separate MPI jobs) writing into one service
// concurrently; creates are idempotent and nothing is lost.
func TestConcurrentClients(t *testing.T) {
	spec := bedrock.DeploySpec{
		Servers: 2, ProvidersPerServer: 2,
		EventDBsPerServer: 4, ProductDBsPerServer: 4,
		NamePrefix: fmt.Sprintf("coretest-multi-%d", deploySeq.Add(1)),
	}
	dep, err := bedrock.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Shutdown)
	ctx := context.Background()

	const clients, runsEach = 4, 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cID := 0; cID < clients; cID++ {
		wg.Add(1)
		go func(cID int) {
			defer wg.Done()
			ds, err := Connect(ctx, ClientConfig{Group: dep.Group})
			if err != nil {
				errs <- err
				return
			}
			defer ds.Close()
			// Everyone creates the same dataset (idempotent) and their
			// own disjoint runs.
			d, err := ds.CreateDataSet(ctx, "shared/data")
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < runsEach; r++ {
				run, err := d.CreateRun(ctx, uint64(cID*100+r))
				if err != nil {
					errs <- err
					return
				}
				sr, err := run.CreateSubRun(ctx, 0)
				if err != nil {
					errs <- err
					return
				}
				ev, err := sr.CreateEvent(ctx, 1)
				if err != nil {
					errs <- err
					return
				}
				if err := ev.Store(ctx, "who", particle{X: float32(cID)}); err != nil {
					errs <- err
					return
				}
			}
		}(cID)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ds, err := Connect(ctx, ClientConfig{Group: dep.Group})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	d, err := ds.OpenDataSet(ctx, "shared/data")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := d.Runs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != clients*runsEach {
		t.Fatalf("runs = %d, want %d", len(runs), clients*runsEach)
	}
	// Concurrent idempotent creates agreed on one UUID: all runs visible
	// under the single dataset implies a single UUID won.
	ev, err := mustEvent(ctx, d, runs[len(runs)-1])
	if err != nil {
		t.Fatal(err)
	}
	var p particle
	if err := ev.Load(ctx, "who", &p); err != nil {
		t.Fatal(err)
	}
}

func mustEvent(ctx context.Context, d *DataSet, runNo uint64) (*Event, error) {
	run, err := d.Run(ctx, runNo)
	if err != nil {
		return nil, err
	}
	sr, err := run.SubRun(ctx, 0)
	if err != nil {
		return nil, err
	}
	return sr.Event(ctx, 1)
}

// TestConcurrentDataSetCreationAgreesOnUUID races many creators of the
// same path; the atomic get-or-put must make every one of them observe the
// single winning UUID (the orphaned-hierarchy bug this guards against was
// real: see createOneDataSet).
func TestConcurrentDataSetCreationAgreesOnUUID(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2})
	ctx := context.Background()
	const racers = 12
	uuids := make([]string, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := ds.CreateDataSet(ctx, "raced/path")
			if err != nil {
				t.Error(err)
				return
			}
			uuids[i] = d.UUID().String()
		}(i)
	}
	wg.Wait()
	for i := 1; i < racers; i++ {
		if uuids[i] != uuids[0] {
			t.Fatalf("creators disagree on UUID: %s vs %s", uuids[0], uuids[i])
		}
	}
}

func TestConnectRejectsMergedGroups(t *testing.T) {
	// Merging two deployments' groups duplicates database names, which
	// would make placement ambiguous; Connect must refuse.
	a, err := bedrock.Deploy(bedrock.DeploySpec{
		Servers: 1, ProvidersPerServer: 2, EventDBsPerServer: 2, ProductDBsPerServer: 2,
		NamePrefix: fmt.Sprintf("dup-a-%d", deploySeq.Add(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Shutdown)
	b, err := bedrock.Deploy(bedrock.DeploySpec{
		Servers: 1, ProvidersPerServer: 2, EventDBsPerServer: 2, ProductDBsPerServer: 2,
		NamePrefix: fmt.Sprintf("dup-b-%d", deploySeq.Add(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Shutdown)
	merged := a.Group
	merged.Servers = append(merged.Servers, b.Group.Servers...)
	if _, err := Connect(context.Background(), ClientConfig{Group: merged}); err == nil {
		t.Fatal("merged group with duplicate databases should be rejected")
	}
}
