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
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/mpi"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// These tests drive the live migrator (migrate.go) from inside the package:
// one serving DataStore, resized by hand the way autopilot.Cluster does it —
// boot or drop servers, discover the target view, then
// BeginMigration → CopyToView → VerifyView → CommitMigration → RetireView.

// deployAndConnect boots a service and connects with the given placement.
func deployAndConnect(t *testing.T, servers int, prefix string, placement Placement) (*DataStore, *bedrock.Deployment, bedrock.DeploySpec) {
	t.Helper()
	spec := bedrock.DeploySpec{
		Servers:             servers,
		ProvidersPerServer:  2,
		EventDBsPerServer:   4,
		ProductDBsPerServer: 4,
		NamePrefix:          prefix,
	}
	d, err := bedrock.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Shutdown)
	ds, err := Connect(context.Background(), ClientConfig{Group: d.Group, Placement: placement})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.Close)
	return ds, d, spec
}

// bootExtra boots n more servers of the spec's layout and appends them to
// the deployment (they serve nothing until a migration commits a view that
// includes them).
func bootExtra(t *testing.T, d *bedrock.Deployment, spec bedrock.DeploySpec, n int) {
	t.Helper()
	old := len(d.Servers)
	spec.Servers = old + n
	cfgs, err := bedrock.BuildConfigs(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs[old:] {
		srv, err := bedrock.Boot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.Servers = append(d.Servers, srv)
		d.Group.Servers = append(d.Group.Servers, srv.Descriptor())
	}
}

// viewOf discovers the view spanning the deployment's first n servers at
// the given membership epoch.
func viewOf(t *testing.T, ds *DataStore, d *bedrock.Deployment, n int, epoch uint64) *View {
	t.Helper()
	g := d.Group
	g.Servers = append([]bedrock.ServerDescriptor(nil), d.Group.Servers[:n]...)
	g.Epoch = epoch
	v, err := ds.DiscoverView(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// migrate runs one full migration onto target and returns the copy pass's
// stats.
func migrate(t *testing.T, ds *DataStore, target *View) CopyStats {
	t.Helper()
	return migrateSteps(t, ds, target, func(string) {})
}

// migrateSteps is migrate with a hook that runs after the verify, commit
// and retire steps, named by its argument.
func migrateSteps(t *testing.T, ds *DataStore, target *View, after func(step string)) CopyStats {
	t.Helper()
	ctx := context.Background()
	if err := ds.BeginMigration(target); err != nil {
		t.Fatal(err)
	}
	st, err := ds.CopyToView(ctx, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Like the autopilot's migrator, verify until a round repairs nothing: a
	// copy that lands on a database the walk has yet to reach can be picked
	// up there under a false reading of a product key and copied once more.
	for round := 0; ; round++ {
		_, repaired, err := ds.VerifyView(ctx, target)
		if err != nil {
			t.Fatal(err)
		}
		if repaired == 0 {
			break
		}
		if round == 3 {
			t.Fatalf("verify still repairing %d copies after %d rounds", repaired, round)
		}
	}
	after("verify")
	if err := ds.CommitMigration(target); err != nil {
		t.Fatal(err)
	}
	after("commit")
	if _, err := ds.RetireView(ctx); err != nil {
		t.Fatal(err)
	}
	after("retire")
	return st
}

// populate writes a mixed hierarchy with products on several levels.
func populate(t *testing.T, ds *DataStore) (events int) {
	t.Helper()
	ctx := context.Background()
	d, err := ds.CreateDataSet(ctx, "resc/data")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store(ctx, "calib", particle{X: 9}); err != nil {
		t.Fatal(err)
	}
	wb := ds.NewWriteBatch()
	for r := uint64(1); r <= 2; r++ {
		run, err := wb.CreateRun(ctx, d, r)
		if err != nil {
			t.Fatal(err)
		}
		for s := uint64(0); s < 4; s++ {
			sr, err := wb.CreateSubRun(ctx, run, s)
			if err != nil {
				t.Fatal(err)
			}
			for e := uint64(0); e < 40; e++ {
				ev, err := wb.CreateEvent(ctx, sr, e)
				if err != nil {
					t.Fatal(err)
				}
				if err := wb.Store(ctx, ev, "p", []particle{{X: float32(r), Y: float32(s), Z: float32(e)}}); err != nil {
					t.Fatal(err)
				}
				events++
			}
		}
	}
	if err := wb.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return events
}

// verifyAll checks the full hierarchy and products through the datastore.
func verifyAll(t *testing.T, ds *DataStore, wantEvents int) {
	t.Helper()
	ctx := context.Background()
	d, err := ds.OpenDataSet(ctx, "resc/data")
	if err != nil {
		t.Fatal(err)
	}
	var calib particle
	if err := d.Load(ctx, "calib", &calib); err != nil || calib.X != 9 {
		t.Fatalf("dataset product after migration: %v %v", calib, err)
	}
	runs, err := d.Runs(ctx)
	if err != nil || !reflect.DeepEqual(runs, []uint64{1, 2}) {
		t.Fatalf("runs = %v %v", runs, err)
	}
	got := 0
	for _, rn := range runs {
		run, err := d.Run(ctx, rn)
		if err != nil {
			t.Fatal(err)
		}
		subs, err := run.SubRuns(ctx)
		if err != nil || len(subs) != 4 {
			t.Fatalf("subruns = %v %v", subs, err)
		}
		for _, sn := range subs {
			sr, err := run.SubRun(ctx, sn)
			if err != nil {
				t.Fatal(err)
			}
			events, err := sr.Events(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, en := range events {
				ev, err := sr.Event(ctx, en)
				if err != nil {
					t.Fatal(err)
				}
				var ps []particle
				if err := ev.Load(ctx, "p", &ps); err != nil {
					t.Fatalf("event %d/%d/%d product: %v", rn, sn, en, err)
				}
				if len(ps) != 1 || ps[0].Z != float32(en) {
					t.Fatalf("event %d product corrupted: %v", en, ps)
				}
				got++
			}
		}
	}
	if got != wantEvents {
		t.Fatalf("found %d events after migration, want %d", got, wantEvents)
	}
}

// assertNothingUnclaimed lists every database of the committed view and
// fails on a key whose committed replica sets do not include the database
// holding it — what a finished RetireView must leave behind.
func assertNothingUnclaimed(t *testing.T, ds *DataStore) {
	t.Helper()
	ctx := context.Background()
	v := ds.v()
	for _, r := range migrationRoles(v, v) {
		for _, db := range r.src {
			ks, err := ds.yc.ListKeys(ctx, db, nil, nil, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range ks {
				claimed := false
				for _, parent := range r.parents(k) {
					claimed = claimed || containsDB(ds.replicasFor(r.dst, parent), db)
				}
				if !claimed {
					t.Fatalf("%s: unclaimed key %x left on %s", r.name, k, db)
				}
			}
		}
	}
}

// testMigrateRoundTrip grows a serving 2-server store to 3 servers and
// drains it back, checking after each leg that all five roles read back and
// that retire left nothing on a database that does not own it.
func testMigrateRoundTrip(t *testing.T, placement Placement) {
	ds, d, spec := deployAndConnect(t, 2, fmt.Sprintf("mig-rt-%s", placement), placement)
	n := populate(t, ds)
	bootExtra(t, d, spec, 1)

	grow := migrate(t, ds, viewOf(t, ds, d, 3, 2))
	for _, role := range []string{"datasets", "runs", "subruns", "events", "products"} {
		if grow.Scanned[role] == 0 {
			t.Fatalf("role %s was not scanned: %+v", role, grow)
		}
	}
	if grow.TotalCopied() == 0 {
		t.Fatalf("grow copied nothing: %+v", grow)
	}
	if got := len(ds.Group().Servers); got != 3 {
		t.Fatalf("committed membership has %d servers, want 3", got)
	}
	verifyAll(t, ds, n)
	assertNothingUnclaimed(t, ds)

	migrate(t, ds, viewOf(t, ds, d, 2, 3))
	d.Servers[2].Shutdown() // the drained server must not be needed anymore
	verifyAll(t, ds, n)
	assertNothingUnclaimed(t, ds)
}

func TestMigrateRoundTripModulo(t *testing.T) { testMigrateRoundTrip(t, PlacementModulo) }
func TestMigrateRoundTripJump(t *testing.T)   { testMigrateRoundTrip(t, PlacementJump) }

// TestMigrateMovedFraction quantifies the Pufferscale trade on the live
// migrator's own stats: growing 8 event databases to 12 relocates ≈1/3 of
// the subruns' events under jump placement and ≈2/3 under modulo. One event
// per subrun makes every event key an independent placement draw.
func TestMigrateMovedFraction(t *testing.T) {
	const subruns = 300
	moved := func(p Placement) float64 {
		ds, d, spec := deployAndConnect(t, 2, fmt.Sprintf("mig-frac-%s", p), p)
		ctx := context.Background()
		dset, err := ds.CreateDataSet(ctx, "frac")
		if err != nil {
			t.Fatal(err)
		}
		wb := ds.NewWriteBatch()
		run, err := wb.CreateRun(ctx, dset, 1)
		if err != nil {
			t.Fatal(err)
		}
		for s := uint64(0); s < subruns; s++ {
			sr, err := wb.CreateSubRun(ctx, run, s)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wb.CreateEvent(ctx, sr, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := wb.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		bootExtra(t, d, spec, 1)
		st := migrate(t, ds, viewOf(t, ds, d, 3, 2))
		return float64(st.Copied["events"]) / subruns
	}
	jump, modulo := moved(PlacementJump), moved(PlacementModulo)
	if jump > 0.5 {
		t.Fatalf("jump moved %.0f%% of the events, want ≈33%%", 100*jump)
	}
	if modulo < 0.5 {
		t.Fatalf("modulo moved %.0f%% of the events, want ≈67%%", 100*modulo)
	}
}

func TestPlacementStrategiesAreIsolated(t *testing.T) {
	// The same service read with a different placement strategy would
	// look in the wrong databases — verify the strategies really differ
	// and that a consistent client sees its own writes.
	ds, d, _ := deployAndConnect(t, 2, "placement-iso", PlacementJump)
	ctx := context.Background()
	if _, err := ds.CreateDataSet(ctx, "jump/only"); err != nil {
		t.Fatal(err)
	}
	dsJump2, err := Connect(ctx, ClientConfig{Group: d.Group, Placement: PlacementJump})
	if err != nil {
		t.Fatal(err)
	}
	defer dsJump2.Close()
	if _, err := dsJump2.OpenDataSet(ctx, "jump/only"); err != nil {
		t.Fatal("same-strategy client must see the dataset:", err)
	}
}

// rpcGate is a client fault hook that parks the caller of one chosen RPC —
// the nth whose name ends in suffix after arm — until release closes. It
// pauses a paginated read between two of its pages without touching the
// read's own code.
type rpcGate struct {
	mu        sync.Mutex
	suffix    string
	countdown int
	trapped   chan struct{}
	release   chan struct{}
	open      sync.Once
}

// resume lets every parked caller go (idempotent).
func (g *rpcGate) resume() { g.open.Do(func() { close(g.release) }) }

func (g *rpcGate) arm(suffix string, nth int) {
	g.mu.Lock()
	g.suffix, g.countdown = suffix, nth
	g.mu.Unlock()
}

func (g *rpcGate) fault(_ fabric.Address, rpc string, _ int, _ string) error {
	g.mu.Lock()
	hit := g.countdown > 0 && strings.HasSuffix(rpc, g.suffix)
	if hit {
		g.countdown--
		hit = g.countdown == 0
	}
	g.mu.Unlock()
	if hit {
		g.trapped <- struct{}{}
		<-g.release
	}
	return nil
}

// TestPaginatedReadsAcrossCommitAndRetire pins the read-consistency
// guarantee of DESIGN.md §18 for every paginated read: each reader is parked
// between two of its pages, the cluster is migrated 4 → 8 and then 8 → 5
// (both windows fully retired, the drained servers shut down), and the
// resumed read must return exactly what a quiet-view read returns. The
// subrun under test is chosen so its event and product homes move in both
// migrations — the parked request then lands on a database retire has
// already emptied.
func TestPaginatedReadsAcrossCommitAndRetire(t *testing.T) {
	registerScanTrack(t)
	ctx := context.Background()
	spec := bedrock.DeploySpec{
		Servers:             4,
		ProvidersPerServer:  2,
		EventDBsPerServer:   4,
		ProductDBsPerServer: 4,
		NamePrefix:          fmt.Sprintf("paginate-%d", deploySeq.Add(1)),
	}
	d, err := bedrock.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Shutdown)
	gate := &rpcGate{trapped: make(chan struct{}), release: make(chan struct{})}
	defer gate.resume() // a failing assertion must not strand the parked readers
	ds, err := Connect(ctx, ClientConfig{Group: d.Group, NetSim: &fabric.NetSim{Fault: gate.fault}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.Close)
	bootExtra(t, d, spec, 4)
	v4, v8, v5 := ds.v(), viewOf(t, ds, d, 8, 2), viewOf(t, ds, d, 5, 3)

	dset, err := ds.CreateDataSet(ctx, "paginate")
	if err != nil {
		t.Fatal(err)
	}
	run, err := dset.CreateRun(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	home := func(dbs []yokan.DBHandle, key []byte) yokan.DBHandle { return ds.replicasFor(dbs, key)[0] }
	srNum := uint64(0)
	for ; ; srNum++ {
		k := run.key.Child(srNum).Bytes()
		if home(v4.EventDBs, k) != home(v8.EventDBs, k) && home(v8.EventDBs, k) != home(v5.EventDBs, k) &&
			home(v4.ProductDBs, k) != home(v8.ProductDBs, k) && home(v8.ProductDBs, k) != home(v5.ProductDBs, k) {
			break
		}
		if srNum > 4096 {
			t.Fatal("no subrun whose homes move in both migrations")
		}
	}

	// 2100 events (three Events() pages, 300 cursor pages) of eight columnar
	// rows each (66 sealed pages: two scan RPCs), and 1100 row products on
	// the subrun itself (two ListProducts pages).
	const events, rowsPerEvent, srProducts = 2100, 8, 1100
	wb := ds.NewWriteBatch()
	sr, err := wb.CreateSubRun(ctx, run, srNum)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(0); e < events; e++ {
		ev, err := wb.CreateEvent(ctx, sr, e)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]scanTrack, rowsPerEvent)
		for r := range rows {
			rows[r] = scanTrack{ID: uint32(e*10) + uint32(r), Pt: float32(e), Q: int32(r), Tag: "t"}
		}
		if err := wb.Store(ctx, ev, "trk", rows); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < srProducts; i++ {
		if err := wb.Store(ctx, sr, fmt.Sprintf("p%04d", i), particle{X: float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wb.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// The five paginated reads, each returning a comparable result.
	type scanned struct {
		IDs  []EventID
		Rows []scanTrack
	}
	reads := []struct {
		name   string
		rpc    string // the RPC to park at, and which occurrence
		nth    int
		read   func() (any, error)
		viewOK bool // ErrViewChanged is an acceptable outcome
	}{
		{name: "EventCursor", rpc: "#list_keys", nth: 5, read: func() (any, error) {
			var out []uint64
			cur := sr.EventCursor(ctx, 7)
			for cur.Next() {
				out = append(out, cur.Event().Number())
			}
			return out, cur.Err()
		}},
		{name: "Events", rpc: "#list_keys", nth: 2, read: func() (any, error) {
			return sr.Events(ctx)
		}},
		{name: "ListProducts", rpc: "#list_keys", nth: 2, read: func() (any, error) {
			return sr.ListProducts(ctx)
		}},
		{name: "Scan", rpc: "#scan", nth: 2, read: func() (any, error) {
			var out scanned
			cur := dset.Scan(ctx, "trk", []scanTrack{}, serde.Predicate{})
			for cur.Next() {
				var rows []scanTrack
				if err := cur.Rows(&rows); err != nil {
					return nil, err
				}
				out.IDs = append(out.IDs, cur.EventID())
				out.Rows = append(out.Rows, rows...)
			}
			return out, cur.Err()
		}},
		{name: "PEP", rpc: "#list_keys", nth: 5, viewOK: true, read: func() (any, error) {
			var mu sync.Mutex
			var out []uint64
			var perr error
			mpi.NewWorld(2).Run(func(c *mpi.Comm) {
				_, err := ds.ProcessEvents(ctx, c, dset, PEPOptions{LoadBatchSize: 7, WorkBatchSize: 7},
					func(ev *Event) error {
						mu.Lock()
						out = append(out, ev.Number())
						mu.Unlock()
						return nil
					})
				mu.Lock()
				if err != nil {
					perr = err
				}
				mu.Unlock()
			})
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out, perr
		}},
	}

	// Quiet-view baselines.
	want := make([]any, len(reads))
	for i, r := range reads {
		if want[i], err = r.read(); err != nil {
			t.Fatalf("%s on the quiet view: %v", r.name, err)
		}
	}
	if got := want[0].([]uint64); len(got) != events {
		t.Fatalf("baseline cursor saw %d events, want %d", len(got), events)
	}
	if got := want[2].([]string); len(got) != srProducts {
		t.Fatalf("baseline ListProducts saw %d products, want %d", len(got), srProducts)
	}
	if got := want[3].(scanned); len(got.IDs) != events || len(got.Rows) != events*rowsPerEvent {
		t.Fatalf("baseline scan saw %d events / %d rows", len(got.IDs), len(got.Rows))
	}

	// Park every reader mid-pagination, one after the other.
	type outcome struct {
		got any
		err error
	}
	results := make([]chan outcome, len(reads))
	for i, r := range reads {
		results[i] = make(chan outcome, 1)
		gate.arm(r.rpc, r.nth)
		go func(read func() (any, error), ch chan<- outcome) {
			got, err := read()
			ch <- outcome{got, err}
		}(r.read, results[i])
		<-gate.trapped
	}

	// 4 → 8, then 8 → 5, each window fully retired; then the drained servers
	// go away for good.
	migrate(t, ds, v8)
	migrate(t, ds, v5)
	for _, srv := range d.Servers[5:] {
		srv.Shutdown()
	}
	assertNothingUnclaimed(t, ds)
	gate.resume()

	for i, r := range reads {
		res := <-results[i]
		if r.viewOK && errors.Is(res.err, ErrViewChanged) {
			// The per-database PEP enumeration cannot follow a commit: it
			// must say so rather than deliver a short pass. Whatever it did
			// deliver was delivered once, and a rerun is complete.
			seen := map[uint64]bool{}
			for _, n := range res.got.([]uint64) {
				if seen[n] {
					t.Errorf("%s delivered event %d twice before failing", r.name, n)
				}
				seen[n] = true
			}
			res.got, res.err = r.read()
		}
		if res.err != nil {
			t.Errorf("%s across commit and retire: %v", r.name, res.err)
		} else if !reflect.DeepEqual(res.got, want[i]) {
			t.Errorf("%s across commit and retire differs from the quiet-view read", r.name)
		}
	}
}

// TestWriteBatchPlacesAtFlush pins that a WriteBatch decides where an
// update goes when it is sent, not when it is queued (DESIGN.md §18). A
// batch is queued on the quiet view — a subrun, its events, a row product
// and a columnar product per event, enough rows to seal pages before the
// flush — and flushed after the verify, commit or retire step of an RF=2
// grow 4 → 8. Once the window closes every event must be listed and every
// product must load with its stored value. The subrun is chosen so that
// its event and page replica sets under the new view share no database
// with the old: a write sent to the old view alone is erased by retire.
func TestWriteBatchPlacesAtFlush(t *testing.T) {
	registerScanTrack(t)
	const events, rowsPerEvent = 64, 8 // 512 rows: two pages seal while queueing
	for _, flushAfter := range []string{"verify", "commit", "retire"} {
		t.Run("flush-after-"+flushAfter, func(t *testing.T) {
			ctx := context.Background()
			spec := bedrock.DeploySpec{
				Servers:             4,
				ProvidersPerServer:  2,
				EventDBsPerServer:   4,
				ProductDBsPerServer: 4,
				RF:                  2,
				NamePrefix:          fmt.Sprintf("placeflush-%d", deploySeq.Add(1)),
			}
			d, err := bedrock.Deploy(spec)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Shutdown)
			ds, err := Connect(ctx, ClientConfig{Group: d.Group})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ds.Close)
			bootExtra(t, d, spec, 4)
			v4, v8 := ds.v(), viewOf(t, ds, d, 8, 2)

			dset, err := ds.CreateDataSet(ctx, "placeflush")
			if err != nil {
				t.Fatal(err)
			}
			run, err := dset.CreateRun(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			moved := func(r role, key []byte) bool {
				for _, db := range ds.replicasFor(r.of(v8), key) {
					if containsDB(ds.replicasFor(r.of(v4), key), db) {
						return false
					}
				}
				return true
			}
			srNum := uint64(0)
			for k := run.key.Child(srNum).Bytes(); !moved(roleEvents, k) || !moved(roleProducts, k); k = run.key.Child(srNum).Bytes() {
				if srNum++; srNum > 4096 {
					t.Fatal("no subrun whose event and page replicas all move")
				}
			}

			trk := func(e uint64) []scanTrack {
				rows := make([]scanTrack, rowsPerEvent)
				for r := range rows {
					rows[r] = scanTrack{ID: uint32(e*10) + uint32(r), Pt: float32(e), Q: int32(r), Tag: "t"}
				}
				return rows
			}
			wb := ds.NewWriteBatch()
			sr, err := wb.CreateSubRun(ctx, run, srNum)
			if err != nil {
				t.Fatal(err)
			}
			for e := uint64(0); e < events; e++ {
				ev, err := wb.CreateEvent(ctx, sr, e)
				if err != nil {
					t.Fatal(err)
				}
				if err := wb.Store(ctx, ev, "p", particle{X: float32(e)}); err != nil {
					t.Fatal(err)
				}
				if err := wb.Store(ctx, ev, "trk", trk(e)); err != nil {
					t.Fatal(err)
				}
			}

			migrateSteps(t, ds, v8, func(step string) {
				if step == flushAfter {
					if err := wb.Flush(ctx); err != nil {
						t.Fatalf("flush after %s: %v", step, err)
					}
				}
			})

			nums, err := sr.Events(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(nums) != events {
				t.Fatalf("listed %d events, want %d", len(nums), events)
			}
			for e := uint64(0); e < events; e++ {
				ev, err := sr.Event(ctx, e)
				if err != nil {
					t.Fatal(err)
				}
				var p particle
				if err := ev.Load(ctx, "p", &p); err != nil || p.X != float32(e) {
					t.Fatalf("event %d row product = %+v, %v", e, p, err)
				}
				var rows []scanTrack
				if err := ev.Load(ctx, "trk", &rows); err != nil || !reflect.DeepEqual(rows, trk(e)) {
					t.Fatalf("event %d columnar product = %v, %v", e, rows, err)
				}
			}
		})
	}
}

// TestViewPairResolvesConsistently races replica-set resolution against
// migration transitions: readers resolve in a loop while the main goroutine
// runs Begin → Commit → Retire cycles with rising epochs, alternating
// between two views whose event databases place a key differently. A set
// resolved while a window stayed open throughout must include the window
// target's replicas — a resolve that read the committed view before a
// commit and the alternate after it would miss them, and retire would then
// erase a write sent there.
func TestViewPairResolvesConsistently(t *testing.T) {
	ds, _, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 2, EventDBsPerServer: 4})
	ctx := context.Background()
	base := ds.v()
	parent := keys.ForDataSet([keys.UUIDLen]byte{3}).Child(1).Child(2).Bytes()
	// shifted returns base with its event databases rotated by one, so the
	// parent's home differs between the two views.
	shifted := func(v View) *View {
		v.EventDBs = append(append([]yokan.DBHandle(nil), v.EventDBs[1:]...), v.EventDBs[0])
		return &v
	}
	views := [2]*View{base, shifted(*base)}
	if ds.replicasFor(views[0].EventDBs, parent)[0] == ds.replicasFor(views[1].EventDBs, parent)[0] {
		t.Fatal("test bug: both views place the parent on one database")
	}

	// window holds the open window's target while the main goroutine is
	// between a returned BeginMigration and the start of RetireView.
	var window atomic.Pointer[View]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := window.Load()
				set := ds.replicas(place{roleEvents, parent})
				if before == nil || window.Load() != before {
					continue
				}
				for _, db := range ds.replicasFor(before.EventDBs, parent) {
					if !containsDB(set, db) {
						bad.Add(1)
					}
				}
			}
		}()
	}
	epoch := base.Group.Epoch
	for cycle := 0; cycle < 2000; cycle++ {
		epoch++
		next := *views[(cycle+1)%2]
		next.Group.Epoch = epoch
		if err := ds.BeginMigration(&next); err != nil {
			t.Fatal(err)
		}
		window.Store(&next)
		if err := ds.CommitMigration(&next); err != nil {
			t.Fatal(err)
		}
		window.Store(nil)
		if _, err := ds.RetireView(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d replica sets resolved inside a window missed the target's replicas", n)
	}
}

// TestWritesInFlightAcrossMigration parks one write RPC after its replica
// set was resolved on the quiet view and before it reaches the server, runs
// a whole grow 4 → 8 (Begin → Copy → Verify → Commit → Retire), and only
// then lets it go. The write must still be readable through the new view:
// a write whose views moved while it was in flight is sent again, placed
// anew. Both write paths are covered, a WriteBatch flush (one put_multi)
// and a direct CreateEvent (one put); the subrun is chosen so its event
// home moves.
func TestWritesInFlightAcrossMigration(t *testing.T) {
	const events = 8
	for _, path := range []struct {
		name, rpc string
		want      int // events listed afterwards
	}{{"batch", "#put_multi", events}, {"direct", "#put", 1}} {
		t.Run(path.name, func(t *testing.T) {
			ctx := context.Background()
			spec := bedrock.DeploySpec{
				Servers:             4,
				ProvidersPerServer:  2,
				EventDBsPerServer:   4,
				ProductDBsPerServer: 4,
				NamePrefix:          fmt.Sprintf("inflight-%d", deploySeq.Add(1)),
			}
			d, err := bedrock.Deploy(spec)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Shutdown)
			gate := &rpcGate{trapped: make(chan struct{}), release: make(chan struct{})}
			defer gate.resume() // a failing assertion must not strand the parked write
			ds, err := Connect(ctx, ClientConfig{Group: d.Group, NetSim: &fabric.NetSim{Fault: gate.fault}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ds.Close)
			bootExtra(t, d, spec, 4)
			v4, v8 := ds.v(), viewOf(t, ds, d, 8, 2)

			dset, err := ds.CreateDataSet(ctx, "inflight")
			if err != nil {
				t.Fatal(err)
			}
			run, err := dset.CreateRun(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			home := func(dbs []yokan.DBHandle, key []byte) yokan.DBHandle { return ds.replicasFor(dbs, key)[0] }
			srNum := uint64(0)
			for k := run.key.Child(srNum).Bytes(); home(v4.EventDBs, k) == home(v8.EventDBs, k); k = run.key.Child(srNum).Bytes() {
				srNum++
			}
			sr, err := run.CreateSubRun(ctx, srNum)
			if err != nil {
				t.Fatal(err)
			}

			gate.arm(path.rpc, 1)
			done := make(chan error, 1)
			go func() {
				if path.name == "direct" {
					_, err := sr.CreateEvent(ctx, 0)
					done <- err
					return
				}
				wb := ds.NewWriteBatch()
				for e := uint64(0); e < events; e++ {
					if _, err := wb.CreateEvent(ctx, sr, e); err != nil {
						done <- err
						return
					}
				}
				done <- wb.Flush(ctx)
			}()
			<-gate.trapped
			migrate(t, ds, v8)
			gate.resume()
			if err := <-done; err != nil {
				t.Fatalf("write parked across the migration: %v", err)
			}
			nums, err := sr.Events(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(nums) != path.want {
				t.Fatalf("listed %d events after the migration, want %d", len(nums), path.want)
			}
		})
	}
}
