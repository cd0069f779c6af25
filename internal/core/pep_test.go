package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/chaos"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/mpi"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
)

// buildEventSample fills a dataset with events spread over runs/subruns and
// attaches a payload product to each. Returns the set of expected IDs.
func buildEventSample(t testing.TB, ds *DataStore, path string, runs, subruns, events int) map[EventID]bool {
	t.Helper()
	ctx := context.Background()
	d, err := ds.CreateDataSet(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	wb := ds.NewWriteBatch()
	wb.MaxPending = 4096
	want := make(map[EventID]bool)
	for r := 1; r <= runs; r++ {
		run, err := wb.CreateRun(ctx, d, uint64(r))
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < subruns; s++ {
			sr, err := wb.CreateSubRun(ctx, run, uint64(s))
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < events; e++ {
				ev, err := wb.CreateEvent(ctx, sr, uint64(e))
				if err != nil {
					t.Fatal(err)
				}
				payload := []particle{{X: float32(r), Y: float32(s), Z: float32(e)}}
				if err := wb.Store(ctx, ev, "parts", payload); err != nil {
					t.Fatal(err)
				}
				want[EventID{Run: uint64(r), SubRun: uint64(s), Event: uint64(e)}] = true
			}
		}
	}
	if err := wb.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestProcessEventsCoversEveryEventExactlyOnce(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2})
	want := buildEventSample(t, ds, "pep", 3, 8, 20) // 480 events
	d, _ := ds.OpenDataSet(context.Background(), "pep")

	var mu sync.Mutex
	seen := make(map[EventID]int)
	const ranks = 6
	var statsByRank [ranks]PEPStats
	var errByRank [ranks]error

	mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
		stats, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{
			LoadBatchSize: 64,
			WorkBatchSize: 8,
		}, func(ev *Event) error {
			mu.Lock()
			seen[ev.ID()]++
			mu.Unlock()
			return nil
		})
		statsByRank[c.Rank()] = stats
		errByRank[c.Rank()] = err
	})

	for r, err := range errByRank {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("saw %d distinct events, want %d", len(seen), len(want))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("event %v processed %d times", id, n)
		}
		if !want[id] {
			t.Fatalf("unexpected event %v", id)
		}
	}
	var total int64
	local := 0
	for _, st := range statsByRank {
		local += st.LocalEvents
		total = st.TotalEvents
	}
	if local != len(want) || total != int64(len(want)) {
		t.Fatalf("stats: local sum %d, total %d, want %d", local, total, len(want))
	}
	if statsByRank[0].Throughput <= 0 {
		t.Fatal("throughput not computed")
	}
}

func TestProcessEventsLoadIsShared(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	buildEventSample(t, ds, "balance", 2, 16, 30) // 960 events
	d, _ := ds.OpenDataSet(context.Background(), "balance")

	const ranks = 4
	var counts [ranks]int
	mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
		stats, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{
			LoadBatchSize: 128,
			WorkBatchSize: 8,
		}, func(*Event) error { return nil })
		if err != nil {
			t.Error(err)
		}
		counts[c.Rank()] = stats.LocalEvents
	})
	// Fine-grained batches should spread work: no rank should get
	// everything, every rank should get something.
	for r, n := range counts {
		if n == 0 {
			t.Fatalf("rank %d processed nothing: %v", r, counts)
		}
		if n == 960 {
			t.Fatalf("rank %d processed everything: %v", r, counts)
		}
	}
}

func TestProcessEventsWithProducts(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2})
	buildEventSample(t, ds, "prods", 2, 4, 10)
	d, _ := ds.OpenDataSet(context.Background(), "prods")

	var mu sync.Mutex
	bad := 0
	mpi.NewWorld(3).Run(func(c *mpi.Comm) {
		_, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{
			WorkBatchSize: 4,
		}, func(ev *Event) error {
			var ps []particle
			if err := ev.Load(context.Background(), "parts", &ps); err != nil {
				return err
			}
			id := ev.ID()
			if len(ps) != 1 || ps[0].X != float32(id.Run) || ps[0].Z != float32(id.Event) {
				mu.Lock()
				bad++
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	if bad != 0 {
		t.Fatalf("%d events had mismatched products", bad)
	}
}

func TestProcessEventsPrefetch(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2})
	buildEventSample(t, ds, "prefetch", 2, 4, 25)
	d, _ := ds.OpenDataSet(context.Background(), "prefetch")

	// With prefetch, loads must be served from the shipped cache — verify
	// by checking correctness and that it works with a canceled-later ctx.
	var mu sync.Mutex
	loaded := 0
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		_, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{
			WorkBatchSize: 8,
			Prefetch:      []ProductSelector{SelectorFor("parts", []particle{})},
		}, func(ev *Event) error {
			var ps []particle
			if err := ev.Load(context.Background(), "parts", &ps); err != nil {
				return err
			}
			if len(ps) != 1 {
				return fmt.Errorf("event %v: %d particles", ev.ID(), len(ps))
			}
			mu.Lock()
			loaded++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	if loaded != 200 {
		t.Fatalf("loaded %d products, want 200", loaded)
	}
}

// TestProcessEventsPrefetchesOncePerPage pins the PEP's two batch sizes: a
// reader prefetches once per key page (LoadBatchSize events) and cuts the
// page into work batches. The page size is not a multiple of the work batch
// size, so pages end mid-batch and every later batch's prefetch entries are
// re-based. Each event must still load its own product from the prefetch,
// and the pass must send at most one get_multi per product database per page.
func TestProcessEventsPrefetchesOncePerPage(t *testing.T) {
	ds, dep, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 2})
	want := buildEventSample(t, ds, "perpage", 2, 8, 150) // 2 400 events
	d, _ := ds.OpenDataSet(context.Background(), "perpage")

	// served sums the servers' per-op counts on the databases of one role.
	served := func(role, op string) float64 {
		var n float64
		for _, srv := range dep.Servers {
			for _, f := range srv.Registry().Snapshot() {
				if f.Name != obs.MetricYokanOps {
					continue
				}
				for _, s := range f.Samples {
					if s.Labels["op"] == op && strings.HasPrefix(s.Labels["db"], role+"_") {
						n += s.Value
					}
				}
			}
		}
		return n
	}
	pages0, multi0, gets0 := served("events", "list_keys"), served("products", "get_multi"), served("products", "get")

	var mu sync.Mutex
	seen := make(map[EventID]int)
	var wrong []string
	var statsByRank [2]PEPStats
	mpi.NewWorld(2).Run(func(c *mpi.Comm) {
		stats, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{
			LoadBatchSize: 100,
			WorkBatchSize: 64,
			Prefetch:      []ProductSelector{SelectorFor("parts", []particle{})},
		}, func(ev *Event) error {
			var ps []particle
			if err := ev.Load(context.Background(), "parts", &ps); err != nil {
				return err
			}
			id := ev.ID()
			mu.Lock()
			defer mu.Unlock()
			seen[id]++
			if len(ps) != 1 || ps[0] != (particle{X: float32(id.Run), Y: float32(id.SubRun), Z: float32(id.Event)}) {
				wrong = append(wrong, fmt.Sprintf("%v loaded %v", id, ps))
			}
			return nil
		})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		statsByRank[c.Rank()] = stats
	})

	if len(seen) != len(want) {
		t.Fatalf("saw %d distinct events, want %d", len(seen), len(want))
	}
	for id, n := range seen {
		if n != 1 || !want[id] {
			t.Fatalf("event %v processed %d times (expected: %v)", id, n, want[id])
		}
	}
	if len(wrong) > 0 {
		t.Fatalf("%d events loaded another event's product, e.g. %s", len(wrong), wrong[0])
	}
	for r, st := range statsByRank {
		if st.LocalDegraded != 0 {
			t.Errorf("rank %d: LocalDegraded = %d, want 0", r, st.LocalDegraded)
		}
	}
	if gets := served("products", "get") - gets0; gets != 0 {
		t.Errorf("%v on-demand product gets reached the servers, want 0", gets)
	}
	pages := served("events", "list_keys") - pages0
	multi := served("products", "get_multi") - multi0
	t.Logf("%v key pages, %v product get_multi calls", pages, multi)
	if bound := float64(len(ds.v().ProductDBs)) * pages; multi > bound {
		t.Errorf("%v product get_multi calls over %v key pages, want at most %v (one per product database per page)",
			multi, pages, bound)
	}
}

func TestProcessEventsSingleRank(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	want := buildEventSample(t, ds, "solo", 1, 4, 10)
	d, _ := ds.OpenDataSet(context.Background(), "solo")
	n := 0
	mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		stats, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{}, func(*Event) error {
			n++
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		if stats.TotalEvents != int64(len(want)) {
			t.Errorf("total = %d", stats.TotalEvents)
		}
	})
	if n != len(want) {
		t.Fatalf("processed %d, want %d", n, len(want))
	}
}

func TestProcessEventsEmptyDataset(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	d, _ := ds.CreateDataSet(context.Background(), "empty")
	mpi.NewWorld(3).Run(func(c *mpi.Comm) {
		stats, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{}, func(*Event) error {
			t.Error("callback invoked on empty dataset")
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		if stats.TotalEvents != 0 {
			t.Errorf("total = %d", stats.TotalEvents)
		}
	})
}

func TestProcessEventsCallbackError(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	buildEventSample(t, ds, "failing", 1, 2, 50)
	d, _ := ds.OpenDataSet(context.Background(), "failing")
	boom := errors.New("detector on fire")
	gotErr := 0
	var mu sync.Mutex
	mpi.NewWorld(3).Run(func(c *mpi.Comm) {
		_, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{WorkBatchSize: 4}, func(ev *Event) error {
			return boom
		})
		// Ranks that processed at least one batch must report the error;
		// crucially, nobody deadlocks.
		if errors.Is(err, boom) {
			mu.Lock()
			gotErr++
			mu.Unlock()
		}
	})
	if gotErr == 0 {
		t.Fatal("no rank reported the callback error")
	}
}

func TestProcessEventsMoreReadersThanRanks(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2}) // 8 event DBs
	want := buildEventSample(t, ds, "fewranks", 2, 6, 10)
	d, _ := ds.OpenDataSet(context.Background(), "fewranks")
	var mu sync.Mutex
	n := 0
	mpi.NewWorld(2).Run(func(c *mpi.Comm) { // fewer ranks than event DBs
		_, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{WorkBatchSize: 8}, func(*Event) error {
			mu.Lock()
			n++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	if n != len(want) {
		t.Fatalf("processed %d, want %d", n, len(want))
	}
}

// TestProcessEventsSurfacesListingFailure pins that a failed event-database
// listing reaches every rank's ProcessEvents error instead of silently
// shortening the run: at RF=1 there is no replica to fail over to, so one
// dropped list_keys RPC must fail the pass.
func TestProcessEventsSurfacesListingFailure(t *testing.T) {
	// One event database, so the dropped listing is the one with the events.
	d, err := bedrock.Deploy(bedrock.DeploySpec{
		Servers: 1, ProvidersPerServer: 1, EventDBsPerServer: 1, ProductDBsPerServer: 1,
		NamePrefix: fmt.Sprintf("coretest-%d", deploySeq.Add(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Shutdown)
	in := chaos.New(chaos.SeedFromEnv(1), &chaos.DropN{N: 1})
	chaos.Report(t, in)
	fault := in.ClientFault()
	var armed atomic.Bool
	ds, err := Connect(context.Background(), ClientConfig{Group: d.Group, NetSim: &fabric.NetSim{
		Fault: func(target fabric.Address, rpc string, size int, tenant string) error {
			if !armed.Load() || !strings.HasSuffix(rpc, "#list_keys") {
				return nil
			}
			return fault(target, rpc, size, tenant)
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.Close)
	buildEventSample(t, ds, "droplist", 1, 2, 20)
	dset, _ := ds.OpenDataSet(context.Background(), "droplist")

	armed.Store(true)
	mpi.NewWorld(3).Run(func(c *mpi.Comm) {
		stats, err := ds.ProcessEvents(context.Background(), c, dset, PEPOptions{}, func(*Event) error { return nil })
		if !errors.Is(err, chaos.ErrInjectedDrop) {
			t.Errorf("rank %d: err = %v after a dropped listing (%d of 40 events delivered), want the injected drop",
				c.Rank(), err, stats.TotalEvents)
		}
	})
	if in.Drops() != 1 {
		t.Fatalf("scenario dropped %d messages, want 1", in.Drops())
	}
}
