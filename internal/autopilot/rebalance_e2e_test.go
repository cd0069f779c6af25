package autopilot

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/chaos"
	"github.com/hep-on-hpc/hepnos-go/internal/core"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/mpi"
	"github.com/hep-on-hpc/hepnos-go/internal/resilience"
)

// particle mirrors Listing 1's example product payload.
type particle struct {
	X, Y, Z float32
}

var deploySeq atomic.Int64

// newAutopilotCluster deploys a small service and connects a client with
// fast retries, optionally routed through a chaos injector.
func newAutopilotCluster(t testing.TB, spec bedrock.DeploySpec, scenario ...*chaos.Injector) (*core.DataStore, *bedrock.Deployment, bedrock.DeploySpec) {
	t.Helper()
	if spec.NamePrefix == "" {
		spec.NamePrefix = fmt.Sprintf("autopilot-%d", deploySeq.Add(1))
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
	cfg := core.ClientConfig{
		Group:            d.Group,
		DisableHeartbeat: true,
		Resilience: &resilience.Policy{
			MaxRetries:     8,
			InitialBackoff: 50 * time.Microsecond,
			MaxBackoff:     time.Millisecond,
			Retryable:      fabric.RetryableError,
		},
	}
	if len(scenario) > 0 {
		cfg.NetSim = &fabric.NetSim{Fault: scenario[0].ClientFault()}
	}
	ds, err := core.Connect(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.Close)
	return ds, d, spec
}

// fastPolicy is the migrator's retry budget in tests: enough attempts to
// ride out an overload storm, small backoffs to keep the run quick.
func fastPolicy() *resilience.Policy {
	return &resilience.Policy{
		MaxRetries:     4,
		InitialBackoff: 200 * time.Microsecond,
		MaxBackoff:     5 * time.Millisecond,
		Retryable:      fabric.RetryableError,
	}
}

// TestRebalanceE2E is the acceptance scenario for fault-tolerant live
// rebalancing, end to end on one CHAOS_SEED-deterministic schedule:
//
//  1. a 4-server RF=2 cluster ingests half the dataset;
//  2. a grow to 8 servers is attempted, and a seeded-random *destination*
//     dies mid-copy — the autopilot must abort, roll the membership back,
//     and keep serving on the committed view with nothing lost;
//  3. the grow retries after healing (fresh destination boots) while the
//     second half of the dataset ingests concurrently — the dual-write
//     window must land those racing writes in both views;
//  4. at the handoff (between epoch commit and retire) a seeded-random
//     old server is partitioned away, and spot reads through the
//     dual-read window must still return byte-identical payloads;
//  5. the cluster drains 8 → 5 under an injection-bandwidth overload
//     storm riding the same fabric as the evacuation traffic;
//  6. a full ParallelEventProcessor audit sees every event exactly once
//     with correct payloads after each topology change.
func TestRebalanceE2E(t *testing.T) {
	seed := chaos.SeedFromEnv(20260808)
	rng := rand.New(rand.NewSource(seed))
	doomed := 4 + rng.Intn(4) // destination killed mid-copy (a new server)
	partIdx := rng.Intn(4)    // old server partitioned at the handoff
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("rebalance e2e failed with seed %d (doomed destination %d, partitioned server %d); replay with %s=%d go test -run '%s'",
				seed, doomed, partIdx, chaos.SeedEnv, seed, t.Name())
		}
	})

	partition := &chaos.PartitionDuringHandoff{}
	storm := &chaos.StormDuringDrain{Storm: chaos.OverloadStorm{Period: 40, Len: 8, P: 0.5}}
	injector := chaos.New(seed, &chaos.Compose{Scenarios: []chaos.Scenario{partition, storm}})
	chaos.Report(t, injector)

	ds, d, spec := newAutopilotCluster(t, bedrock.DeploySpec{Servers: 4, RF: 2}, injector)
	ctx := context.Background()
	partition.Peers = []fabric.Address{fabric.Address(d.Group.Servers[partIdx].Address)}

	cluster := NewCluster(spec, d, ds)
	cluster.Mig.Policy = fastPolicy()

	// ---- 1. first half of the ingest on the 4-server layout ----
	const runs, subruns, events = 2, 4, 6
	dset, err := ds.CreateDataSet(ctx, "e2e/rebalance")
	if err != nil {
		t.Fatal(err)
	}
	var wantMu sync.Mutex
	want := make(map[core.EventID]particle)
	ingest := func(firstRun, lastRun int) error {
		wb := ds.NewWriteBatch()
		for r := firstRun; r <= lastRun; r++ {
			run, err := wb.CreateRun(ctx, dset, uint64(r))
			if err != nil {
				return err
			}
			for s := 0; s < subruns; s++ {
				sr, err := wb.CreateSubRun(ctx, run, uint64(s))
				if err != nil {
					return err
				}
				for e := 0; e < events; e++ {
					ev, err := wb.CreateEvent(ctx, sr, uint64(e))
					if err != nil {
						return err
					}
					p := particle{X: float32(r), Y: float32(s), Z: float32(e)}
					if err := wb.Store(ctx, ev, "parts", []particle{p}); err != nil {
						return err
					}
					wantMu.Lock()
					want[core.EventID{Run: uint64(r), SubRun: uint64(s), Event: uint64(e)}] = p
					wantMu.Unlock()
				}
			}
		}
		return wb.Flush(ctx)
	}
	if err := ingest(1, runs); err != nil {
		t.Fatal(err)
	}

	// ---- 2. grow 4 → 8, destination dies mid-copy: abort + rollback ----
	var killOnce sync.Once
	cluster.Mig.OnCopyRange = func(role string, done, total int) {
		if done >= 2 {
			killOnce.Do(func() { d.Servers[doomed].Shutdown() })
		}
	}
	if err := cluster.Grow(ctx, 4); err == nil {
		t.Fatal("grow with a dead destination succeeded")
	}
	cluster.Mig.OnCopyRange = nil
	if got := cluster.Servers(); got != 4 {
		t.Fatalf("membership after aborted grow: %d servers, want 4", got)
	}
	if ds.AltView() != nil {
		t.Fatal("aborted grow left the migration window open")
	}
	if st := cluster.Mig.Status(); st.Phase != PhaseAborted || st.LastError == "" {
		t.Fatalf("status after aborted grow: %+v", st)
	}

	// ---- 3+4. healed grow retry, mid-ingest, partition at the handoff ----
	handoffChecked := make(chan error, 1)
	cluster.Mig.OnPhase = func(phase string) {
		if phase != PhaseRetire {
			return
		}
		// The epoch just bumped; the outgoing view is still attached for
		// dual-read. Partition one old server and spot-read through it.
		partition.Arm()
		defer partition.Disarm()
		handoffChecked <- func() error {
			dd, err := ds.OpenDataSet(ctx, "e2e/rebalance")
			if err != nil {
				return err
			}
			for r := 1; r <= runs; r++ {
				run, err := dd.Run(ctx, uint64(r))
				if err != nil {
					return fmt.Errorf("run %d during handoff partition: %w", r, err)
				}
				sr, err := run.SubRun(ctx, 0)
				if err != nil {
					return fmt.Errorf("subrun %d/0 during handoff partition: %w", r, err)
				}
				ev, err := sr.Event(ctx, 0)
				if err != nil {
					return fmt.Errorf("event %d/0/0 during handoff partition: %w", r, err)
				}
				var ps []particle
				if err := ev.Load(ctx, "parts", &ps); err != nil {
					return fmt.Errorf("load %d/0/0 during handoff partition: %w", r, err)
				}
				wantMu.Lock()
				exp := want[core.EventID{Run: uint64(r)}]
				wantMu.Unlock()
				if len(ps) != 1 || ps[0] != exp {
					return fmt.Errorf("event %d/0/0 read %+v during handoff, want %+v", r, ps, exp)
				}
			}
			return nil
		}()
	}
	ingestErr := make(chan error, 1)
	go func() { ingestErr <- ingest(runs+1, 2*runs) }()
	if err := cluster.Grow(ctx, 4); err != nil {
		t.Fatalf("healed grow retry: %v", err)
	}
	cluster.Mig.OnPhase = nil
	if err := <-ingestErr; err != nil {
		t.Fatalf("concurrent ingest during grow: %v", err)
	}
	select {
	case err := <-handoffChecked:
		if err != nil {
			t.Fatalf("reads through the handoff partition: %v", err)
		}
	default:
		t.Fatal("the retire phase hook never ran")
	}
	if got := cluster.Servers(); got != 8 {
		t.Fatalf("after grow: %d servers, want 8", got)
	}
	if ds.AltView() != nil {
		t.Fatal("grow left the migration window open")
	}
	epochAfterGrow := ds.GroupEpoch()
	if epochAfterGrow <= 1 {
		t.Fatalf("epoch after grow = %d, want > 1", epochAfterGrow)
	}

	// The admin RPC on every server (old and new) reports the finished
	// migration — this is what cmd/hepnos-metrics renders.
	for _, idx := range []int{0, 7} {
		st, err := bedrock.ScrapeRebalance(ctx, ds.Margo(), d.Servers[idx].Addr())
		if err != nil {
			t.Fatalf("scrape rebalance from server %d: %v", idx, err)
		}
		if st.Phase != PhaseDone || st.RangesMoved == 0 || st.RangesTotal == 0 || st.KeysCopied == 0 {
			t.Fatalf("server %d rebalance status after grow: %+v", idx, st)
		}
		if st.Epoch != epochAfterGrow {
			t.Fatalf("server %d reports epoch %d, client committed %d", idx, st.Epoch, epochAfterGrow)
		}
	}

	total := len(want)
	runPass(t, ds, want, "post-grow pass")

	// ---- 5. drain 8 → 5 under an overload storm ----
	cluster.Mig.OnPhase = func(phase string) {
		switch phase {
		case PhaseCopy:
			storm.Arm()
		case PhaseCommit:
			storm.Disarm()
		}
	}
	if err := cluster.Drain(ctx, 3); err != nil {
		t.Fatalf("drain under storm: %v", err)
	}
	cluster.Mig.OnPhase = nil
	if got := cluster.Servers(); got != 5 {
		t.Fatalf("after drain: %d servers, want 5", got)
	}
	if ds.AltView() != nil {
		t.Fatal("drain left the migration window open")
	}
	if ds.GroupEpoch() <= epochAfterGrow {
		t.Fatalf("drain did not advance the epoch: %d", ds.GroupEpoch())
	}
	if len(want) != total {
		t.Fatalf("test bug: want set changed size")
	}

	// ---- 6. final audit: every event exactly once, byte-identical ----
	runPass(t, ds, want, "post-drain pass")
}

// runPass runs a full multi-rank PEP audit: every expected event exactly
// once, payload equal to what was stored.
func runPass(t *testing.T, ds *core.DataStore, want map[core.EventID]particle, label string) {
	t.Helper()
	ctx := context.Background()
	dd, err := ds.OpenDataSet(ctx, "e2e/rebalance")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[core.EventID]int)
	bad := 0
	const ranks = 4
	mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
		_, err := ds.ProcessEvents(ctx, c, dd, core.PEPOptions{
			LoadBatchSize: 32,
			WorkBatchSize: 8,
			Prefetch:      []core.ProductSelector{core.SelectorFor("parts", []particle{})},
		}, func(ev *core.Event) error {
			var ps []particle
			if err := ev.Load(ctx, "parts", &ps); err != nil {
				return fmt.Errorf("event %v: %w", ev.ID(), err)
			}
			id := ev.ID()
			mu.Lock()
			seen[id]++
			if exp, ok := want[id]; !ok || len(ps) != 1 || ps[0] != exp {
				bad++
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Errorf("%s rank %d: %v", label, c.Rank(), err)
		}
	})
	if bad != 0 {
		t.Fatalf("%s: %d events had wrong or missing payloads", label, bad)
	}
	if len(seen) != len(want) {
		t.Fatalf("%s: saw %d distinct events, want %d (lost %d)", label, len(seen), len(want), len(want)-len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("%s: event %v processed %d times (duplicate delivery)", label, id, n)
		}
	}
}
