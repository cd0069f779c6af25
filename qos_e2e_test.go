// QoS end-to-end fairness suite: the multi-tenant front door's acceptance
// test. A greedy batch-ingest tenant and an interactive read tenant share
// one QoS-gated service while a chaos storm perturbs the greedy tenant's
// wire. The contract under assertion:
//
//   - the interactive tenant completes 100% of its reads with bounded
//     tail latency, storm or not;
//   - every rejection the greedy tenant sees is a typed ShedError, never
//     a timeout;
//   - the server's metrics scrape exposes per-tenant admitted/shed
//     counters for both tenants.
//
// The storm schedule is a pure function of CHAOS_SEED, so any failure
// replays with CHAOS_SEED=<seed> go test -run TestQoSTwoTenantFairness.
package bench

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/asyncengine"
	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/chaos"
	"github.com/hep-on-hpc/hepnos-go/internal/core"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/resilience"
)

// qosDeploy boots a single-server service with the front door enabled:
// the greedy tenant is rate-limited and down-weighted, the interactive
// tenant gets the larger WFQ share.
func qosDeploy(t *testing.T) *bedrock.Deployment {
	t.Helper()
	dep, err := bedrock.Deploy(bedrock.DeploySpec{
		Servers:             1,
		ProvidersPerServer:  2,
		EventDBsPerServer:   2,
		ProductDBsPerServer: 2,
		NamePrefix:          "qos-fair",
		QoS: &bedrock.QoSConfig{
			Enabled: true,
			Tenants: map[string]qos.TenantConfig{
				"greedy":      {Weight: 1, RatePerSec: 200, Burst: 20},
				"interactive": {Weight: 4},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Shutdown)
	return dep
}

// percentile returns the p-th percentile (0..1) of a latency sample.
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p * float64(len(s)-1))
	return s[i]
}

// TestQoSTwoTenantFairness is the acceptance demo: greedy batch ingest
// and interactive reads run concurrently against one gated server.
func TestQoSTwoTenantFairness(t *testing.T) {
	ctx := context.Background()
	dep := qosDeploy(t)

	// stormLen observations out of every 25 are the storm.
	const stormLen = 8
	seed := chaos.SeedFromEnv(11)
	in := chaos.New(seed, &chaos.OverloadStorm{
		Period: 25, Len: stormLen,
		// Only the greedy tenant's wire storms; the interactive tenant's
		// traffic is clean so its latency bound measures the *gate's*
		// isolation, not the storm's mercy.
		TenantP: map[string]float64{"greedy": 0.4, "interactive": 0},
	})
	chaos.Report(t, in)

	// Every attempt is itself one observation of the injector, so at most
	// stormLen consecutive attempts of one call can fall inside a storm
	// window: with stormLen retries the last attempt always lands in calm,
	// and no flush can surface the storm's transport error. The breaker
	// threshold sits above the same bound so a full window of drops cannot
	// trip it open and turn the next flush into an (untyped) fast failure.
	pol := resilience.Default()
	pol.MaxRetries = stormLen
	pol.Breaker = &resilience.BreakerConfig{FailureThreshold: stormLen + 1}
	pol.InitialBackoff = 100 * time.Microsecond
	pol.MaxBackoff = 2 * time.Millisecond

	greedy, err := core.Connect(ctx, core.ClientConfig{
		Group:      dep.Group,
		Tenant:     "greedy",
		NetSim:     &fabric.NetSim{Fault: in.ClientFault()},
		Resilience: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer greedy.Close()

	reader, err := core.Connect(ctx, core.ClientConfig{
		Group:  dep.Group,
		Tenant: "interactive",
		NetSim: &fabric.NetSim{Fault: in.ClientFault()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	// Seed data for the reader before the contention phase: one dataset
	// with a handful of runs (created within the greedy tenant's burst).
	dataset, err := greedy.CreateDataSet(ctx, "fermilab/nova")
	if err != nil {
		t.Fatal(err)
	}
	seedBatch := greedy.NewWriteBatch()
	for r := uint64(0); r < 8; r++ {
		if _, err := seedBatch.CreateRun(ctx, dataset, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := seedBatch.Flush(ctx); err != nil {
		t.Fatalf("seeding flush: %v", err)
	}

	// Phase 2: contention. The greedy tenant hammers one-update batch
	// flushes well past its admitted rate while the interactive tenant
	// runs its read loop. Both run concurrently for a fixed op count.
	const (
		ingestOps = 400
		readOps   = 200
		readP99   = 2 * time.Second
	)
	var (
		wg          sync.WaitGroup
		shedCount   atomic.Int64
		okCount     atomic.Int64
		untypedErrs atomic.Int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ingestOps; i++ {
			wb := greedy.NewWriteBatch()
			if _, err := wb.CreateRun(ctx, dataset, 1000+uint64(i)); err != nil {
				untypedErrs.Add(1)
				continue
			}
			switch ferr := wb.Flush(ctx); {
			case ferr == nil:
				okCount.Add(1)
			case qos.IsShed(ferr):
				shedCount.Add(1)
			default:
				untypedErrs.Add(1)
			}
		}
	}()

	rd, err := reader.OpenDataSet(ctx, "fermilab/nova")
	if err != nil {
		t.Fatal(err)
	}
	latencies := make([]time.Duration, 0, readOps)
	completed := 0
	for i := 0; i < readOps; i++ {
		start := time.Now()
		runs, rerr := rd.Runs(ctx)
		lat := time.Since(start)
		if rerr != nil {
			t.Fatalf("interactive read %d failed under contention: %v", i, rerr)
		}
		if len(runs) < 8 {
			t.Fatalf("interactive read %d lost seeded runs: got %d", i, len(runs))
		}
		latencies = append(latencies, lat)
		completed++
	}
	wg.Wait()

	// Completion contract: 100% of reads, zero untyped ingest failures.
	if completed != readOps {
		t.Fatalf("interactive tenant completed %d/%d reads", completed, readOps)
	}
	if n := untypedErrs.Load(); n != 0 {
		t.Fatalf("%d greedy failures were not typed sheds", n)
	}
	if shedCount.Load() == 0 {
		t.Fatal("greedy tenant was never shed; the workload did not exceed its rate")
	}
	if okCount.Load() == 0 {
		t.Fatal("greedy tenant never admitted; the bucket rate is miscalibrated")
	}

	// Latency contract: bounded tail for the interactive tenant while the
	// greedy tenant was being shed next door.
	p50 := percentile(latencies, 0.50)
	p99 := percentile(latencies, 0.99)
	if p99 > readP99 {
		t.Fatalf("interactive p99 %v exceeds bound %v (p50 %v)", p99, readP99, p50)
	}

	// Accounting contract: the server-side gate attributes admitted and
	// shed per tenant+class, and the counters survive a metrics scrape.
	gate := dep.Servers[0].Margo().Gate()
	if gate == nil {
		t.Fatal("QoS-enabled server has no gate")
	}
	cells := map[string]int64{}
	for _, c := range gate.Snapshot() {
		cells[c.Tenant+"/"+c.Class+"/admitted"] += c.Admitted
		cells[c.Tenant+"/"+c.Class+"/shed"] += c.Shed
	}
	if cells["interactive/interactive/shed"] != 0 {
		t.Fatalf("interactive tenant was shed: %v", cells)
	}
	if cells["interactive/interactive/admitted"] == 0 {
		t.Fatalf("interactive reads not attributed: %v", cells)
	}
	if cells["greedy/batch/shed"] != shedCount.Load() {
		t.Fatalf("server shed accounting %d != client-observed %d",
			cells["greedy/batch/shed"], shedCount.Load())
	}

	scrape := obs.PromText(dep.Servers[0].Registry().Snapshot())
	for _, want := range []string{
		obs.MetricQoSAdmitted, obs.MetricQoSShed,
		`tenant="greedy"`, `tenant="interactive"`,
		`class="batch"`, `class="interactive"`,
	} {
		if !strings.Contains(scrape, want) {
			t.Fatalf("metrics scrape missing %q", want)
		}
	}

	t.Logf("fairness: reads %d/%d p50=%v p99=%v; ingest ok=%d shed=%d; drops=%d; cells=%v",
		completed, readOps, p50, p99, okCount.Load(), shedCount.Load(), in.Drops(), cells)
}

// TestQoSBackpressureThrottlesIngestPool closes the loop on the pushed
// signal: a client whose server gate reports queue pressure shrinks its
// own ingest pool concurrency, and recovers when the pressure clears.
func TestQoSBackpressureThrottlesIngestPool(t *testing.T) {
	ctx := context.Background()
	// A tiny queue with an early pressure knee so a modest backlog pushes
	// a hard signal.
	dep, err := bedrock.Deploy(bedrock.DeploySpec{
		Servers:             1,
		ProvidersPerServer:  1,
		EventDBsPerServer:   1,
		ProductDBsPerServer: 1,
		NamePrefix:          "qos-press",
		QoS: &bedrock.QoSConfig{
			Enabled:    true,
			MaxQueue:   8,
			PressureAt: 0.01,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Shutdown()

	ds, err := core.Connect(ctx, core.ClientConfig{Group: dep.Group, Tenant: "pusher"})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	gate := dep.Servers[0].Margo().Gate()
	if gate == nil {
		t.Fatal("no gate on QoS-enabled server")
	}
	// Build a standing server-side backlog (the e2e path drains too fast
	// to catch in flight): submit filler items without scheduling their
	// RunNext, as a saturated provider pool would. The fillers carry an
	// enormous WFQ cost so every real request's virtual finish time sorts
	// ahead of them — live RPCs keep flowing while the queue stays deep.
	for i := 0; i < 6; i++ {
		if err := gate.Submit(qos.Identity{Tenant: "filler", Class: qos.ClassInteractive}, 1<<30, func() {}); err != nil {
			t.Fatalf("backlog submit %d: %v", i, err)
		}
	}
	if gate.Pressure() == 0 {
		t.Fatal("backlogged gate reports zero pressure")
	}

	// Any RPC now returns the pressure level in its reply envelope; the
	// client's controller mirrors it onto the ingest pool.
	dataset, err := ds.CreateDataSet(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	_ = dataset
	deadline := time.Now().Add(5 * time.Second)
	for ds.PressureLevel() == 0 && time.Now().Before(deadline) {
		if _, err := ds.OpenDataSet(ctx, "d"); err != nil {
			t.Fatal(err)
		}
	}
	if ds.PressureLevel() == 0 {
		t.Fatal("client never observed the pushed pressure level")
	}
	eng := ds.Engine()
	throttleDeadline := time.Now().Add(5 * time.Second)
	for eng.PressureReserved(asyncengine.PoolIngest) == 0 && time.Now().Before(throttleDeadline) {
		time.Sleep(time.Millisecond)
	}
	if got := eng.PressureReserved(asyncengine.PoolIngest); got == 0 {
		t.Fatal("pushed pressure did not reserve ingest slots")
	} else {
		t.Logf("pressure %d reserved %d ingest slots", ds.PressureLevel(), got)
	}

	// Drain the backlog: pressure falls to zero, the client releases the
	// reservation on its next reply, and ingest capacity is restored.
	for gate.Depth() > 0 {
		gate.RunNext()
	}
	if gate.Pressure() != 0 {
		t.Fatalf("drained gate still reports pressure %d", gate.Pressure())
	}
	releaseDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(releaseDeadline) {
		if _, err := ds.OpenDataSet(ctx, "d"); err != nil {
			t.Fatal(err)
		}
		if ds.PressureLevel() == 0 && eng.PressureReserved(asyncengine.PoolIngest) == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if lvl, held := ds.PressureLevel(), eng.PressureReserved(asyncengine.PoolIngest); lvl != 0 || held != 0 {
		t.Fatalf("pressure did not clear: level=%d reserved=%d", lvl, held)
	}
}
