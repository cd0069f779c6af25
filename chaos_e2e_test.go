// Chaos end-to-end suite: the ISSUE's acceptance demos. Each test boots a
// multi-provider bedrock deployment and runs real workloads from the
// examples (novagen → DataLoader ingest → file-based vs HEPnOS candidate
// selection) while a chaos.Injector perturbs the fabric. The assertions
// are the resilience contract: no data loss, no deadlock, bounded
// recovery latency, and — for a sequential workload — a fault schedule
// that is a pure function of the seed (replay any failure with
// CHAOS_SEED=<seed> go test -run <name>).
package bench

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/chaos"
	"github.com/hep-on-hpc/hepnos-go/internal/core"
	"github.com/hep-on-hpc/hepnos-go/internal/dataloader"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/filebased"
	"github.com/hep-on-hpc/hepnos-go/internal/nova"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/resilience"
	"github.com/hep-on-hpc/hepnos-go/internal/workflow"
)

// chaosSample generates a NOvA file sample sized for the test mode.
func chaosSample(t *testing.T) []string {
	t.Helper()
	nFiles, mean := 6, 80.0
	if testing.Short() {
		nFiles, mean = 2, 30.0
	}
	gen := nova.NewGenerator(nova.GenParams{Seed: 7, MeanEventsPerFile: mean, FilesPerSubRun: 2})
	files, err := nova.GenerateSample(t.TempDir(), gen, nFiles)
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// chaosDeploy boots a 2-server, multi-provider service.
func chaosDeploy(t *testing.T, prefix string) *bedrock.Deployment {
	t.Helper()
	dep, err := bedrock.Deploy(bedrock.DeploySpec{
		Servers:             2,
		ProvidersPerServer:  2,
		EventDBsPerServer:   2,
		ProductDBsPerServer: 2,
		NamePrefix:          prefix,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Shutdown)
	return dep
}

// chaosIngest runs the DataLoader over the sample and returns its stats.
func chaosIngest(ctx context.Context, t *testing.T, ds *core.DataStore, files []string) dataloader.IngestStats {
	t.Helper()
	dataset, err := ds.CreateDataSet(ctx, "fermilab/nova")
	if err != nil {
		t.Fatalf("create dataset: %v", err)
	}
	schemas, err := dataloader.InspectFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	binding, err := dataloader.Bind(nova.Slice{}, schemas[0])
	if err != nil {
		t.Fatal(err)
	}
	loader := &dataloader.Loader{DS: ds, Label: "slices", Parallelism: 3}
	st, err := loader.IngestFiles(ctx, dataset, binding, files)
	if err != nil {
		t.Fatalf("ingest under chaos: %v", err)
	}
	return st
}

// compareWorkflows runs the §IV correctness check: the traditional
// file-based selection and the HEPnOS ParallelEventProcessor selection
// must accept the identical slice set — any divergence means the service
// lost or duplicated data under injection.
func compareWorkflows(ctx context.Context, t *testing.T, ds *core.DataStore, files []string) {
	t.Helper()
	fileRes, err := filebased.Run(filebased.Config{Files: files, Processes: 3})
	if err != nil {
		t.Fatal(err)
	}
	hepRes, err := workflow.Run(ctx, ds, workflow.Config{Dataset: "fermilab/nova", Ranks: 4})
	if err != nil {
		t.Fatalf("hepnos workflow under chaos: %v", err)
	}
	if fileRes.TotalSlices != hepRes.TotalSlices {
		t.Fatalf("slice counts diverged: files=%d hepnos=%d (data loss?)",
			fileRes.TotalSlices, hepRes.TotalSlices)
	}
	if !reflect.DeepEqual(fileRes.Selected, hepRes.Selected) {
		t.Fatalf("accepted-slice sets diverged: files=%d hepnos=%d accepted",
			len(fileRes.Selected), len(hepRes.Selected))
	}
}

// TestChaosDropTwoThenHeal: the ISSUE's demo (a). Two consecutive
// messages vanish mid-ingest; the resilience layer must absorb both and
// the service must end up with zero lost events.
func TestChaosDropTwoThenHeal(t *testing.T) {
	ctx := context.Background()
	files := chaosSample(t)
	dep := chaosDeploy(t, "chaos-drop")

	seed := chaos.SeedFromEnv(1)
	in := chaos.New(seed, &chaos.DropWindow{Skip: 10, N: 2})
	chaos.Report(t, in)

	ds, err := core.Connect(ctx, core.ClientConfig{
		Group:      dep.Group,
		NetSim:     &fabric.NetSim{Fault: in.ClientFault()},
		Resilience: resilience.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	st := chaosIngest(ctx, t, ds, files)
	if st.Events == 0 {
		t.Fatal("ingest stored no events")
	}
	if in.Drops() != 2 {
		t.Fatalf("injector dropped %d messages, want exactly 2", in.Drops())
	}
	compareWorkflows(ctx, t, ds, files)
}

// TestChaosInjectionOverloadStorm: the ISSUE's demo (b), the §IV-E
// failure mode. Repeating windows where most messages die with
// ErrInjectionOverload degrade throughput, but the workload must
// complete — no panic, no deadlock, no data loss — and once the storm
// clears, per-operation latency must return to normal.
func TestChaosInjectionOverloadStorm(t *testing.T) {
	ctx := context.Background()
	files := chaosSample(t)
	dep := chaosDeploy(t, "chaos-storm")

	seed := chaos.SeedFromEnv(2)
	in := chaos.New(seed, &chaos.OverloadStorm{Period: 20, Len: 8, P: 0.6})
	chaos.Report(t, in)

	// §IV-E mitigation: generous retries plus a shared retry budget so
	// the storm cannot amplify itself into a retry storm.
	pol := resilience.Default()
	pol.MaxRetries = 8
	pol.InitialBackoff = 200 * time.Microsecond
	pol.MaxBackoff = 5 * time.Millisecond

	ds, err := core.Connect(ctx, core.ClientConfig{
		Group:      dep.Group,
		NetSim:     &fabric.NetSim{Fault: in.ClientFault()},
		Resilience: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	// No-deadlock bound: the whole stormy ingest must finish within the
	// deadline or we declare it wedged.
	type outcome struct {
		st  dataloader.IngestStats
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() { done <- o }()
		dataset, err := ds.CreateDataSet(ctx, "fermilab/nova")
		if err != nil {
			o.err = err
			return
		}
		schemas, err := dataloader.InspectFile(files[0])
		if err != nil {
			o.err = err
			return
		}
		binding, err := dataloader.Bind(nova.Slice{}, schemas[0])
		if err != nil {
			o.err = err
			return
		}
		loader := &dataloader.Loader{DS: ds, Label: "slices", Parallelism: 3}
		o.st, o.err = loader.IngestFiles(ctx, dataset, binding, files)
	}()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("ingest deadlocked under the injection-overload storm")
	}
	if o.err != nil {
		t.Fatalf("ingest did not survive the storm: %v", o.err)
	}
	if in.Drops() == 0 {
		t.Fatal("storm injected no overload failures; scenario did not run")
	}
	t.Logf("storm: %d messages observed, %d killed by injection overload, %d events ingested",
		in.Observed(), in.Drops(), o.st.Events)

	// Storm over: reads must return to bounded latency.
	in.Heal()
	dataset, err := ds.OpenDataSet(ctx, "fermilab/nova")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := dataset.Runs(ctx)
	if err != nil || len(runs) == 0 {
		t.Fatalf("runs after storm: %v %v", runs, err)
	}
	start := time.Now()
	if _, err := dataset.Run(ctx, runs[0]); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("post-storm read latency %v, want bounded (<500ms)", d)
	}
	compareWorkflows(ctx, t, ds, files)
}

// TestChaosDeterministicFaultSequence: the ISSUE's demo (c). A fully
// sequential workload under a probabilistic scenario is replayed with the
// same seed; the injector's decision traces must match byte for byte.
// The workload drives the yokan client directly (datastore-level paths
// place containers by randomly drawn dataset UUIDs, which would vary the
// target database between runs) — same fabric→margo→yokan RPC path, but
// with key placement fixed by the test.
func TestChaosDeterministicFaultSequence(t *testing.T) {
	ctx := context.Background()
	seed := chaos.SeedFromEnv(4242)

	run := func() []string {
		dep := chaosDeploy(t, "chaos-det")
		in := chaos.New(seed, &chaos.Flaky{P: 0.15})
		chaos.Report(t, in)
		// Deterministic policy: fixed jitter seed would also do, but zero
		// jitter keeps the schedule trivially reproducible.
		pol := &resilience.Policy{
			MaxRetries:     6,
			InitialBackoff: 50 * time.Microsecond,
			MaxBackoff:     time.Millisecond,
			Retryable:      fabric.RetryableError,
		}
		ds, err := core.Connect(ctx, core.ClientConfig{
			Group:      dep.Group,
			Address:    "inproc://chaos-det-client",
			NetSim:     &fabric.NetSim{Fault: in.ClientFault()},
			Resilience: pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		dbs := ds.EventDatabases()
		if len(dbs) == 0 {
			t.Fatal("no event databases discovered")
		}
		yc := ds.Yokan()
		for i := 0; i < 40; i++ {
			key := []byte(fmt.Sprintf("det-key-%03d", i))
			val := []byte(fmt.Sprintf("det-val-%03d", i))
			if err := yc.Put(ctx, dbs[i%len(dbs)], key, val); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		for i := 0; i < 40; i++ {
			key := []byte(fmt.Sprintf("det-key-%03d", i))
			got, err := yc.Get(ctx, dbs[i%len(dbs)], key)
			if err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
			if want := fmt.Sprintf("det-val-%03d", i); string(got) != want {
				t.Fatalf("key %d read back %q, want %q", i, got, want)
			}
		}
		ds.Close()
		dep.Shutdown()
		return in.Trace()
	}

	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("same seed, different fault-sequence lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, fault sequences diverge at decision %d:\n  run1: %s\n  run2: %s",
				i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("injector observed no traffic")
	}
	t.Logf("deterministic replay: %d identical decisions under seed %d", len(a), seed)
}

// TestChaosCrashOnKthWrite: server-side injection via the
// Endpoint.SetServeFault hook. The server "crashes" on its 12th write
// RPC (everything afterwards is lost), the application observes the
// failure, the server "restarts" (Heal), and the re-driven workload must
// leave all 20 events present with their products intact — no loss, no
// duplication.
func TestChaosCrashOnKthWrite(t *testing.T) {
	ctx := context.Background()
	dep, err := bedrock.Deploy(bedrock.DeploySpec{
		Servers:            1,
		ProvidersPerServer: 2,
		NamePrefix:         "chaos-crash",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Shutdown()

	seed := chaos.SeedFromEnv(3)
	in := chaos.New(seed, &chaos.CrashAfterWrites{K: 12})
	chaos.Report(t, in)
	dep.Servers[0].Margo().Endpoint().SetServeFault(in.ServeFault())

	// Deliberately small retry allowance: the crash outlives it, so the
	// failure surfaces to the application, which then "restarts" the
	// server and re-drives the lost operation.
	pol := &resilience.Policy{
		MaxRetries:     2,
		InitialBackoff: 50 * time.Microsecond,
		Retryable:      fabric.RetryableError,
	}
	ds, err := core.Connect(ctx, core.ClientConfig{Group: dep.Group, Resilience: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	crashes := 0
	must := func(what string, op func() error) {
		t.Helper()
		err := op()
		if err == nil {
			return
		}
		if !errors.Is(err, chaos.ErrCrashed) {
			t.Fatalf("%s: unexpected failure class: %v", what, err)
		}
		crashes++
		in.Heal() // the operator restarts the server
		if err := op(); err != nil {
			t.Fatalf("%s after restart: %v", what, err)
		}
	}

	var dataset *core.DataSet
	must("create dataset", func() error {
		var err error
		dataset, err = ds.CreateDataSet(ctx, "crash/sample")
		return err
	})
	var r *core.Run
	must("create run", func() error {
		var err error
		r, err = dataset.CreateRun(ctx, 7)
		return err
	})
	var sr *core.SubRun
	must("create subrun", func() error {
		var err error
		sr, err = r.CreateSubRun(ctx, 1)
		return err
	})
	for i := uint64(1); i <= 20; i++ {
		var ev *core.Event
		must(fmt.Sprintf("create event %d", i), func() error {
			var err error
			ev, err = sr.CreateEvent(ctx, i)
			return err
		})
		must(fmt.Sprintf("store product %d", i), func() error {
			return ev.Store(ctx, "x", []float64{float64(i)})
		})
	}
	if crashes != 1 {
		t.Fatalf("observed %d crashes, want exactly 1 (crash is permanent until Heal)", crashes)
	}

	// Post-restart audit: every event present exactly once, every product
	// readable with the written value.
	nums, err := sr.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(nums) != 20 {
		t.Fatalf("after crash+restart: %d events, want 20 (%v)", len(nums), nums)
	}
	for i, n := range nums {
		if n != uint64(i+1) {
			t.Fatalf("event sequence corrupted: %v", nums)
		}
		ev, err := sr.Event(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		if err := ev.Load(ctx, "x", &got); err != nil {
			t.Fatalf("event %d lost its product: %v", n, err)
		}
		if len(got) != 1 || got[0] != float64(n) {
			t.Fatalf("event %d product corrupted: %v", n, got)
		}
	}
	t.Logf("crash-on-%dth-write: %d messages observed, %d lost to the crash, all 20 events intact",
		12, in.Observed(), in.Drops())
}

// TestChaosStormShedsTyped: the QoS front door under an injection-overload
// storm. A rate-limited batch tenant hammers a QoS-gated service while the
// per-tenant storm kills a share of its messages on the wire; the gate's
// rejections must surface as *typed* ShedErrors — fast, explicit refusals
// — never as timeouts, and the exempt interactive tenant must complete
// untouched. The fault schedule is a pure function of CHAOS_SEED.
func TestChaosStormShedsTyped(t *testing.T) {
	ctx := context.Background()

	dep, err := bedrock.Deploy(bedrock.DeploySpec{
		Servers:             1,
		ProvidersPerServer:  2,
		EventDBsPerServer:   2,
		ProductDBsPerServer: 2,
		NamePrefix:          "chaos-shed",
		QoS: &bedrock.QoSConfig{
			Enabled: true,
			Tenants: map[string]qos.TenantConfig{
				// Tight bucket: the greedy tenant's batch flushes run dry
				// after the burst and shed until the clock refills them.
				"greedy": {Weight: 1, RatePerSec: 10, Burst: 4},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Shutdown()

	seed := chaos.SeedFromEnv(5)
	in := chaos.New(seed, &chaos.OverloadStorm{
		Period: 10, Len: 4,
		// Per-tenant offered load: only the greedy tenant storms; the
		// interactive tenant's wire stays clean.
		TenantP: map[string]float64{"greedy": 0.5, "quiet": 0},
	})
	chaos.Report(t, in)

	pol := resilience.Default()
	pol.MaxRetries = 6
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

	dataset, err := greedy.CreateDataSet(ctx, "fermilab/nova")
	if err != nil {
		t.Fatal(err)
	}

	// Sequential batch flushes past the bucket rate. Every failure must be
	// a typed shed and must return promptly — a shed is a refusal, not a
	// deadline blown on a queued request.
	var sheds, ok int
	var slowest time.Duration
	for i := 0; i < 40; i++ {
		// One-update batch: its flush is a single put RPC tagged
		// ClassBatch on the wire.
		wb := greedy.NewWriteBatch()
		if _, err := wb.CreateRun(ctx, dataset, uint64(i)); err != nil {
			t.Fatalf("queue run %d: %v", i, err)
		}
		start := time.Now()
		flushErr := wb.Flush(ctx)
		if d := time.Since(start); d > slowest {
			slowest = d
		}
		switch {
		case flushErr == nil:
			ok++
		case qos.IsShed(flushErr):
			sheds++
		default:
			t.Fatalf("flush %d failed with an untyped error: %v", i, flushErr)
		}
	}
	if sheds == 0 {
		t.Fatal("rate-limited tenant saw no typed sheds; the gate never engaged")
	}
	if ok == 0 {
		t.Fatal("every flush shed; the bucket never admitted within its rate")
	}
	if slowest > 5*time.Second {
		t.Fatalf("slowest flush took %v; sheds must reject fast, not time out", slowest)
	}

	// The quiet tenant — exempt from the storm, interactive class — reads
	// through the same gated service without a single rejection.
	quiet, err := core.Connect(ctx, core.ClientConfig{
		Group:  dep.Group,
		Tenant: "quiet",
		NetSim: &fabric.NetSim{Fault: in.ClientFault()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	if _, err := quiet.OpenDataSet(ctx, "fermilab/nova"); err != nil {
		t.Fatalf("interactive tenant read failed under the storm: %v", err)
	}

	// The gate's accounting saw both tenants: greedy shed at least what the
	// client observed, quiet shed nothing.
	cells := map[string]int64{}
	for _, c := range dep.Servers[0].Margo().Gate().Snapshot() {
		cells[c.Tenant+"/"+c.Class+"/shed"] += c.Shed
		cells[c.Tenant+"/"+c.Class+"/adm"] += c.Admitted
	}
	if cells["greedy/batch/shed"] == 0 {
		t.Fatalf("server accounting shows no greedy batch sheds: %v", cells)
	}
	if cells["quiet/interactive/shed"] != 0 {
		t.Fatalf("quiet tenant was shed: %v", cells)
	}
	if in.Drops() == 0 {
		t.Fatal("storm injected nothing; per-tenant scenario did not run")
	}
	t.Logf("storm+gate: %d observed, %d injected drops, client sheds=%d ok=%d, server cells=%v",
		in.Observed(), in.Drops(), sheds, ok, cells)
}
