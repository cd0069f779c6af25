package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/health"
	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// newTestCluster is newTestStore plus the deployment and the fully
// specified spec, so replication tests can kill individual servers and
// reboot them with bedrock.BuildConfigs. The background heartbeat is off:
// tests drive health deterministically via ProbeOnce / the tracker.
func newTestCluster(t testing.TB, spec bedrock.DeploySpec) (*DataStore, *bedrock.Deployment, bedrock.DeploySpec) {
	t.Helper()
	if spec.NamePrefix == "" {
		spec.NamePrefix = fmt.Sprintf("repltest-%d", deploySeq.Add(1))
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
	ds, err := Connect(context.Background(), ClientConfig{Group: d.Group, DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.Close)
	return ds, d, spec
}

// markDead drives a target through Alive → Suspect → Dead with direct
// tracker evidence (SuspectAfter=1 + DeadAfter=3 consecutive failures).
func markDead(ds *DataStore, addr string) {
	for i := 0; i < 4; i++ {
		ds.Health().ReportFailure(addr)
	}
}

func TestReplicaPlacementDistinctServers(t *testing.T) {
	ds, _, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 3, RF: 2})
	if ds.RF() != 2 {
		t.Fatalf("RF = %d, want 2 (from the group file)", ds.RF())
	}
	ctx := context.Background()
	d, err := ds.CreateDataSet(ctx, "repl/place")
	if err != nil {
		t.Fatal(err)
	}
	v := ds.v()
	check := func(what string, set, dbs []yokan.DBHandle, parentKey keys.ContainerKey) {
		t.Helper()
		if len(set) != 2 {
			t.Fatalf("%s: %d replicas, want 2", what, len(set))
		}
		if home := dbs[ds.placement.placer(len(dbs)).Place(parentKey.Bytes())]; set[0] != home {
			t.Fatalf("%s: primary %s differs from single-home placement %s", what, set[0], home)
		}
		if set[0].Addr == set[1].Addr {
			t.Fatalf("%s: both replicas on %s", what, set[0].Addr)
		}
	}
	check("runs", ds.replicas(place{roleRuns, d.key.Bytes()}), v.RunDBs, d.key)
	for r := uint64(0); r < 8; r++ {
		runKey := d.key.Child(r)
		check("subruns", ds.replicas(place{roleSubruns, runKey.Bytes()}), v.SubrunDBs, runKey)
		for s := uint64(0); s < 8; s++ {
			srKey := runKey.Child(s)
			check("events", ds.replicas(place{roleEvents, srKey.Bytes()}), v.EventDBs, srKey)
			check("products", ds.replicas(place{roleProducts, srKey.Child(s).Bytes()}), v.ProductDBs, srKey.Child(s))
		}
	}
}

func TestReplicationOffByDefault(t *testing.T) {
	ds, _, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 2})
	if ds.RF() != 1 {
		t.Fatalf("RF = %d, want 1 without a deployment RF", ds.RF())
	}
	set := ds.replicas(place{roleEvents, keys.ForDataSet([keys.UUIDLen]byte{1}).Child(1).Child(2).Bytes()})
	if len(set) != 1 {
		t.Fatalf("rf=1 replica set has %d members", len(set))
	}
}

func TestReadOrderHealthGating(t *testing.T) {
	ds, _, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 3, RF: 2})
	replicas := ds.replicas(place{roleEvents, keys.ForDataSet([keys.UUIDLen]byte{9}).Child(7).Child(3).Bytes()})
	primary := string(replicas[0].Addr)
	h := ds.Health()

	if got := ds.readOrder(replicas); got[0] != replicas[0] {
		t.Fatal("healthy primary not preferred")
	}
	markDead(ds, primary)
	if h.StateOf(primary) != health.Dead {
		t.Fatalf("state = %v, want dead", h.StateOf(primary))
	}
	order := ds.readOrder(replicas)
	if order[0] != replicas[1] || order[len(order)-1] != replicas[0] {
		t.Fatalf("dead primary not demoted: %v", order)
	}
	// A rejoined server is reachable but possibly missing writes: still
	// ranked behind the fully alive replica until anti-entropy finishes.
	h.ReportSuccess(primary)
	if h.StateOf(primary) != health.Rejoined {
		t.Fatalf("state = %v, want rejoined", h.StateOf(primary))
	}
	order = ds.readOrder(replicas)
	if order[0] != replicas[1] || order[1] != replicas[0] {
		t.Fatalf("rejoined primary mis-ranked: %v", order)
	}
	h.MarkResynced(primary)
	if got := ds.readOrder(replicas); got[0] != replicas[0] {
		t.Fatal("resynced primary not restored as read owner")
	}
}

// pickSubRunOn returns a subrun number under runKey whose event replica set
// includes (or, with onPrimary, is led by) a database on addr. Placement is
// deterministic, so the scan is too.
func pickSubRunOn(t *testing.T, ds *DataStore, runKey keys.ContainerKey, addr fabric.Address, onPrimary bool) uint64 {
	t.Helper()
	for s := uint64(0); s < 256; s++ {
		set := ds.replicas(place{roleEvents, runKey.Child(s).Bytes()})
		if onPrimary {
			if set[0].Addr == addr {
				return s
			}
			continue
		}
		for _, db := range set {
			if db.Addr == addr {
				return s
			}
		}
	}
	t.Fatalf("no subrun with an event replica on %s in 256 candidates", addr)
	return 0
}

func TestFailoverReadsSurviveServerDeath(t *testing.T) {
	ds, d, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 3, RF: 2})
	ctx := context.Background()
	dset, err := ds.CreateDataSet(ctx, "repl/failover")
	if err != nil {
		t.Fatal(err)
	}
	run, err := dset.CreateRun(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1
	victimAddr := fabric.Address(d.Group.Servers[victim].Address)
	// Choose a subrun whose events are *led* by the victim, so reads must
	// fail over, and store a product per event.
	srNum := pickSubRunOn(t, ds, run.key, victimAddr, true)
	sr, err := run.CreateSubRun(ctx, srNum)
	if err != nil {
		t.Fatal(err)
	}
	want := []particle{{1, 2, 3}}
	for e := uint64(0); e < 8; e++ {
		ev, err := sr.CreateEvent(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Store(ctx, "parts", want); err != nil {
			t.Fatal(err)
		}
	}

	d.Servers[victim].Shutdown()
	// The heartbeat notices the death: each ProbeOnce round adds one
	// failure; four rounds reach Dead while the survivors stay Alive.
	for i := 0; i < 4; i++ {
		ds.ProbeOnce(ctx)
	}
	if got := ds.Health().StateOf(string(victimAddr)); got != health.Dead {
		t.Fatalf("victim state after probes = %v, want dead", got)
	}
	for _, srv := range []int{0, 2} {
		if got := ds.Health().StateOf(d.Group.Servers[srv].Address); got != health.Alive {
			t.Fatalf("survivor %d state = %v", srv, got)
		}
	}

	// Every read below targets data whose primary died: the replica must
	// serve it transparently.
	before := ds.failoverReads.Load()
	sr2, err := run.SubRun(ctx, srNum)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := sr2.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 8 {
		t.Fatalf("listed %d events, want 8", len(evs))
	}
	for _, n := range evs {
		ev, err := sr2.Event(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		var got []particle
		if err := ev.Load(ctx, "parts", &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("product mismatch: %v", got)
		}
	}
	if ds.failoverReads.Load() == before {
		t.Fatal("failover counter did not move for replica-served reads")
	}
}

func TestReplicatedWritesTolerateOneDeadServer(t *testing.T) {
	ds, d, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 3, RF: 2})
	ctx := context.Background()
	dset, err := ds.CreateDataSet(ctx, "repl/tolerate")
	if err != nil {
		t.Fatal(err)
	}
	run, err := dset.CreateRun(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 2
	victimAddr := fabric.Address(d.Group.Servers[victim].Address)
	srNum := pickSubRunOn(t, ds, run.key, victimAddr, false)

	d.Servers[victim].Shutdown()
	markDead(ds, string(victimAddr))

	// Writes whose replica set includes the dead server succeed on the
	// surviving copy; the dropped copies are counted for resync.
	drops := ds.replicaDrops.Load()
	sr, err := run.CreateSubRun(ctx, srNum)
	if err != nil {
		t.Fatal(err)
	}
	want := []particle{{4, 5, 6}}
	for e := uint64(0); e < 4; e++ {
		ev, err := sr.CreateEvent(ctx, e)
		if err != nil {
			t.Fatalf("create event %d with one server down: %v", e, err)
		}
		if err := ev.Store(ctx, "parts", want); err != nil {
			t.Fatalf("store with one server down: %v", err)
		}
	}
	if ds.replicaDrops.Load() == drops {
		t.Fatal("no replica drops recorded though the set includes a dead server")
	}
	// And the data written during the outage reads back.
	evs, err := sr.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("listed %d outage-written events, want 4", len(evs))
	}
	ev0, err := sr.Event(ctx, evs[0])
	if err != nil {
		t.Fatal(err)
	}
	var got []particle
	if err := ev0.Load(ctx, "parts", &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("outage-written product mismatch: %v", got)
	}
}

func TestWritesFailWhenLossIsPossible(t *testing.T) {
	// With rf servers unusable a key may have no surviving copy, so the
	// tolerant-drop rule must stop applying and writes must error.
	ds, d, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 3, RF: 2})
	ctx := context.Background()
	dset, err := ds.CreateDataSet(ctx, "repl/guard")
	if err != nil {
		t.Fatal(err)
	}
	run, err := dset.CreateRun(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := run.CreateSubRun(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, victim := range []int{1, 2} {
		d.Servers[victim].Shutdown()
		markDead(ds, d.Group.Servers[victim].Address)
	}
	// Every event replica set spans 2 of the 3 servers, so it includes at
	// least one dead one; with UnusableCount == rf the drop is not
	// tolerable anymore.
	var lastErr error
	for e := uint64(0); e < 8 && lastErr == nil; e++ {
		_, lastErr = sr.CreateEvent(ctx, e)
	}
	if lastErr == nil {
		t.Fatal("writes kept succeeding with rf servers dead (silent loss window)")
	}
}

func TestResyncServerRoundTrip(t *testing.T) {
	ds, d, spec := newTestCluster(t, bedrock.DeploySpec{Servers: 3, RF: 2})
	ctx := context.Background()
	dset, err := ds.CreateDataSet(ctx, "repl/resync")
	if err != nil {
		t.Fatal(err)
	}
	run, err := dset.CreateRun(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1
	victimAddr := fabric.Address(d.Group.Servers[victim].Address)
	srNum := pickSubRunOn(t, ds, run.key, victimAddr, false)

	d.Servers[victim].Shutdown()
	markDead(ds, string(victimAddr))

	// Writes during the outage land only on the surviving replica.
	sr, err := run.CreateSubRun(ctx, srNum)
	if err != nil {
		t.Fatal(err)
	}
	want := []particle{{7, 8, 9}}
	var evKeys [][]byte
	for e := uint64(0); e < 8; e++ {
		ev, err := sr.CreateEvent(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Store(ctx, "parts", want); err != nil {
			t.Fatal(err)
		}
		evKeys = append(evKeys, ev.key.Bytes())
	}
	if ds.replicaDrops.Load() == 0 {
		t.Fatal("outage writes recorded no drops; resync would have nothing to prove")
	}

	// Reboot the dead server at the same address with empty databases —
	// exactly what a restarted daemon looks like.
	cfgs, err := bedrock.BuildConfigs(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := bedrock.Boot(cfgs[victim])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	// One probe round notices it answering again: Dead → Rejoined.
	ds.ProbeOnce(ctx)
	if got := ds.Health().StateOf(string(victimAddr)); got != health.Rejoined {
		t.Fatalf("rebooted server state = %v, want rejoined", got)
	}

	st, err := ds.ResyncServer(ctx, victimAddr)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalCopied() == 0 {
		t.Fatalf("resync replayed nothing: %+v", st)
	}
	if st.TotalScanned() == 0 {
		t.Fatal("resync scanned nothing")
	}
	if got := ds.Health().StateOf(string(victimAddr)); got != health.Alive {
		t.Fatalf("state after resync = %v, want alive", got)
	}

	// Directly verify the replay landed: the rebooted server came up with
	// empty databases, so the outage-written event keys can only be there
	// if anti-entropy delivered them.
	evSet := ds.replicas(place{roleEvents, sr.key.Bytes()})
	var victimDB, otherDB yokan.DBHandle
	for _, db := range evSet {
		if db.Addr == victimAddr {
			victimDB = db
		} else {
			otherDB = db
		}
	}
	found, err := ds.yc.Exists(ctx, victimDB, evKeys)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("event key %d missing on the rejoined server after resync", i)
		}
	}

	// The acid test: kill the replica holder that survived the outage.
	// The subrun's events are now served by the rejoined server — reads
	// succeed only if the anti-entropy replay actually delivered them.
	for srvIdx, gs := range d.Group.Servers {
		if fabric.Address(gs.Address) == otherDB.Addr {
			d.Servers[srvIdx].Shutdown()
			markDead(ds, gs.Address)
		}
	}
	sr2, err := run.SubRun(ctx, srNum)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := sr2.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 8 {
		t.Fatalf("rejoined server lists %d events, want 8", len(evs))
	}
	for _, n := range evs {
		ev, err := sr2.Event(ctx, n)
		if err != nil {
			t.Fatalf("open event %d after failback: %v", n, err)
		}
		var got []particle
		if err := ev.Load(ctx, "parts", &got); err != nil {
			t.Fatalf("load from rejoined server: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rejoined server served %v, want %v", got, want)
		}
	}
}

// TestReplicaReadContract pins replicaRead's contract once, over all four of
// its instantiations — point get, existence probe, key-listing page, scan
// page — against hand-built replica sets on a two-server, rf=1 cluster (any
// set wider than rf reads as a migration-widened one: softMiss is on).
//
// Point reads treat "this copy lacks the key" as a miss that another copy
// may overrule; for page reads any replica's page is an answer, which is
// why their resolvers only ever name committed-view replicas.
func TestReplicaReadContract(t *testing.T) {
	schema := registerScanTrack(t)
	ds, d, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 2})
	ctx := context.Background()

	// holder has the datum; empty (same server) and far (the other server)
	// do not.
	v := ds.v()
	holder, empty := v.EventDBs[0], v.EventDBs[1]
	var far yokan.DBHandle
	for _, db := range v.EventDBs {
		if db.Addr != holder.Addr {
			far = db
		}
	}
	if empty.Addr != holder.Addr || far.Name == "" {
		t.Fatal("test bug: expected two event databases on the first server and one on the second")
	}
	key := []byte("contract/key")
	if err := ds.yc.Put(ctx, holder, key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	srKey := keys.ForDataSet([keys.UUIDLen]byte{7}).Child(1).Child(2)
	page := newOpenPage(schema, pageGroupKey(srKey, "trk", schema.TypeName()), srKey)
	if err := page.appendEvent(3, trackRows(2, 3)); err != nil {
		t.Fatal(err)
	}
	pks, pvs := page.pageKVs()
	if err := ds.yc.PutMulti(ctx, holder, pks, pvs); err != nil {
		t.Fatal(err)
	}

	kinds := []struct {
		name  string
		paged bool
		read  func(resolve func() []yokan.DBHandle) (hit bool, err error)
	}{
		{"get", false, func(resolve func() []yokan.DBHandle) (bool, error) {
			_, hit, err := ds.get(ctx, resolve, key)
			return hit, err
		}},
		{"exists", false, func(resolve func() []yokan.DBHandle) (bool, error) {
			return ds.has(ctx, resolve, key)
		}},
		{"list-page", true, func(resolve func() []yokan.DBHandle) (bool, error) {
			pg := keyPager{ds: ds, resolve: resolve, prefix: []byte("contract/"), size: 8}
			keys, err := pg.next(ctx)
			return len(keys) > 0, err
		}},
		{"scan-page", true, func(resolve func() []yokan.DBHandle) (bool, error) {
			res, err := ds.scanPage(ctx, resolve, yokan.ScanRequest{Group: page.group, Cols: allColumns(schema), Hi: ^uint64(0)})
			return err == nil && len(res.Events) > 0, err
		}},
	}
	set := func(dbs ...yokan.DBHandle) func() []yokan.DBHandle {
		return func() []yokan.DBHandle { return dbs }
	}
	check := func(name, scenario string, hit bool, err error, wantHit, wantErr bool) {
		t.Helper()
		if (err != nil) != wantErr || (err == nil && hit != wantHit) {
			t.Errorf("%s, %s: hit=%v err=%v, want hit=%v error=%v", name, scenario, hit, err, wantHit, wantErr)
		}
	}

	for _, k := range kinds {
		hit, err := k.read(set(holder))
		check(k.name, "single holder", hit, err, true, false)

		// Soft-miss agreement: a point read keeps going past the copy that
		// lacks the key; a page is taken from the first copy that answers.
		hit, err = k.read(set(far, holder))
		check(k.name, "miss then hit", hit, err, !k.paged, false)
		hit, err = k.read(set(far, empty))
		check(k.name, "every copy misses", hit, err, false, false)

		// Generation re-resolve: the first resolution names a copy that
		// lacks the datum and a commit lands while the read is in flight;
		// the outcome — miss or page — is discarded and the read re-resolved.
		calls := 0
		hit, err = k.read(func() []yokan.DBHandle {
			if calls++; calls == 1 {
				ds.viewGen.Add(1)
				return []yokan.DBHandle{empty}
			}
			return []yokan.DBHandle{holder}
		})
		check(k.name, "view changed mid-read", hit, err, true, false)
		if calls != 2 {
			t.Errorf("%s: resolved %d times across one view change, want 2", k.name, calls)
		}
	}

	// Kill the holder's server: its copies fail transport from here on.
	for _, s := range d.Servers {
		if s.Addr() == holder.Addr {
			s.Shutdown()
		}
	}
	for _, k := range kinds {
		// A miss mixed with a transport failure stays a failure for point
		// reads — the unreachable copy might have held the key. A page read
		// fails over: the surviving replica's page stands.
		hit, err := k.read(set(holder, far))
		check(k.name, "failure then miss", hit, err, false, !k.paged)
		hit, err = k.read(set(holder))
		check(k.name, "every copy fails", hit, err, false, true)
	}
}
