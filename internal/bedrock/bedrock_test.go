package bedrock

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/health"
	"github.com/hep-on-hpc/hepnos-go/internal/margo"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

var seq atomic.Int64

func uniq(s string) string { return fmt.Sprintf("%s-%d", s, seq.Add(1)) }

func TestBootFromJSON(t *testing.T) {
	cfg := fmt.Sprintf(`{
	  "margo": {"address": "inproc://%s", "rpc_xstreams": 4},
	  "providers": [
	    {"type": "yokan", "name": "p0", "provider_id": 0,
	     "config": {"databases": [{"name": "events_0"}, {"name": "products_0"}]}},
	    {"type": "yokan", "name": "p1", "provider_id": 1,
	     "config": {"databases": [{"name": "events_1"}]}}
	  ]
	}`, uniq("bedrock-json"))
	srv, err := BootJSON([]byte(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if len(srv.Providers()) != 2 {
		t.Fatalf("providers = %d", len(srv.Providers()))
	}

	// A client can reach the booted databases.
	cli, err := margo.Init(margo.Config{Address: fabric.Address("inproc://" + uniq("bedrock-cli"))})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Finalize()
	yc := yokan.NewClient(cli)
	names, _, err := yc.ListDatabases(context.Background(), srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "events_0" {
		t.Fatalf("databases = %v", names)
	}
	db := yokan.DBHandle{Addr: srv.Addr(), Provider: 1, Name: "events_1"}
	if err := yc.Put(context.Background(), db, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestBootFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	cfg := fmt.Sprintf(`{
	  "margo": {"address": "inproc://%s"},
	  "providers": [{"type": "yokan", "provider_id": 0,
	    "config": {"databases": [{"name": "events_0"}]}}]
	}`, uniq("bedrock-file"))
	if err := writeFile(path, cfg); err != nil {
		t.Fatal(err)
	}
	srv, err := BootFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	if _, err := BootFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file should error")
	}
}

func writeFile(path, content string) error {
	return writeFileBytes(path, []byte(content))
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := func() ProcessConfig {
		return ProcessConfig{
			Margo: MargoConfig{Address: "inproc://x"},
			Providers: []ProviderConfig{{
				Type: "yokan", ProviderID: 0,
				Config: ProviderSpec{Databases: []yokan.DBConfig{{Name: "d"}}},
			}},
		}
	}
	cases := []func(*ProcessConfig){
		func(c *ProcessConfig) { c.Margo.Address = "" },
		func(c *ProcessConfig) { c.Providers = nil },
		func(c *ProcessConfig) { c.Providers[0].Type = "warabi" },
		func(c *ProcessConfig) { c.Providers[0].Config.Databases = nil },
		func(c *ProcessConfig) { c.Providers = append(c.Providers, c.Providers[0]) },
	}
	for i, mutate := range cases {
		cfg := good()
		mutate(&cfg)
		if err := (&cfg).Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	gc := good()
	if err := gc.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if _, err := BootJSON([]byte("{nope")); err == nil {
		t.Fatal("bad JSON should error")
	}
	// Unknown pool reference.
	cfg := good()
	cfg.Margo.Address = "inproc://" + uniq("badpool")
	cfg.Providers[0].Pool = "ghost"
	if _, err := Boot(cfg); err == nil || !strings.Contains(err.Error(), "unknown pool") {
		t.Fatalf("unknown pool: %v", err)
	}
}

// A server document naming a setting that does not exist, whether removed
// or misspelled, fails to boot instead of silently running on defaults.
func TestBootJSONRefusesUnknownSettings(t *testing.T) {
	doc := func(storage, qos string) string {
		return fmt.Sprintf(`{
		  "margo": {"address": "inproc://%s", "qos": {"enabled": true%s}},
		  "storage": {"memtable_mb": 1%s},
		  "providers": [{"type": "yokan", "provider_id": 0,
		    "config": {"databases": [{"name": "events_0"}]}}]
		}`, uniq("strict"), qos, storage)
	}
	srv, err := BootJSON([]byte(doc("", "")))
	if err != nil {
		t.Fatalf("valid document refused: %v", err)
	}
	srv.Shutdown()

	for _, tc := range []struct{ key, storage, qos string }{
		{"foreground_compaction", `, "foreground_compaction": true`, ""},
		{"disable_group_commit", `, "disable_group_commit": true`, ""},
		{"group_commit_window_us", `, "group_commit_window_us": 500`, ""},
		{"compaction_streams", `, "compaction_streams": 4`, ""},
		{"compact_at", `, "compact_at": 3`, ""},
		{"disable_block_cache", `, "disable_block_cache": true`, ""},
		{"shed_batch_at", "", `, "shed_batch_at": 0.4`},
		{"shed_interactive_at", "", `, "shed_interactive_at": 0.8`},
		{"memtable_md", `, "memtable_md": 8`, ""}, // typo of memtable_mb
	} {
		t.Run(tc.key, func(t *testing.T) {
			srv, err := BootJSON([]byte(doc(tc.storage, tc.qos)))
			if err == nil {
				srv.Shutdown()
				t.Fatalf("document setting %q booted", tc.key)
			}
			if !strings.Contains(err.Error(), tc.key) {
				t.Fatalf("error %q does not name %q", err, tc.key)
			}
		})
	}
}

// The argobots block names pools and their stream counts, nothing else:
// the schedulers, per-xstream pool lists and work stealing it once took
// are gone, and a document that still asks for them does not boot.
func TestBootJSONArgobotsPools(t *testing.T) {
	doc := func(argobots string) string {
		return fmt.Sprintf(`{
		  "margo": {"address": "inproc://%s", "argobots": %s},
		  "providers": [{"type": "yokan", "provider_id": 0, "pool": "rpc",
		    "config": {"databases": [{"name": "events_0"}]}}]
		}`, uniq("argobots"), argobots)
	}
	srv, err := BootJSON([]byte(doc(`{"pools": [{"name": "rpc", "xstreams": 2}]}`)))
	if err != nil {
		t.Fatalf("valid argobots block refused: %v", err)
	}
	if got := srv.Margo().Runtime().Pool("rpc").XStreams(); got != 2 {
		t.Fatalf("pool rpc has %d xstreams, want 2", got)
	}
	srv.Shutdown()

	for _, tc := range []struct{ key, argobots string }{
		{"work_stealing", `{"pools": [{"name": "rpc"}], "work_stealing": true}`},
		{"xstreams", `{"pools": [{"name": "rpc"}], "xstreams": [{"name": "x", "scheduler_pools": ["rpc"]}]}`},
		{"kind", `{"pools": [{"name": "rpc", "kind": "prio"}]}`},
		{"scheduler_pools", `{"pools": [{"name": "rpc", "scheduler_pools": ["rpc"]}]}`},
	} {
		t.Run(tc.key, func(t *testing.T) {
			srv, err := BootJSON([]byte(doc(tc.argobots)))
			if err == nil {
				srv.Shutdown()
				t.Fatalf("document setting %q booted", tc.key)
			}
			if !strings.Contains(err.Error(), tc.key) {
				t.Fatalf("error %q does not name %q", err, tc.key)
			}
		})
	}
}

// A client document naming a setting that no longer exists fails to load
// instead of being silently ignored: the synchronous-engine switch
// "async.disabled" is gone, so a config that asks for it is refused.
func TestClientConfigRejectsRemovedSettings(t *testing.T) {
	if _, err := ParseClientConfig([]byte(`{"async":{"pools":[{"name":"rpc"}]}}`)); err != nil {
		t.Fatalf("valid async block rejected: %v", err)
	}
	_, err := ParseClientConfig([]byte(`{"async":{"disabled":true}}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "disabled"`) {
		t.Fatalf(`async.disabled: err = %v, want unknown field "disabled"`, err)
	}
	path := filepath.Join(t.TempDir(), "client.json")
	if err := os.WriteFile(path, []byte(`{"group_file":"g.json","async":{"disabled":true}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadClientConfig(path); err == nil {
		t.Fatal("ReadClientConfig accepted async.disabled")
	}
}

func TestDeployPaperShape(t *testing.T) {
	d, err := Deploy(DeploySpec{
		Servers:             2,
		ProvidersPerServer:  4,
		EventDBsPerServer:   8,
		ProductDBsPerServer: 8,
		NamePrefix:          uniq("paper"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	if len(d.Servers) != 2 || len(d.Group.Servers) != 2 {
		t.Fatalf("deployed %d servers, group %d", len(d.Servers), len(d.Group.Servers))
	}

	// Count databases per role across the whole deployment.
	counts := map[string]int{}
	for _, srv := range d.Servers {
		for _, p := range srv.Providers() {
			for _, name := range p.Databases() {
				role := name[:strings.LastIndex(name, "_")]
				counts[role]++
			}
		}
	}
	want := map[string]int{
		RoleEvents: 16, RoleProducts: 16,
		RoleDatasets: 1, RoleRuns: 2, RoleSubruns: 2,
	}
	for role, n := range want {
		if counts[role] != n {
			t.Errorf("role %s: %d databases, want %d (all: %v)", role, counts[role], n, counts)
		}
	}
}

func TestDeployLSM(t *testing.T) {
	d, err := Deploy(DeploySpec{
		Servers:             1,
		ProvidersPerServer:  2,
		EventDBsPerServer:   2,
		ProductDBsPerServer: 2,
		Backend:             "lsm",
		PathBase:            t.TempDir(),
		NamePrefix:          uniq("lsm"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	// LSM without a path must fail.
	if _, err := Deploy(DeploySpec{Backend: "lsm", NamePrefix: uniq("nolsm")}); err == nil {
		t.Fatal("lsm without PathBase should fail")
	}
}

func TestGroupFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.json")
	g := GroupFile{
		Protocol: "inproc",
		Servers: []ServerDescriptor{
			{Address: "inproc://a", Providers: []uint16{0, 1}},
			{Address: "inproc://b", Providers: []uint16{0}},
		},
	}
	if err := WriteGroupFile(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGroupFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Servers) != 2 || got.Servers[0].Address != "inproc://a" || got.Servers[0].Providers[1] != 1 {
		t.Fatalf("round trip = %+v", got)
	}
	// Empty group is invalid.
	if err := WriteGroupFile(path, GroupFile{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGroupFile(path); err == nil {
		t.Fatal("empty group should error")
	}
}

func TestDeployTCP(t *testing.T) {
	d, err := Deploy(DeploySpec{
		Servers:             1,
		Scheme:              "tcp",
		ProvidersPerServer:  2,
		EventDBsPerServer:   2,
		ProductDBsPerServer: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	if !strings.HasPrefix(string(d.Servers[0].Addr()), "tcp://") {
		t.Fatalf("addr = %s", d.Servers[0].Addr())
	}
	if _, err := Deploy(DeploySpec{Scheme: "quic"}); err == nil {
		t.Fatal("unknown scheme should fail")
	}
}

func TestBuildConfigsDeterministic(t *testing.T) {
	spec := DeploySpec{Servers: 3, ProvidersPerServer: 2, EventDBsPerServer: 4, ProductDBsPerServer: 4}
	a, err := BuildConfigs(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BuildConfigs(spec)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("BuildConfigs is not deterministic")
	}
	if len(a) != 3 {
		t.Fatalf("configs = %d", len(a))
	}
	// Event database indices must be globally unique across servers.
	seen := map[string]bool{}
	for _, cfg := range a {
		for _, p := range cfg.Providers {
			for _, db := range p.Config.Databases {
				if seen[db.Name] {
					t.Fatalf("duplicate database name %q across servers", db.Name)
				}
				seen[db.Name] = true
			}
		}
	}
}

func writeFileBytes(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestAdminPingAndRemoteShutdown(t *testing.T) {
	d, err := Deploy(DeploySpec{
		Servers: 2, ProvidersPerServer: 2,
		EventDBsPerServer: 2, ProductDBsPerServer: 2,
		NamePrefix: uniq("admin"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	cli, err := margo.Init(margo.Config{Address: fabric.Address("inproc://" + uniq("admin-cli"))})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Finalize()
	ctx := context.Background()
	for _, srv := range d.Group.Servers {
		if err := Ping(ctx, cli, fabric.Address(srv.Address)); err != nil {
			t.Fatalf("ping %s: %v", srv.Address, err)
		}
	}
	if err := RemoteShutdown(ctx, cli, d.Group); err != nil {
		t.Fatal(err)
	}
	// Every server observed the request.
	for i, srv := range d.Servers {
		select {
		case <-srv.ShutdownRequested():
		default:
			t.Fatalf("server %d did not receive the shutdown request", i)
		}
	}
	// Shutdown of a dead group errors.
	dead := GroupFile{Servers: []ServerDescriptor{{Address: "inproc://gone"}}}
	if err := RemoteShutdown(ctx, cli, dead); err == nil {
		t.Fatal("shutdown of unreachable server should error")
	}
	if err := Ping(ctx, cli, "inproc://gone"); err == nil {
		t.Fatal("ping of unreachable server should error")
	}
}

func TestPinProvidersMapsPoolsOneToOne(t *testing.T) {
	d, err := Deploy(DeploySpec{
		Servers: 1, ProvidersPerServer: 3,
		EventDBsPerServer: 3, ProductDBsPerServer: 3,
		PinProviders: true,
		NamePrefix:   uniq("pinned"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	srv := d.Servers[0]
	rt := srv.Margo().Runtime()
	if len(rt.Pools()) != 3 {
		t.Fatalf("pools=%d, want 3", len(rt.Pools()))
	}
	for _, p := range rt.Pools() {
		if p.XStreams() != 1 {
			t.Fatalf("pool %s has %d xstreams, want 1", p.Name(), p.XStreams())
		}
	}

	// Drive one database on provider 1; only pool_1 should see the work.
	cli, err := margo.Init(margo.Config{Address: fabric.Address("inproc://" + uniq("pin-cli"))})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Finalize()
	yc := yokan.NewClient(cli)
	names, _, err := yc.ListDatabases(context.Background(), srv.Addr(), 1)
	if err != nil || len(names) == 0 {
		t.Fatalf("databases on provider 1: %v %v", names, err)
	}
	db := yokan.DBHandle{Addr: srv.Addr(), Provider: 1, Name: names[0]}
	for i := 0; i < 20; i++ {
		if err := yc.Put(context.Background(), db, []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.Pool("pool_1").Started(); got < 20 {
		t.Fatalf("pool_1 ran %d tasks, want >= 20", got)
	}
	if got := rt.Pool("pool_0").Started(); got != 0 {
		t.Fatalf("pool_0 ran %d tasks, want 0", got)
	}
}

func TestDeployEpochAndRF(t *testing.T) {
	d, err := Deploy(DeploySpec{
		Servers: 2, ProvidersPerServer: 2,
		EventDBsPerServer: 2, ProductDBsPerServer: 2,
		RF:         2,
		NamePrefix: uniq("epoch"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	if d.Group.Epoch != 1 {
		t.Fatalf("fresh deploy epoch = %d, want 1", d.Group.Epoch)
	}
	if d.Group.RF != 2 || d.Group.ReplicationFactor() != 2 {
		t.Fatalf("group RF = %d", d.Group.RF)
	}
	for i, s := range d.Servers {
		if s.Epoch() != 1 {
			t.Fatalf("server %d epoch = %d, want 1", i, s.Epoch())
		}
	}
	// Bumps are monotone and propagate to every server.
	if got := d.BumpEpoch(); got != 2 {
		t.Fatalf("BumpEpoch = %d, want 2", got)
	}
	for i, s := range d.Servers {
		if s.Epoch() != 2 {
			t.Fatalf("server %d epoch after bump = %d, want 2", i, s.Epoch())
		}
	}
	// A pre-replication group file reads back as RF=1, epoch 0.
	var legacy GroupFile
	if legacy.ReplicationFactor() != 1 {
		t.Fatalf("legacy RF = %d, want 1", legacy.ReplicationFactor())
	}
	// RF larger than the server count is rejected.
	if _, err := Deploy(DeploySpec{Servers: 1, RF: 2, NamePrefix: uniq("epoch-bad")}); err == nil {
		t.Fatal("RF > Servers should fail deploy")
	}
}

func TestGroupFileEpochRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.json")
	g := GroupFile{
		Protocol: "inproc",
		Servers:  []ServerDescriptor{{Address: "inproc://a"}},
		Epoch:    7,
		RF:       2,
	}
	if err := WriteGroupFile(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGroupFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 7 || got.RF != 2 {
		t.Fatalf("round trip epoch/rf = %d/%d", got.Epoch, got.RF)
	}
}

func TestScrapeHealth(t *testing.T) {
	d, err := Deploy(DeploySpec{
		Servers: 1, ProvidersPerServer: 2,
		EventDBsPerServer: 2, ProductDBsPerServer: 2,
		NamePrefix: uniq("health"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	cli, err := margo.Init(margo.Config{Address: fabric.Address("inproc://" + uniq("health-cli"))})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Finalize()
	ctx := context.Background()
	addr := d.Servers[0].Addr()

	rep, err := ScrapeHealth(ctx, cli, addr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 || rep.Address != string(addr) {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Targets) != 0 {
		t.Fatalf("no tracker attached, yet targets = %v", rep.Targets)
	}

	// Attach a liveness view and scrape it back.
	tr := health.NewTracker(health.Config{})
	tr.Watch("inproc://peer-a")
	tr.ReportFailure("inproc://peer-b")
	d.Servers[0].AttachHealthView(tr.Snapshot)
	rep, err = ScrapeHealth(ctx, cli, addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Targets) != 2 {
		t.Fatalf("targets = %+v", rep.Targets)
	}
	if rep.Targets[0].Target != "inproc://peer-a" || rep.Targets[0].State != "alive" {
		t.Fatalf("targets[0] = %+v", rep.Targets[0])
	}
	if rep.Targets[1].Target != "inproc://peer-b" || rep.Targets[1].State != "suspect" {
		t.Fatalf("targets[1] = %+v", rep.Targets[1])
	}
}
