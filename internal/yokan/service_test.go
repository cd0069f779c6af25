package yokan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/margo"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
)

var svcSeq atomic.Int64

func newService(t *testing.T, scheme string, dbs []DBConfig) (*Client, DBHandle, *Provider) {
	t.Helper()
	var serverAddr, clientAddr fabric.Address
	if scheme == "tcp" {
		serverAddr, clientAddr = "tcp://127.0.0.1:0", "tcp://127.0.0.1:0"
	} else {
		serverAddr = fabric.Address(fmt.Sprintf("inproc://ysrv-%d", svcSeq.Add(1)))
		clientAddr = fabric.Address(fmt.Sprintf("inproc://ycli-%d", svcSeq.Add(1)))
	}
	server, err := margo.Init(margo.Config{Address: serverAddr, RPCXStreams: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Finalize)
	prov, err := NewProvider(server, 1, nil, dbs)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := margo.Init(margo.Config{Address: clientAddr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Finalize)
	h := DBHandle{Addr: server.Addr(), Provider: 1, Name: dbs[0].Name}
	return NewClient(cli), h, prov
}

func TestClientServerBasic(t *testing.T) {
	for _, scheme := range []string{"inproc", "tcp"} {
		t.Run(scheme, func(t *testing.T) {
			cli, db, prov := newService(t, scheme, []DBConfig{{Name: "events"}})
			ctx := context.Background()
			if err := cli.Put(ctx, db, []byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			got, err := cli.Get(ctx, db, []byte("k"))
			if err != nil || string(got) != "v" {
				t.Fatalf("Get = %q %v", got, err)
			}
			if _, err := cli.Get(ctx, db, []byte("missing")); !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("missing key: %v", err)
			}
			found, err := cli.Exists(ctx, db, [][]byte{[]byte("k"), []byte("missing")})
			if err != nil || !found[0] || found[1] {
				t.Fatalf("Exists = %v %v", found, err)
			}
			n, err := prov.DB("events").Count()
			if err != nil || n != 1 {
				t.Fatalf("Count = %d %v", n, err)
			}
			erased, err := cli.Erase(ctx, db, [][]byte{[]byte("k"), []byte("missing")})
			if err != nil || erased != 1 {
				t.Fatalf("Erase = %d %v", erased, err)
			}
		})
	}
}

func TestClientBatchedOps(t *testing.T) {
	cli, db, prov := newService(t, "inproc", []DBConfig{{Name: "events"}})
	ctx := context.Background()
	const n = 100
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%04d", i))
		vals[i] = []byte(fmt.Sprintf("v%d", i))
	}
	if err := cli.PutMulti(ctx, db, keys, vals); err != nil {
		t.Fatal(err)
	}
	got, found, err := cli.GetMulti(ctx, db, append(keys[:5:5], []byte("missing")), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !found[i] || !bytes.Equal(got[i], vals[i]) {
			t.Fatalf("item %d: %q %v", i, got[i], found[i])
		}
	}
	if found[5] {
		t.Fatal("phantom key found")
	}
	// One RPC each way: the batch is one operation on the server.
	fams := providerMetrics(prov)
	if puts, gets := metricSum(fams, obs.MetricYokanOps, "op", "put_multi"),
		metricSum(fams, obs.MetricYokanOps, "op", "get_multi"); puts != 1 || gets != 1 {
		t.Fatalf("ops served: put_multi=%v get_multi=%v, want 1 and 1", puts, gets)
	}
	if keys := metricSum(fams, "hepnos_yokan_db_keys", "db", "events"); keys != n {
		t.Fatalf("db keys = %v, want %d", keys, n)
	}
}

func TestClientBulkPaths(t *testing.T) {
	for _, scheme := range []string{"inproc", "tcp"} {
		t.Run(scheme, func(t *testing.T) {
			cli, db, prov := newService(t, scheme, []DBConfig{{Name: "events"}})
			ctx := context.Background()
			// Values large enough that PutMulti exceeds the eager limit.
			const n = 64
			keys := make([][]byte, n)
			vals := make([][]byte, n)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("big-%04d", i))
				vals[i] = bytes.Repeat([]byte{byte(i)}, 4096)
			}
			if err := cli.PutMulti(ctx, db, keys, vals); err != nil {
				t.Fatal(err)
			}
			// The bulk path is the server pulling the batch for put and
			// the client pulling the response for get.
			server, client := prov.mi.Endpoint(), cli.mi.Endpoint()
			if server.Stats().BulkPulls == 0 {
				t.Fatal("large PutMulti did not use the bulk path")
			}
			// Bulk GetMulti.
			got, found, err := cli.GetMulti(ctx, db, keys, true)
			if err != nil {
				t.Fatal(err)
			}
			for i := range keys {
				if !found[i] || !bytes.Equal(got[i], vals[i]) {
					t.Fatalf("bulk get item %d corrupted", i)
				}
			}
			if client.Stats().BulkPulls == 0 {
				t.Fatal("bulk GetMulti did not use the bulk path")
			}
		})
	}
}

func TestClientListKeys(t *testing.T) {
	cli, db, _ := newService(t, "inproc", []DBConfig{{Name: "events"}})
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		cli.Put(ctx, db, []byte(fmt.Sprintf("run/%03d", i)), nil)
	}
	cli.Put(ctx, db, []byte("other/x"), nil)

	// Paginate through the prefix in pages of 7, like HEPnOS iterators do.
	var all [][]byte
	var from []byte
	for {
		page, err := cli.ListKeys(ctx, db, from, []byte("run/"), 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		all = append(all, page...)
		from = page[len(page)-1]
	}
	if len(all) != 30 {
		t.Fatalf("paginated scan returned %d keys", len(all))
	}
	for i, k := range all {
		if want := fmt.Sprintf("run/%03d", i); string(k) != want {
			t.Fatalf("key %d = %q, want %q", i, k, want)
		}
	}
	// ListKeyVals.
	kvs, err := cli.ListKeyVals(ctx, db, nil, []byte("other/"), 0)
	if err != nil || len(kvs) != 1 || string(kvs[0].Key) != "other/x" {
		t.Fatalf("ListKeyVals = %v %v", kvs, err)
	}
}

func TestMultipleDatabasesPerProvider(t *testing.T) {
	cli, db0, prov := newService(t, "inproc", []DBConfig{
		{Name: "events0"}, {Name: "events1"}, {Name: "products0"},
	})
	ctx := context.Background()
	if got := prov.Databases(); len(got) != 3 {
		t.Fatalf("databases = %v", got)
	}
	db1 := db0
	db1.Name = "events1"
	cli.Put(ctx, db0, []byte("k"), []byte("in-0"))
	cli.Put(ctx, db1, []byte("k"), []byte("in-1"))
	v0, _ := cli.Get(ctx, db0, []byte("k"))
	v1, _ := cli.Get(ctx, db1, []byte("k"))
	if string(v0) != "in-0" || string(v1) != "in-1" {
		t.Fatalf("databases are not isolated: %q %q", v0, v1)
	}
	// Unknown database errors.
	ghost := db0
	ghost.Name = "ghost"
	if err := cli.Put(ctx, ghost, []byte("k"), nil); err == nil {
		t.Fatal("unknown database should fail")
	}
	names, types, err := cli.ListDatabases(ctx, db0.Addr, db0.Provider)
	if err != nil || len(names) != 3 || types[0] != "map" {
		t.Fatalf("ListDatabases = %v %v %v", names, types, err)
	}
}

func TestProviderConfigErrors(t *testing.T) {
	server, err := margo.Init(margo.Config{Address: fabric.Address(fmt.Sprintf("inproc://ysrv-%d", svcSeq.Add(1)))})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Finalize()
	if _, err := NewProvider(server, 0, nil, nil); err == nil {
		t.Error("no databases should fail")
	}
	if _, err := NewProvider(server, 0, nil, []DBConfig{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Error("duplicate database should fail")
	}
	if _, err := NewProvider(server, 0, nil, []DBConfig{{Name: "a", Type: "bogus"}}); err == nil {
		t.Error("bad backend type should fail")
	}
}

func TestLSMOverRPC(t *testing.T) {
	dir := t.TempDir()
	cli, db, prov := newService(t, "inproc", []DBConfig{{Name: "persist", Type: "lsm", Path: dir}})
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if err := cli.Put(ctx, db, []byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n, err := prov.DB("persist").Count()
	if err != nil || n != 200 {
		t.Fatalf("count = %d %v", n, err)
	}
}

func TestPutMultiLengthMismatch(t *testing.T) {
	cli, db, _ := newService(t, "inproc", []DBConfig{{Name: "events"}})
	if err := cli.PutMulti(context.Background(), db, [][]byte{[]byte("a")}, nil); err == nil {
		t.Fatal("mismatched lengths should fail")
	}
	// Empty batch is a no-op.
	if err := cli.PutMulti(context.Background(), db, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRPCPutSingle(b *testing.B) {
	cli, db := benchService(b)
	ctx := context.Background()
	val := bytes.Repeat([]byte{1}, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Put(ctx, db, []byte(fmt.Sprintf("k%09d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCPutBatched measures the paper's core batching claim: many
// small items per RPC amortize per-call overhead (§II-D).
func BenchmarkRPCPutBatched(b *testing.B) {
	for _, batch := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			cli, db := benchService(b)
			ctx := context.Background()
			val := bytes.Repeat([]byte{1}, 256)
			keys := make([][]byte, batch)
			vals := make([][]byte, batch)
			b.ReportAllocs()
			b.ResetTimer()
			count := 0
			for i := 0; i < b.N; i++ {
				for j := range keys {
					keys[j] = []byte(fmt.Sprintf("k%09d", count))
					vals[j] = val
					count++
				}
				if err := cli.PutMulti(ctx, db, keys, vals); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(batch * 256))
		})
	}
}

func benchService(b *testing.B) (*Client, DBHandle) {
	b.Helper()
	server, err := margo.Init(margo.Config{
		Address:     fabric.Address(fmt.Sprintf("inproc://ybench-%d", svcSeq.Add(1))),
		RPCXStreams: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(server.Finalize)
	if _, err := NewProvider(server, 1, nil, []DBConfig{{Name: "db"}}); err != nil {
		b.Fatal(err)
	}
	cliMI, err := margo.Init(margo.Config{
		Address: fabric.Address(fmt.Sprintf("inproc://ybenchc-%d", svcSeq.Add(1))),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cliMI.Finalize)
	return NewClient(cliMI), DBHandle{Addr: server.Addr(), Provider: 1, Name: "db"}
}

// TestProviderOpMetrics checks the provider's registry families carry
// what operators scrape: per-op counts and per-database key counts.
func TestProviderOpMetrics(t *testing.T) {
	cli, db, prov := newService(t, "inproc", []DBConfig{{Name: "events_0"}, {Name: "products_0"}})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		cli.Put(ctx, db, []byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	cli.Get(ctx, db, []byte("k1"))
	cli.ListKeys(ctx, db, nil, nil, 0)
	fams := providerMetrics(prov)
	for op, want := range map[string]float64{"put": 10, "get": 1, "list_keys": 1} {
		if got := metricSum(fams, obs.MetricYokanOps, "op", op); got != want {
			t.Errorf("%s{op=%q} = %v, want %v", obs.MetricYokanOps, op, got, want)
		}
	}
	if got := metricSum(fams, "hepnos_yokan_db_keys", "db", "events_0"); got != 10 {
		t.Errorf("events_0 keys = %v, want 10", got)
	}
	if got := metricSum(fams, "hepnos_yokan_db_keys", "db", "products_0"); got != 0 {
		t.Errorf("products_0 keys = %v, want 0", got)
	}
}

// TestStatsIncludeEndpointCounters checks the serving process's transport
// counters sit beside the provider's families in one registry.
func TestStatsIncludeEndpointCounters(t *testing.T) {
	cli, db, prov := newService(t, "inproc", []DBConfig{{Name: "events_0"}})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		cli.Put(ctx, db, []byte{byte(i)}, []byte("v"))
	}
	if served := metricSum(providerMetrics(prov), "hepnos_fabric_calls_served_total"); served < 5 {
		t.Fatalf("calls served = %v", served)
	}
}

// providerMetrics snapshots a registry holding prov's families and its
// server endpoint's, as a bedrock process registers them.
func providerMetrics(prov *Provider) []obs.Family {
	reg := obs.NewRegistry()
	prov.RegisterMetrics(reg)
	prov.mi.Endpoint().RegisterMetrics(reg)
	return reg.Snapshot()
}

// metricSum adds up the samples of family name whose labels include every
// given key/value pair.
func metricSum(fams []obs.Family, name string, labels ...string) float64 {
	var sum float64
	for _, f := range fams {
		if f.Name != name {
			continue
		}
	sample:
		for _, s := range f.Samples {
			for i := 0; i+1 < len(labels); i += 2 {
				if s.Labels[labels[i]] != labels[i+1] {
					continue sample
				}
			}
			sum += s.Value
		}
	}
	return sum
}
