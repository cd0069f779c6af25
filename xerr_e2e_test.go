// Typed-error acceptance suite (the ISSUE 7 contract): errors raised on a
// server cross a real TCP fabric as wire-coded classes and sentinel codes,
// not laundered strings. The properties under assertion:
//
//   - a remote miss satisfies errors.Is(err, yokan.ErrKeyNotFound) on the
//     client, carries class not_found and the remote mark, and costs the
//     resilience policy zero retries;
//   - a QoS rejection surfaces as *qos.ShedError through errors.As, again
//     with zero retries;
//   - a remote per-replica fault (closed database) classifies unavailable
//     but is remote-marked, so the blind-retry rule refuses it;
//   - the client's metrics scrape exposes hepnos_errors_total labelled by
//     class for everything observed above.
package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/chaos"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/margo"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/resilience"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

var xerrSeq atomic.Int64

// xerrService boots a TCP yokan provider and a TCP client whose calls run
// under a counting resilience policy, so the tests can assert not just the
// error identity but the number of retries it provoked.
func xerrService(t *testing.T, qcfg qos.Config, tenant string) (*yokan.Client, yokan.DBHandle, *yokan.Provider, *resilience.Policy, *margo.Instance) {
	t.Helper()
	server, err := margo.Init(margo.Config{Address: "tcp://127.0.0.1:0", RPCXStreams: 2, QoS: qcfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Finalize)
	prov, err := yokan.NewProvider(server, 1, nil, []yokan.DBConfig{{Name: fmt.Sprintf("xerr-db-%d", xerrSeq.Add(1))}})
	if err != nil {
		t.Fatal(err)
	}
	pol := &resilience.Policy{MaxRetries: 3, Retryable: fabric.RetryableError}
	cli, err := margo.Init(margo.Config{Address: "tcp://127.0.0.1:0", Tenant: tenant, Resilience: pol})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Finalize)
	yc := yokan.NewClient(cli)
	h := yokan.DBHandle{Addr: server.Addr(), Provider: 1, Name: prov.Databases()[0]}
	return yc, h, prov, pol, cli
}

func TestTypedNotFoundCrossesTCP(t *testing.T) {
	yc, db, _, pol, cli := xerrService(t, qos.Config{}, "")
	ctx := context.Background()
	if err := yc.Put(ctx, db, []byte("present"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	_, err := yc.Get(ctx, db, []byte("missing"))
	if !errors.Is(err, yokan.ErrKeyNotFound) {
		t.Fatalf("remote miss lost sentinel identity: %v", err)
	}
	if got := xerr.ClassOf(err); got != xerr.ClassNotFound {
		t.Fatalf("ClassOf = %q, want not_found", got)
	}
	if !xerr.IsRemote(err) {
		t.Fatalf("remote miss not remote-marked: %v", err)
	}
	if xerr.Retryable(err) {
		t.Fatalf("a definitive miss must not be retryable: %v", err)
	}
	if n := pol.Counters().Retries; n != 0 {
		t.Fatalf("miss provoked %d retries, want 0", n)
	}

	// The hit path still works with the Found flag gone from the wire.
	if got, err := yc.Get(ctx, db, []byte("present")); err != nil || string(got) != "v" {
		t.Fatalf("Get(present) = %q, %v", got, err)
	}

	// The client endpoint counted the miss under its class.
	if n := cli.Endpoint().ErrorClasses()[string(xerr.ClassNotFound)]; n == 0 {
		t.Fatal("client endpoint did not count a not_found error")
	}
}

func TestTypedShedCrossesTCP(t *testing.T) {
	// One-token bucket with a negligible refill: the first call admits and
	// the second sheds, deterministically.
	qcfg := qos.Config{
		Enabled: true,
		Tenants: map[string]qos.TenantConfig{
			"greedy": {Weight: 1, RatePerSec: 0.0001, Burst: 1},
		},
	}
	yc, db, _, pol, cli := xerrService(t, qcfg, "greedy")
	// Rate admission applies to batch-class traffic; tag the context the
	// way WriteBatch flushes do.
	ctx := qos.WithClass(context.Background(), qos.ClassBatch)
	if err := yc.Put(ctx, db, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("first call should be admitted: %v", err)
	}

	err := yc.Put(ctx, db, []byte("k2"), []byte("v2"))
	var shed *qos.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("rejection is not a typed ShedError: %v", err)
	}
	if shed.Tenant != "greedy" {
		t.Fatalf("shed names tenant %q, want greedy", shed.Tenant)
	}
	if got := xerr.ClassOf(err); got != xerr.ClassShed {
		t.Fatalf("ClassOf = %q, want shed", got)
	}
	if xerr.Retryable(err) {
		t.Fatalf("a shed must not be blind-retried: %v", err)
	}
	if n := pol.Counters().Retries; n != 0 {
		t.Fatalf("shed provoked %d retries, want 0", n)
	}

	// The error-class census is scrapeable from the client endpoint.
	reg := obs.NewRegistry()
	cli.Endpoint().RegisterMetrics(reg)
	text := obs.PromText(reg.Snapshot())
	if !strings.Contains(text, `hepnos_errors_total{class="shed"}`) {
		t.Fatalf("scrape missing shed class counter:\n%s", text)
	}
}

func TestRemoteUnavailableIsNotBlindRetried(t *testing.T) {
	yc, db, prov, pol, _ := xerrService(t, qos.Config{}, "")
	ctx := context.Background()
	if err := yc.Put(ctx, db, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Close the backing database: the provider stays reachable but answers
	// every operation with ErrDBClosed.
	if err := prov.Close(); err != nil {
		t.Fatal(err)
	}

	_, err := yc.Get(ctx, db, []byte("k"))
	if !errors.Is(err, yokan.ErrDBClosed) {
		t.Fatalf("closed database lost sentinel identity: %v", err)
	}
	if !xerr.IsUnavailable(err) {
		t.Fatalf("ErrDBClosed must classify unavailable: %v", err)
	}
	if !xerr.IsRemote(err) {
		t.Fatalf("a served answer must carry the remote mark: %v", err)
	}
	if xerr.Retryable(err) {
		t.Fatal("remote unavailable must not be blind-retryable: the handler ran")
	}
	if n := pol.Counters().Retries; n != 0 {
		t.Fatalf("remote unavailable provoked %d retries, want 0", n)
	}
}

func TestErrorClassCensusScrape(t *testing.T) {
	yc, db, _, _, cli := xerrService(t, qos.Config{}, "")
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := yc.Get(ctx, db, []byte(fmt.Sprintf("missing-%d", i))); !errors.Is(err, yokan.ErrKeyNotFound) {
			t.Fatalf("miss %d: %v", i, err)
		}
	}
	if _, err := yc.Get(ctx, yokan.DBHandle{Addr: db.Addr, Provider: db.Provider, Name: "no-such-db"}, []byte("k")); !errors.Is(err, yokan.ErrNoSuchDB) {
		t.Fatalf("bad database name: %v", err)
	}

	reg := obs.NewRegistry()
	cli.Endpoint().RegisterMetrics(reg)
	text := obs.PromText(reg.Snapshot())
	if !strings.Contains(text, `hepnos_errors_total{class="not_found"} 4`) {
		t.Fatalf("scrape missing not_found census:\n%s", text)
	}

	// Sentinel identities with a shared class stay distinct through the
	// wire: a missing database never reads as a missing key.
	_, err := yc.Get(ctx, yokan.DBHandle{Addr: db.Addr, Provider: db.Provider, Name: "no-such-db"}, []byte("k"))
	if errors.Is(err, yokan.ErrKeyNotFound) {
		t.Fatalf("ErrNoSuchDB conflated with ErrKeyNotFound: %v", err)
	}
}

// TestErrorClassCensusUnderChaos is the DESIGN.md §15 observability
// experiment: a chaos-seeded mixed workload (injected drops + misses) must
// produce an error-class census whose unavailable row equals the
// injector's own drop count exactly and whose not_found row equals the
// number of misses issued — proving the class labels are an accounting of
// what happened, not a sampling. Replay any failure with CHAOS_SEED=<seed>.
func TestErrorClassCensusUnderChaos(t *testing.T) {
	seed := chaos.SeedFromEnv(23)
	in := chaos.New(seed, &chaos.Flaky{P: 0.2})
	server, err := margo.Init(margo.Config{Address: "tcp://127.0.0.1:0", RPCXStreams: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Finalize)
	prov, err := yokan.NewProvider(server, 1, nil, []yokan.DBConfig{{Name: "census"}})
	if err != nil {
		t.Fatal(err)
	}
	pol := &resilience.Policy{MaxRetries: 8, Retryable: fabric.RetryableError}
	cli, err := margo.Init(margo.Config{
		Address:    "tcp://127.0.0.1:0",
		NetSim:     &fabric.NetSim{Fault: in.ClientFault()},
		Resilience: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Finalize)
	yc := yokan.NewClient(cli)
	db := yokan.DBHandle{Addr: server.Addr(), Provider: 1, Name: prov.Databases()[0]}

	ctx := context.Background()
	const puts, misses = 100, 50
	for i := 0; i < puts; i++ {
		if err := yc.Put(ctx, db, []byte(fmt.Sprintf("k-%03d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d (seed %d): %v", i, seed, err)
		}
	}
	for i := 0; i < misses; i++ {
		if _, err := yc.Get(ctx, db, []byte(fmt.Sprintf("missing-%03d", i))); !errors.Is(err, yokan.ErrKeyNotFound) {
			t.Fatalf("miss %d (seed %d): %v", i, seed, err)
		}
	}

	census := cli.Endpoint().ErrorClasses()
	drops := int64(in.Drops())
	if census[string(xerr.ClassUnavailable)] != drops {
		t.Fatalf("unavailable census %d != injector drops %d (seed %d)",
			census[string(xerr.ClassUnavailable)], drops, seed)
	}
	if census[string(xerr.ClassNotFound)] != misses {
		t.Fatalf("not_found census %d != %d misses issued (seed %d)",
			census[string(xerr.ClassNotFound)], misses, seed)
	}
	retries := pol.Counters().Retries
	if retries == 0 || retries > drops {
		t.Fatalf("retries %d outside (0, drops=%d] (seed %d)", retries, drops, seed)
	}

	reg := obs.NewRegistry()
	cli.Endpoint().RegisterMetrics(reg)
	scrape := obs.PromText(reg.Snapshot())
	for _, class := range []xerr.Class{xerr.ClassUnavailable, xerr.ClassNotFound} {
		want := fmt.Sprintf("hepnos_errors_total{class=%q} %d", class, census[string(class)])
		if !strings.Contains(scrape, want) {
			t.Fatalf("scrape missing %q (seed %d):\n%s", want, seed, scrape)
		}
	}
	t.Logf("seed %d: %d ops, %d drops retried (%d retries), census %v",
		seed, puts+misses, drops, retries, census)
}
