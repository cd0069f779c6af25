package yokan

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/margo"
	"github.com/hep-on-hpc/hepnos-go/internal/resilience"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
)

// TestFlakyNetworkFailsCleanly injects message drops on the client's
// endpoint and checks that operations fail with the injected error —
// never corrupting state — and succeed once the network heals.
func TestFlakyNetworkFailsCleanly(t *testing.T) {
	server, err := margo.Init(margo.Config{
		Address:     fabric.Address(fmt.Sprintf("inproc://flaky-srv-%d", svcSeq.Add(1))),
		RPCXStreams: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Finalize()
	prov, err := NewProvider(server, 0, nil, []DBConfig{{Name: "db"}})
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected drop")
	var failing atomic.Bool
	sim := &fabric.NetSim{Fault: func(fabric.Address, string, int, string) error {
		if failing.Load() {
			return boom
		}
		return nil
	}}
	cliMI, err := margo.Init(margo.Config{
		Address: fabric.Address(fmt.Sprintf("inproc://flaky-cli-%d", svcSeq.Add(1))),
		NetSim:  sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cliMI.Finalize()
	cli := NewClient(cliMI)
	db := DBHandle{Addr: server.Addr(), Provider: 0, Name: "db"}
	ctx := context.Background()

	// Healthy: write a baseline.
	if err := cli.Put(ctx, db, []byte("before"), []byte("1")); err != nil {
		t.Fatal(err)
	}

	// Partition: every operation must surface the injected fault.
	failing.Store(true)
	if err := cli.Put(ctx, db, []byte("during"), []byte("2")); !errors.Is(err, boom) {
		t.Fatalf("put during partition: %v", err)
	}
	if _, err := cli.Get(ctx, db, []byte("before")); !errors.Is(err, boom) {
		t.Fatalf("get during partition: %v", err)
	}
	if _, _, err := cli.GetMulti(ctx, db, [][]byte{[]byte("before")}, true); !errors.Is(err, boom) {
		t.Fatalf("bulk get during partition: %v", err)
	}
	if _, err := cli.ListKeys(ctx, db, nil, nil, 0); !errors.Is(err, boom) {
		t.Fatalf("list during partition: %v", err)
	}

	// Heal: everything works again and the failed put left no residue.
	failing.Store(false)
	got, err := cli.Get(ctx, db, []byte("before"))
	if err != nil || string(got) != "1" {
		t.Fatalf("after heal: %q %v", got, err)
	}
	if _, err := cli.Get(ctx, db, []byte("during")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("dropped put must not have landed: %v", err)
	}
	n, err := prov.DB("db").Count()
	if err != nil || n != 1 {
		t.Fatalf("count after heal = %d %v", n, err)
	}
}

// TestBulkPutBadHandleLeavesNoResidue sends a put_multi_bulk naming a
// bulk handle that was never exposed: the server's pull must fail, the
// RPC must error, and the database must stay untouched — no partial batch.
func TestBulkPutBadHandleLeavesNoResidue(t *testing.T) {
	server, err := margo.Init(margo.Config{
		Address:     fabric.Address(fmt.Sprintf("inproc://flaky2-srv-%d", svcSeq.Add(1))),
		RPCXStreams: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Finalize()
	prov, err := NewProvider(server, 0, nil, []DBConfig{{Name: "db"}})
	if err != nil {
		t.Fatal(err)
	}
	cliMI, err := margo.Init(margo.Config{
		Address: fabric.Address(fmt.Sprintf("inproc://flaky2-cli-%d", svcSeq.Add(1))),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cliMI.Finalize()
	cli := NewClient(cliMI)
	cli.EagerLimit = 16 // force PutMulti onto the bulk path
	db := DBHandle{Addr: server.Addr(), Provider: 0, Name: "db"}
	ctx := context.Background()

	// A clean bulk put through the small eager limit works.
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	vals := [][]byte{[]byte("1"), []byte("2"), []byte("3")}
	if err := cli.PutMulti(ctx, db, keys, vals); err != nil {
		t.Fatal(err)
	}

	// Hand-craft a put_multi_bulk with an unexposed handle.
	bogus := fabric.BulkHandle{ID: 424242, Size: 100}
	breq, err := serde.Marshal(putMultiBulkReq{Handle: bogus.Encode(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cliMI.Forward(ctx, db.Addr, ServiceName, db.Provider, "put_multi_bulk", breq); err == nil {
		t.Fatal("bulk put with unexposed handle should fail")
	}
	n, err := prov.DB("db").Count()
	if err != nil || n != 3 {
		t.Fatalf("count after failed bulk put = %d %v, want 3", n, err)
	}
}

// TestGetMultiFreesRegionWhenPullFails fails the client's pull of a bulk
// get_multi response — dropped on the wire, or abandoned by a caller that
// cancelled mid-transfer — and checks the server's exposed region is freed
// at once instead of held until the server's sweep.
func TestGetMultiFreesRegionWhenPullFails(t *testing.T) {
	server, err := margo.Init(margo.Config{
		Address:     fabric.Address(fmt.Sprintf("inproc://pullfail-srv-%d", svcSeq.Add(1))),
		RPCXStreams: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Finalize()
	if _, err := NewProvider(server, 0, nil, []DBConfig{{Name: "db"}}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("bulk pull dropped")
	for _, tc := range []struct {
		name string
		// onPull runs when the client starts the pull and returns the
		// fault that ends it.
		onPull func(cancel context.CancelFunc) error
		want   error
	}{
		{"dropped", func(context.CancelFunc) error { return boom }, boom},
		{"cancelled", func(cancel context.CancelFunc) error { cancel(); return context.Canceled }, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sim := &fabric.NetSim{Fault: func(_ fabric.Address, rpc string, _ int, _ string) error {
				if rpc == "__fabric_bulk_pull__" {
					return tc.onPull(cancel)
				}
				return nil
			}}
			cliMI, err := margo.Init(margo.Config{
				Address: fabric.Address(fmt.Sprintf("inproc://pullfail-cli-%d", svcSeq.Add(1))),
				NetSim:  sim,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cliMI.Finalize()
			cli := NewClient(cliMI)
			db := DBHandle{Addr: server.Addr(), Provider: 0, Name: "db"}
			if err := cli.Put(ctx, db, []byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if _, _, err := cli.GetMulti(ctx, db, [][]byte{[]byte("k")}, true); !errors.Is(err, tc.want) {
				t.Fatalf("GetMulti = %v, want %v", err, tc.want)
			}
			if n := server.Endpoint().SweepBulk(0); n != 0 {
				t.Fatalf("%d bulk region(s) left exposed on the server after a failed pull", n)
			}
		})
	}
}

// TestRetryPolicyHealsTransientFaults attaches a retry policy to the
// client's endpoint and injects two transient drops: the third attempt
// succeeds and the caller never sees an error. Application (remote) errors
// are not retried.
func TestRetryPolicyHealsTransientFaults(t *testing.T) {
	server, err := margo.Init(margo.Config{
		Address:     fabric.Address(fmt.Sprintf("inproc://retry-srv-%d", svcSeq.Add(1))),
		RPCXStreams: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Finalize()
	if _, err := NewProvider(server, 0, nil, []DBConfig{{Name: "db"}}); err != nil {
		t.Fatal(err)
	}

	const nDrops = 2
	var drops atomic.Int32
	drops.Store(nDrops)
	boom := errors.New("transient drop")
	sim := &fabric.NetSim{Fault: func(fabric.Address, string, int, string) error {
		if drops.Add(-1) >= 0 {
			return boom
		}
		return nil
	}}
	pol := &resilience.Policy{MaxRetries: 3, InitialBackoff: time.Millisecond}
	cliMI, err := margo.Init(margo.Config{
		Address:    fabric.Address(fmt.Sprintf("inproc://retry-cli-%d", svcSeq.Add(1))),
		NetSim:     sim,
		Resilience: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cliMI.Finalize()
	cli := NewClient(cliMI)
	db := DBHandle{Addr: server.Addr(), Provider: 0, Name: "db"}
	ctx := context.Background()

	if err := cli.Put(ctx, db, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("retry should have absorbed transient drops: %v", err)
	}
	// One retry per drop: attempts == drops + 1, and the one attempt that
	// got through is the only call the server served.
	if n := pol.Counters().Retries; n != nDrops {
		t.Fatalf("retries = %d, want %d (one per drop)", n, nDrops)
	}
	if served := server.Endpoint().Stats().CallsServed; served != 1 {
		t.Fatalf("server served %d calls for one put, want 1", served)
	}
	got, err := cli.Get(ctx, db, []byte("k"))
	if err != nil || string(got) != "v" {
		t.Fatalf("get = %q %v", got, err)
	}

	// Remote (application) errors must not be retried: a put to an
	// unknown database fails once, immediately.
	ghost := db
	ghost.Name = "ghost"
	before := server.Endpoint().Stats().CallsServed
	if err := cli.Put(ctx, ghost, []byte("k"), []byte("v")); err == nil {
		t.Fatal("unknown database should fail")
	}
	served := server.Endpoint().Stats().CallsServed - before
	if served != 1 {
		t.Fatalf("remote error was retried: %d calls served", served)
	}
}

// TestRetryExhaustionReturnsLastError verifies the policy gives up.
func TestRetryExhaustionReturnsLastError(t *testing.T) {
	boom := errors.New("permanent drop")
	sim := &fabric.NetSim{Fault: func(fabric.Address, string, int, string) error { return boom }}
	pol := &resilience.Policy{MaxRetries: 2, InitialBackoff: time.Millisecond}
	cliMI, err := margo.Init(margo.Config{
		Address:    fabric.Address(fmt.Sprintf("inproc://retryx-cli-%d", svcSeq.Add(1))),
		NetSim:     sim,
		Resilience: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cliMI.Finalize()
	cli := NewClient(cliMI)
	db := DBHandle{Addr: "inproc://nowhere", Provider: 0, Name: "db"}
	if err := cli.Put(context.Background(), db, []byte("k"), nil); !errors.Is(err, boom) {
		t.Fatalf("want the injected error after exhaustion, got %v", err)
	}
	if n := pol.Counters().Retries; n != 2 {
		t.Fatalf("retries = %d, want the policy's 2", n)
	}
}
