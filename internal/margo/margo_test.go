package margo

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/argo"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
)

var addrSeq atomic.Int64

func newInstance(t *testing.T, cfg Config) *Instance {
	t.Helper()
	if cfg.Address == "" {
		cfg.Address = fabric.Address(fmt.Sprintf("inproc://margo-%d", addrSeq.Add(1)))
	}
	m, err := Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Finalize)
	return m
}

func TestProviderRoundTrip(t *testing.T) {
	server := newInstance(t, Config{RPCXStreams: 4})
	client := newInstance(t, Config{})

	_, err := server.RegisterProvider("kv", 1, nil, map[string]fabric.Handler{
		"put": func(_ context.Context, req *fabric.Request) ([]byte, error) {
			return append([]byte("stored:"), req.Payload...), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Forward(context.Background(), server.Addr(), "kv", 1, "put", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "stored:x" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestProviderIDsAreIsolated(t *testing.T) {
	server := newInstance(t, Config{RPCXStreams: 2})
	client := newInstance(t, Config{})
	for id := ProviderID(0); id < 3; id++ {
		id := id
		_, err := server.RegisterProvider("kv", id, nil, map[string]fabric.Handler{
			"who": func(context.Context, *fabric.Request) ([]byte, error) {
				return []byte(fmt.Sprintf("provider-%d", id)), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for id := ProviderID(0); id < 3; id++ {
		resp, err := client.Forward(context.Background(), server.Addr(), "kv", id, "who", nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("provider-%d", id); string(resp) != want {
			t.Fatalf("id %d answered %q", id, resp)
		}
	}
	// Unregistered provider id fails.
	if _, err := client.Forward(context.Background(), server.Addr(), "kv", 9, "who", nil); err == nil {
		t.Fatal("unknown provider id should fail")
	}
}

func TestHandlersRunInAssignedPool(t *testing.T) {
	cfg := argo.Config{Pools: []argo.PoolConfig{{Name: "p0", XStreams: 1}, {Name: "p1", XStreams: 1}}}
	server := newInstance(t, Config{Argobots: cfg})
	client := newInstance(t, Config{})

	pool1 := server.Runtime().Pool("p1")
	if _, err := server.RegisterProvider("svc", 0, pool1, map[string]fabric.Handler{
		"noop": func(context.Context, *fabric.Request) ([]byte, error) { return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := client.Forward(context.Background(), server.Addr(), "svc", 0, "noop", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := pool1.Started(); got != n {
		t.Fatalf("pool p1 ran %d tasks, want %d", got, n)
	}
	if got := server.Runtime().Pool("p0").Started(); got != 0 {
		t.Fatalf("pool p0 ran %d tasks, want 0", got)
	}
}

func TestRegistrationErrors(t *testing.T) {
	m := newInstance(t, Config{})
	h := map[string]fabric.Handler{"x": func(context.Context, *fabric.Request) ([]byte, error) { return nil, nil }}
	if _, err := m.RegisterProvider("", 0, nil, h); err == nil {
		t.Error("empty service should fail")
	}
	if _, err := m.RegisterProvider("s", 0, nil, nil); err == nil {
		t.Error("no handlers should fail")
	}
	if _, err := m.RegisterProvider("s", 0, nil, h); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterProvider("s", 0, nil, h); err == nil {
		t.Error("duplicate provider should fail")
	}
	if _, err := m.RegisterProvider("s", 1, nil, h); err != nil {
		t.Errorf("same service different id should work: %v", err)
	}
}

func TestProvidersListing(t *testing.T) {
	m := newInstance(t, Config{})
	h := map[string]fabric.Handler{
		"get": func(context.Context, *fabric.Request) ([]byte, error) { return nil, nil },
		"put": func(context.Context, *fabric.Request) ([]byte, error) { return nil, nil },
	}
	m.RegisterProvider("zeta", 0, nil, h)
	m.RegisterProvider("alpha", 2, nil, h)
	m.RegisterProvider("alpha", 1, nil, h)
	ps := m.Providers()
	if len(ps) != 3 {
		t.Fatalf("providers = %d", len(ps))
	}
	if ps[0].Service != "alpha" || ps[0].ID != 1 || ps[2].Service != "zeta" {
		t.Fatalf("unsorted: %+v", ps)
	}
	rpcs := ps[0].RPCs()
	if len(rpcs) != 2 || rpcs[0] != "get" || rpcs[1] != "put" {
		t.Fatalf("rpcs = %v", rpcs)
	}
}

func TestConcurrentForwards(t *testing.T) {
	server := newInstance(t, Config{RPCXStreams: 8})
	client := newInstance(t, Config{})
	var served atomic.Int64
	server.RegisterProvider("kv", 0, nil, map[string]fabric.Handler{
		"inc": func(context.Context, *fabric.Request) ([]byte, error) {
			served.Add(1)
			return nil, nil
		},
	})
	var wg sync.WaitGroup
	const n = 500
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Forward(context.Background(), server.Addr(), "kv", 0, "inc", nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if served.Load() != n {
		t.Fatalf("served %d, want %d", served.Load(), n)
	}
}

func TestFinalizeIdempotentAndBlocksRegistration(t *testing.T) {
	m := newInstance(t, Config{})
	m.Finalize()
	m.Finalize()
	h := map[string]fabric.Handler{"x": func(context.Context, *fabric.Request) ([]byte, error) { return nil, nil }}
	if _, err := m.RegisterProvider("s", 0, nil, h); err == nil {
		t.Fatal("registration after finalize should fail")
	}
}

func TestTCPInstance(t *testing.T) {
	server := newInstance(t, Config{Address: "tcp://127.0.0.1:0", RPCXStreams: 2})
	client := newInstance(t, Config{Address: "tcp://127.0.0.1:0"})
	server.RegisterProvider("kv", 0, nil, map[string]fabric.Handler{
		"echo": func(_ context.Context, req *fabric.Request) ([]byte, error) { return req.Payload, nil },
	})
	resp, err := client.Forward(context.Background(), server.Addr(), "kv", 0, "echo", []byte("over tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "over tcp" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestBuiltinPing(t *testing.T) {
	server := newInstance(t, Config{})
	client := newInstance(t, Config{})
	if err := client.Ping(context.Background(), server.Addr()); err != nil {
		t.Fatalf("ping live server: %v", err)
	}
	// A finalized server no longer answers.
	dead := newInstance(t, Config{})
	addr := dead.Addr()
	dead.Finalize()
	if err := client.Ping(context.Background(), addr); err == nil {
		t.Fatal("ping to finalized server should fail")
	}
	// Self-ping works too (a server can probe itself).
	if err := server.Ping(context.Background(), server.Addr()); err != nil {
		t.Fatalf("self ping: %v", err)
	}
}
