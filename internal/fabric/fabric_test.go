package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var addrSeq atomic.Int64

func inprocAddr() Address {
	return Address(fmt.Sprintf("inproc://test-%d", addrSeq.Add(1)))
}

func newPair(t *testing.T, scheme string) (client, server *Endpoint) {
	t.Helper()
	listen := func() *Endpoint {
		var a Address
		if scheme == "inproc" {
			a = inprocAddr()
		} else {
			a = "tcp://127.0.0.1:0"
		}
		e, err := Listen(a)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	return listen(), listen()
}

func testEcho(t *testing.T, scheme string) {
	client, server := newPair(t, scheme)
	server.Register("echo", func(_ context.Context, req *Request) ([]byte, error) {
		return req.Payload, nil
	})
	resp, err := client.Call(context.Background(), server.Addr(), "echo", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ping" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestEchoInproc(t *testing.T) { testEcho(t, "inproc") }
func TestEchoTCP(t *testing.T)    { testEcho(t, "tcp") }

func testRemoteError(t *testing.T, scheme string) {
	client, server := newPair(t, scheme)
	server.Register("fail", func(_ context.Context, _ *Request) ([]byte, error) {
		return nil, errors.New("database on fire")
	})
	_, err := client.Call(context.Background(), server.Addr(), "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if !strings.Contains(re.Msg, "database on fire") {
		t.Fatalf("message lost: %q", re.Msg)
	}
}

func TestRemoteErrorInproc(t *testing.T) { testRemoteError(t, "inproc") }
func TestRemoteErrorTCP(t *testing.T)    { testRemoteError(t, "tcp") }

func testNoSuchRPC(t *testing.T, scheme string) {
	client, server := newPair(t, scheme)
	if _, err := client.Call(context.Background(), server.Addr(), "ghost", nil); err == nil {
		t.Fatal("unregistered RPC should fail")
	}
}

func TestNoSuchRPCInproc(t *testing.T) { testNoSuchRPC(t, "inproc") }
func TestNoSuchRPCTCP(t *testing.T)    { testNoSuchRPC(t, "tcp") }

func TestUnreachableInproc(t *testing.T) {
	client, _ := newPair(t, "inproc")
	_, err := client.Call(context.Background(), "inproc://nobody-home", "x", nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
}

func TestUnreachableTCP(t *testing.T) {
	client, _ := newPair(t, "tcp")
	_, err := client.Call(context.Background(), "tcp://127.0.0.1:1", "x", nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
}

func testBulkPull(t *testing.T, scheme string) {
	client, server := newPair(t, scheme)
	// Client exposes a large region; the RPC carries only the handle; the
	// server pulls the bytes — the Yokan put-by-RDMA pattern.
	big := bytes.Repeat([]byte("abcdefgh"), 1<<14) // 128 KiB
	var got []byte
	server.Register("store", func(ctx context.Context, req *Request) ([]byte, error) {
		h, _, err := DecodeBulkHandle(req.Payload)
		if err != nil {
			return nil, err
		}
		data, err := req.PullBulk(ctx, h)
		if err != nil {
			return nil, err
		}
		got = data
		return []byte("ok"), nil
	})
	h := client.ExposeBulk(big)
	defer client.FreeBulk(h)
	resp, err := client.Call(context.Background(), server.Addr(), "store", h.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ok" || !bytes.Equal(got, big) {
		t.Fatalf("bulk transfer corrupted: resp=%q len(got)=%d", resp, len(got))
	}
	st := client.Stats()
	if st.CallsSent == 0 {
		t.Error("client stats not counted")
	}
	if server.Stats().CallsServed == 0 {
		t.Error("server stats not counted")
	}
}

func TestBulkPullInproc(t *testing.T) { testBulkPull(t, "inproc") }
func TestBulkPullTCP(t *testing.T)    { testBulkPull(t, "tcp") }

func TestBulkFreeInvalidatesHandle(t *testing.T) {
	client, server := newPair(t, "inproc")
	server.Register("pull", func(ctx context.Context, req *Request) ([]byte, error) {
		h, _, err := DecodeBulkHandle(req.Payload)
		if err != nil {
			return nil, err
		}
		return req.PullBulk(ctx, h)
	})
	h := client.ExposeBulk([]byte("data"))
	client.FreeBulk(h)
	if _, err := client.Call(context.Background(), server.Addr(), "pull", h.Encode(nil)); err == nil {
		t.Fatal("pull of freed handle should fail")
	}
}

func TestBulkHandleCodec(t *testing.T) {
	h := BulkHandle{ID: 7, Size: 1234}
	enc := h.Encode([]byte("prefix"))
	got, rest, err := DecodeBulkHandle(enc[6:])
	if err != nil || got != h || len(rest) != 0 {
		t.Fatalf("codec: %v %v rest=%d", got, err, len(rest))
	}
	if _, _, err := DecodeBulkHandle([]byte{1, 2}); err == nil {
		t.Fatal("short handle should error")
	}
}

func TestConcurrentCalls(t *testing.T) {
	for _, scheme := range []string{"inproc", "tcp"} {
		t.Run(scheme, func(t *testing.T) {
			client, server := newPair(t, scheme)
			server.Register("double", func(_ context.Context, req *Request) ([]byte, error) {
				return append(req.Payload, req.Payload...), nil
			})
			var wg sync.WaitGroup
			errs := make(chan error, 200)
			for i := 0; i < 200; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					msg := []byte(fmt.Sprintf("m%d", i))
					resp, err := client.Call(context.Background(), server.Addr(), "double", msg)
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(resp, append(msg, msg...)) {
						errs <- fmt.Errorf("bad response %q for %q", resp, msg)
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

func TestContextCancellation(t *testing.T) {
	client, server := newPair(t, "inproc")
	started := make(chan struct{})
	server.Register("slow", func(ctx context.Context, _ *Request) ([]byte, error) {
		close(started)
		time.Sleep(2 * time.Second)
		return nil, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	start := time.Now()
	_, err := client.Call(ctx, server.Addr(), "slow", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation did not unblock the call promptly")
	}
}

func TestCallAfterClose(t *testing.T) {
	client, server := newPair(t, "inproc")
	client.Close()
	if _, err := client.Call(context.Background(), server.Addr(), "x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	// Closing twice is fine.
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestInprocAddressReuse(t *testing.T) {
	a := inprocAddr()
	e1, err := Listen(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Listen(a); err == nil {
		t.Fatal("duplicate inproc address should fail")
	}
	e1.Close()
	// After close the name is free again.
	e2, err := Listen(a)
	if err != nil {
		t.Fatal(err)
	}
	e2.Close()
}

func TestBadScheme(t *testing.T) {
	if _, err := Listen("carrier-pigeon://x"); err == nil {
		t.Fatal("unknown scheme should fail")
	}
}

func TestNetSimLatency(t *testing.T) {
	sim := &NetSim{Latency: 50 * time.Millisecond}
	a := inprocAddr()
	client, err := Listen(a, WithNetSim(sim))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := Listen(inprocAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	server.Register("noop", func(context.Context, *Request) ([]byte, error) { return nil, nil })
	start := time.Now()
	if _, err := client.Call(context.Background(), server.Addr(), "noop", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 45*time.Millisecond {
		t.Fatalf("latency not applied: %v", d)
	}
}

func TestNetSimFaultInjection(t *testing.T) {
	boom := errors.New("injected fault")
	calls := 0
	sim := &NetSim{Fault: func(Address, string, int, string) error {
		calls++
		if calls <= 2 {
			return boom
		}
		return nil
	}}
	client, err := Listen(inprocAddr(), WithNetSim(sim))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, _ := Listen(inprocAddr())
	defer server.Close()
	server.Register("noop", func(context.Context, *Request) ([]byte, error) { return nil, nil })
	for i := 0; i < 2; i++ {
		if _, err := client.Call(context.Background(), server.Addr(), "noop", nil); !errors.Is(err, boom) {
			t.Fatalf("call %d: want injected fault, got %v", i, err)
		}
	}
	if _, err := client.Call(context.Background(), server.Addr(), "noop", nil); err != nil {
		t.Fatalf("third call should succeed: %v", err)
	}
	if client.Stats().Errors != 2 {
		t.Fatalf("error count = %d", client.Stats().Errors)
	}
}

func TestNetSimInjectionHardFail(t *testing.T) {
	// A tiny injection budget in hard-fail mode reproduces the Aries NIC
	// oversaturation crashes from §IV-E.
	sim := &NetSim{InjectionBps: 10, InjectionBurst: 100, InjectionHardFail: true}
	client, err := Listen(inprocAddr(), WithNetSim(sim))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, _ := Listen(inprocAddr())
	defer server.Close()
	server.Register("noop", func(context.Context, *Request) ([]byte, error) { return nil, nil })

	payload := bytes.Repeat([]byte{1}, 60)
	if _, err := client.Call(context.Background(), server.Addr(), "noop", payload); err != nil {
		t.Fatalf("first call within burst should pass: %v", err)
	}
	_, err = client.Call(context.Background(), server.Addr(), "noop", payload)
	if !errors.Is(err, ErrInjectionOverload) {
		t.Fatalf("want ErrInjectionOverload, got %v", err)
	}
}

func TestNetSimBandwidth(t *testing.T) {
	sim := &NetSim{BandwidthBps: 1 << 20} // 1 MiB/s
	client, err := Listen(inprocAddr(), WithNetSim(sim))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, _ := Listen(inprocAddr())
	defer server.Close()
	server.Register("noop", func(context.Context, *Request) ([]byte, error) { return nil, nil })
	payload := make([]byte, 1<<18) // 256 KiB -> 250ms at 1 MiB/s
	start := time.Now()
	if _, err := client.Call(context.Background(), server.Addr(), "noop", payload); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Fatalf("bandwidth cost not applied: %v", d)
	}
}

func TestPayloadIsolationInproc(t *testing.T) {
	client, server := newPair(t, "inproc")
	server.Register("mutate", func(_ context.Context, req *Request) ([]byte, error) {
		for i := range req.Payload {
			req.Payload[i] = 0xff
		}
		return req.Payload, nil
	})
	orig := []byte{1, 2, 3}
	resp, err := client.Call(context.Background(), server.Addr(), "mutate", orig)
	if err != nil {
		t.Fatal(err)
	}
	if orig[0] != 1 {
		t.Fatal("handler mutated the caller's buffer")
	}
	resp[0] = 9 // response is also a private copy
}

func TestSchemeParsing(t *testing.T) {
	if Address("tcp://x:1").Scheme() != "tcp" || Address("bogus").Scheme() != "" {
		t.Fatal("scheme parsing broken")
	}
}

func BenchmarkRPCInprocSmall(b *testing.B) {
	client, _ := Listen(inprocAddr())
	server, _ := Listen(inprocAddr())
	defer client.Close()
	defer server.Close()
	server.Register("echo", func(_ context.Context, req *Request) ([]byte, error) {
		return req.Payload, nil
	})
	payload := []byte("0123456789abcdef")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(ctx, server.Addr(), "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCTCPSmall(b *testing.B) {
	client, _ := Listen("tcp://127.0.0.1:0")
	server, _ := Listen("tcp://127.0.0.1:0")
	defer client.Close()
	defer server.Close()
	server.Register("echo", func(_ context.Context, req *Request) ([]byte, error) {
		return req.Payload, nil
	})
	payload := []byte("0123456789abcdef")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(ctx, server.Addr(), "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRPCProfile(t *testing.T) {
	client, server := newPair(t, "inproc")
	server.Register("fast", func(context.Context, *Request) ([]byte, error) { return nil, nil })
	server.Register("boom", func(context.Context, *Request) ([]byte, error) {
		return nil, errors.New("nope")
	})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := client.Call(ctx, server.Addr(), "fast", nil); err != nil {
			t.Fatal(err)
		}
	}
	client.Call(ctx, server.Addr(), "boom", nil)

	profiles := client.Profile()
	byName := map[string]RPCProfile{}
	for _, p := range profiles {
		byName[p.RPC] = p
	}
	fast := byName["fast"]
	if fast.Calls != 5 || fast.Errors != 0 {
		t.Fatalf("fast profile = %+v", fast)
	}
	if fast.Mean() <= 0 || fast.Max < fast.Min || fast.Total < fast.Max {
		t.Fatalf("fast latency aggregates inconsistent: %+v", fast)
	}
	boomP := byName["boom"]
	if boomP.Errors != 1 || boomP.Calls != 0 {
		t.Fatalf("boom profile = %+v", boomP)
	}
	// Server-side endpoint has no origin-side breadcrumbs.
	if len(server.Profile()) != 0 {
		t.Fatalf("server profile = %v", server.Profile())
	}
	if (RPCProfile{}).Mean() != 0 {
		t.Fatal("zero profile mean should be 0")
	}
}

func TestBulkSweepReclaimsAbandonedRegions(t *testing.T) {
	e, err := Listen(inprocAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h1 := e.ExposeBulk([]byte("old region"))
	time.Sleep(20 * time.Millisecond)
	h2 := e.ExposeBulk([]byte("fresh region"))
	if e.BulkRegions() != 2 {
		t.Fatalf("regions = %d", e.BulkRegions())
	}
	// Sweep anything older than 10ms: h1 goes, h2 stays.
	if n := e.SweepBulk(10 * time.Millisecond); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if e.BulkRegions() != 1 {
		t.Fatalf("regions after sweep = %d", e.BulkRegions())
	}
	if _, err := e.lookupBulk(h1); err == nil {
		t.Fatal("swept handle should be gone")
	}
	if _, err := e.lookupBulk(h2); err != nil {
		t.Fatalf("fresh handle lost: %v", err)
	}
	// maxAge <= 0 sweeps everything.
	if n := e.SweepBulk(0); n != 1 {
		t.Fatalf("full sweep reclaimed %d", n)
	}
	if e.BulkRegions() != 0 {
		t.Fatal("regions remain after full sweep")
	}
}
