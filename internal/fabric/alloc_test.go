package fabric

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
)

// budgetInprocCall locks the allocation cost of one in-process RPC
// round-trip (256B payload, echo handler). Measured 6 at the time of the
// wire-path refactor, and still 6 now that inproc, not serve, starts the
// handler's goroutine: payload isolation copy, handler's echo copy, the
// Request, the goroutine's closure, and the result channel (two).
const budgetInprocCall = 10

func TestAllocBudgetFabricCall(t *testing.T) {
	srv, err := Listen("inproc://alloc-srv")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register("echo", func(_ context.Context, req *Request) ([]byte, error) {
		return append([]byte(nil), req.Payload...), nil
	})
	cli, err := Listen("inproc://alloc-cli")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx := context.Background()
	payload := bytes.Repeat([]byte{0xab}, 256)
	n := testing.AllocsPerRun(200, func() {
		if _, err := cli.Call(ctx, srv.Addr(), "echo", payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("inproc Call(256B echo): %.1f allocs/op (budget %d)", n, budgetInprocCall)
	if n > budgetInprocCall {
		t.Errorf("inproc Call allocs/op = %.1f, budget %d", n, budgetInprocCall)
	}
}

// TestWirePathOwnershipTCP is the use-after-release gate for the pooled
// TCP wire path: many concurrent callers push distinct patterned payloads
// through CallBorrow while the server verifies and echoes them from
// borrowed request views. Every response is byte-checked BEFORE its done()
// releases the frame. Run under -race, any frame recycled while a borrowed
// view (request payload in a handler, or response in a caller) is still
// live shows up as a data race or a pattern mismatch.
func TestWirePathOwnershipTCP(t *testing.T) {
	srv, err := Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register("echo", func(_ context.Context, req *Request) ([]byte, error) {
		// req.Payload is a borrowed view into the pooled request frame.
		// Verify its integrity while holding it, then build the response
		// from it — the copy happens here, inside the borrow window.
		if len(req.Payload) < 3 {
			return nil, fmt.Errorf("short payload")
		}
		id := req.Payload[0]
		for i, b := range req.Payload {
			if b != id {
				return nil, fmt.Errorf("payload corrupted at %d: got %#x want %#x", i, b, id)
			}
		}
		return append([]byte(nil), req.Payload...), nil
	})

	cli, err := Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const workers = 8
	const calls = 60
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			// Varying sizes force frames through different pool classes.
			payload := bytes.Repeat([]byte{id}, 64+int(id)*97)
			for i := 0; i < calls; i++ {
				resp, done, err := cli.CallBorrow(ctx, srv.Addr(), "echo", payload)
				if err != nil {
					t.Errorf("worker %d call %d: %v", id, i, err)
					return
				}
				// The borrow window: every byte must still be ours.
				if !bytes.Equal(resp, payload) {
					t.Errorf("worker %d call %d: response corrupted (frame recycled under a live view?)", id, i)
					if done != nil {
						done()
					}
					return
				}
				if done != nil {
					done()
				}
			}
		}(byte(w + 1))
	}
	wg.Wait()
}

// TestCallBorrowReleaseOptional pins the "release is optional" rule: a
// caller that never invokes done must still get correct, stable bytes (the
// buffer falls to the GC instead of the pool).
func TestCallBorrowReleaseOptional(t *testing.T) {
	srv, err := Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register("tag", func(_ context.Context, req *Request) ([]byte, error) {
		return append([]byte("tag:"), req.Payload...), nil
	})
	cli, err := Listen("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx := context.Background()
	var kept [][]byte
	for i := 0; i < 50; i++ {
		payload := []byte(fmt.Sprintf("msg-%04d", i))
		resp, _, err := cli.CallBorrow(ctx, srv.Addr(), "tag", payload)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, resp) // retain without releasing
	}
	for i, r := range kept {
		want := fmt.Sprintf("tag:msg-%04d", i)
		if string(r) != want {
			t.Fatalf("retained response %d corrupted: %q, want %q", i, r, want)
		}
	}
}
