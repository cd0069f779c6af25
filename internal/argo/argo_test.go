package argo

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDefaultConfigRuns(t *testing.T) {
	r, err := NewRuntime(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	pool := r.Pool("__primary__")
	var count atomic.Int64
	var wg sync.WaitGroup
	const n = 1000
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := pool.Push(func() {
			count.Add(1)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	r.Shutdown()
	if count.Load() != n || pool.Started() != n {
		t.Fatalf("ran %d tasks (pool counted %d), want %d", count.Load(), pool.Started(), n)
	}
}

// With its streams all blocked, a pool runs exactly as many tasks at once
// as it has streams.
func TestAllStreamsParticipate(t *testing.T) {
	r, err := NewRuntime(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()
	pool := r.Pool("__primary__")

	started := make(chan struct{}, 64)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	const n = 64
	wg.Add(n)
	for i := 0; i < n; i++ {
		pool.Push(func() {
			started <- struct{}{}
			<-gate
			wg.Done()
		})
	}
	for i := 0; i < 4; i++ {
		<-started
	}
	select {
	case <-started:
		t.Fatal("a fifth task started while four streams were blocked")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	wg.Wait()
}

// One stream runs its pool's tasks in push order.
func TestFIFOOrder(t *testing.T) {
	r, err := NewRuntime(Config{Pools: []PoolConfig{{Name: "p", XStreams: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	pool := r.Pool("p")
	var order []int
	const n = 100 // enough to wrap and grow the ring
	for i := 0; i < n; i++ {
		pool.Push(func() { order = append(order, i) })
	}
	r.Shutdown()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
	if len(order) != n {
		t.Fatalf("ran %d of %d", len(order), n)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Pools: []PoolConfig{{Name: ""}}},
		{Pools: []PoolConfig{{Name: "p"}, {Name: "p"}}},
	}
	for i, cfg := range bad {
		if r, err := NewRuntime(cfg); err == nil {
			r.Shutdown()
			t.Errorf("config %d should have been rejected", i)
		}
	}
	r, err := NewRuntime(Config{Pools: []PoolConfig{{Name: "p"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()
	if got := r.Pool("p").XStreams(); got != 1 {
		t.Fatalf("pool without xstreams runs %d streams, want 1", got)
	}
}

func TestPushAfterShutdown(t *testing.T) {
	r, err := NewRuntime(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	pool := r.Pool("__primary__")
	r.Shutdown()
	if err := pool.Push(func() {}); err != ErrShutdown {
		t.Fatalf("Push after shutdown = %v, want ErrShutdown", err)
	}
	// Shutdown is idempotent.
	r.Shutdown()
}

func TestShutdownDrainsQueuedTasks(t *testing.T) {
	r, err := NewRuntime(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	pool := r.Pool("__primary__")
	const n = 500
	for i := 0; i < n; i++ {
		pool.Push(func() { count.Add(1) })
	}
	r.Shutdown()
	if count.Load() != n {
		t.Fatalf("shutdown lost tasks: ran %d of %d", count.Load(), n)
	}
}

func TestShutdownDrainsEveryPool(t *testing.T) {
	r, err := NewRuntime(Config{Pools: []PoolConfig{{Name: "a"}, {Name: "b", XStreams: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	for i := 0; i < 200; i++ {
		r.Pool("a").Push(func() { count.Add(1) })
		r.Pool("b").Push(func() { count.Add(1) })
	}
	r.Shutdown()
	if count.Load() != 400 {
		t.Fatalf("shutdown stranded tasks: ran %d of 400", count.Load())
	}
}

// Each pool has streams of its own: blocking every stream of one pool does
// not stall another.
func TestMultiPoolXStream(t *testing.T) {
	r, err := NewRuntime(Config{Pools: []PoolConfig{{Name: "slow", XStreams: 2}, {Name: "fast"}}})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	for i := 0; i < 2; i++ {
		r.Pool("slow").Push(func() { <-gate })
	}
	done := make(chan struct{})
	r.Pool("fast").Push(func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fast pool stalled behind the slow pool's blocked streams")
	}
	close(gate)
	r.Shutdown()
	if r.Pool("slow").Started() != 2 || r.Pool("fast").Started() != 1 {
		t.Fatalf("slow ran %d, fast ran %d", r.Pool("slow").Started(), r.Pool("fast").Started())
	}
}

func TestPoolErrors(t *testing.T) {
	r, _ := NewRuntime(DefaultConfig(1))
	defer r.Shutdown()
	if err := r.Pool("__primary__").Push(nil); err == nil {
		t.Error("nil task should error")
	}
	if r.Pool("ghost") != nil {
		t.Error("unknown pool should be nil")
	}
}

func TestRuntimeAccessors(t *testing.T) {
	r, err := NewRuntime(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()
	pools := r.Pools()
	if len(pools) != 1 {
		t.Fatalf("pools = %d", len(pools))
	}
	if pools[0].Name() != "__primary__" || pools[0].XStreams() != 3 {
		t.Fatalf("pool %q with %d xstreams", pools[0].Name(), pools[0].XStreams())
	}
}

// TestAllocBudgetArgoPush locks the hand-off's allocation cost: once the
// pool has run at its working depth, pushing a pre-built task and letting
// a stream run it allocates nothing.
func TestAllocBudgetArgoPush(t *testing.T) {
	r, err := NewRuntime(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown()
	pool := r.Pool("__primary__")
	done := make(chan struct{}, 1)
	task := Task(func() { done <- struct{}{} })
	n := testing.AllocsPerRun(1000, func() {
		if err := pool.Push(task); err != nil {
			t.Fatal(err)
		}
		<-done
	})
	t.Logf("Push+run: %.2f allocs/op (budget 0)", n)
	if n != 0 {
		t.Errorf("Push+run allocs/op = %.2f, budget 0", n)
	}
}

func BenchmarkPoolThroughput(b *testing.B) {
	r, err := NewRuntime(DefaultConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Shutdown()
	pool := r.Pool("__primary__")
	var wg sync.WaitGroup
	task := Task(wg.Done)
	b.ReportAllocs()
	b.ResetTimer()
	wg.Add(b.N)
	for i := 0; i < b.N; i++ {
		pool.Push(task)
	}
	wg.Wait()
}
