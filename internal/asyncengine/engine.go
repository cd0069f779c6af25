// Package asyncengine is the client-side asynchrony layer of §II-D: one
// argo-backed engine under write batching, prefetching, the parallel event
// processor, and the data loader.
//
// In HEPnOS all client-side background work — asynchronous write batches,
// prefetcher I/O, parallel event-processing threads — runs on the same
// Argobots pools owned by the thallium engine, so one configuration knob
// sizes all of it and nothing spawns unaccounted threads. This package
// reproduces that structure on top of internal/argo: each PoolSpec is one
// argo FIFO pool drained by its own execution streams, with a slot
// semaphore in front of it bounding the operations in flight
// (backpressure). Each accepted task resolves an Eventual carrying its
// value or error, and runs under the caller's context capped by the
// engine's lifetime.
//
// Pool discipline, to keep the submission graph acyclic and deadlock-free:
// leaf RPC fan-out runs on PoolRPC; page-lookahead tasks run on PoolPrefetch
// and may wait on PoolRPC eventuals; ingest tasks run on PoolIngest and may
// wait on PoolRPC eventuals; long-running loops (PEP readers and loaders)
// use Engine.Go, which gets a dedicated tracked goroutine — the analog of a
// dynamically created execution stream — so they never starve a fixed-width
// pool.
package asyncengine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/hep-on-hpc/hepnos-go/internal/argo"
	"github.com/hep-on-hpc/hepnos-go/internal/stats"
)

// Well-known pool names. Layers agree on these so one config sizes them all.
const (
	// PoolRPC runs leaf RPC fan-out (async PutMulti/GetMulti). Tasks on
	// this pool never wait on other pools.
	PoolRPC = "rpc"
	// PoolPrefetch runs page-lookahead tasks, which may wait on PoolRPC.
	PoolPrefetch = "prefetch"
	// PoolIngest runs per-file ingest tasks, which may wait on PoolRPC.
	PoolIngest = "ingest"
)

// ErrEngineClosed is returned by submissions after Shutdown began.
var ErrEngineClosed = errors.New("asyncengine: engine is shut down")

// PoolSpec sizes one engine pool with two bounds: XStreams, how many
// execution streams drain it and so how many of its tasks run at once
// (fewer than one runs one), and MaxQueue, how many operations may be in
// flight (queued or running) before Submit blocks the submitter — the
// §II-D backpressure that keeps a fast producer from buffering unbounded
// work in client memory (0: four per stream).
type PoolSpec struct {
	Name     string `json:"name"`
	XStreams int    `json:"xstreams,omitempty"`
	MaxQueue int    `json:"max_queue,omitempty"`
}

// Config declares the engine's pools. It is embedded in the client-side
// bedrock JSON document under "async".
type Config struct {
	Pools []PoolSpec `json:"pools,omitempty"`
}

// DefaultConfig sizes the three standard pools the way the paper's client
// deployments do: most streams to leaf RPCs, a couple to lookahead.
func DefaultConfig() Config {
	return Config{Pools: []PoolSpec{
		{Name: PoolRPC, XStreams: 4, MaxQueue: 64},
		{Name: PoolPrefetch, XStreams: 2, MaxQueue: 16},
		{Name: PoolIngest, XStreams: 4, MaxQueue: 8},
	}}
}

// Void is the value type of eventuals that carry only completion and error.
type Void = struct{}

// Eventual is a one-shot, context-aware future resolved by the engine when
// its task completes — the ABT_eventual every §II-D async operation hands
// back to its caller.
type Eventual[T any] struct {
	done chan struct{}
	once sync.Once
	val  T
	err  error
}

func newEventual[T any]() *Eventual[T] {
	return &Eventual[T]{done: make(chan struct{})}
}

// resolved returns an eventual that is already resolved, for submissions
// refused before their task was queued.
func resolved[T any](v T, err error) *Eventual[T] {
	e := newEventual[T]()
	e.set(v, err)
	return e
}

func (e *Eventual[T]) set(v T, err error) {
	e.once.Do(func() {
		e.val, e.err = v, err
		close(e.done)
	})
}

// Wait blocks until the eventual resolves or ctx is done. On ctx expiry it
// returns ctx.Err(); the underlying task keeps running (its own context is
// separate) and the eventual can be waited on again.
func (e *Eventual[T]) Wait(ctx context.Context) (T, error) {
	select {
	case <-e.done:
		return e.val, e.err
	default:
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-e.done:
		return e.val, e.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// Ready reports whether the eventual has resolved, without blocking.
func (e *Eventual[T]) Ready() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Done returns a channel closed when the eventual resolves, for select.
func (e *Eventual[T]) Done() <-chan struct{} { return e.done }

type pool struct {
	ap       *argo.Pool
	slots    chan struct{}
	counters *stats.OpCounters

	// Server-push backpressure state: reserveWant is how many of the
	// pool's slots should be held back from submitters, reserveHeld how
	// many the reconciler currently holds. Reservations are ordinary slot
	// tokens, so the invariant "channel length = in-flight + held" makes
	// submitters and the throttle share one backpressure mechanism.
	reserveWant atomic.Int32
	reserveHeld atomic.Int32
	reserveKick chan struct{}
	reserveOnce sync.Once
}

// Engine owns the client's argo runtime and its bounded pools.
type Engine struct {
	rt     *argo.Runtime
	pools  map[string]*pool
	names  []string
	base   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool
	down   sync.Once
}

// New starts an engine from cfg. An empty pool list gets DefaultConfig's
// pools.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Pools) == 0 {
		cfg.Pools = DefaultConfig().Pools
	}
	acfg := argo.Config{Pools: make([]argo.PoolConfig, len(cfg.Pools))}
	for i, ps := range cfg.Pools {
		acfg.Pools[i] = argo.PoolConfig{Name: ps.Name, XStreams: ps.XStreams}
	}
	rt, err := argo.NewRuntime(acfg)
	if err != nil {
		return nil, err
	}
	base, cancel := context.WithCancel(context.Background())
	e := &Engine{rt: rt, pools: make(map[string]*pool, len(cfg.Pools)), base: base, cancel: cancel}
	for i, ap := range rt.Pools() {
		q := cfg.Pools[i].MaxQueue
		if q < 1 {
			q = 4 * ap.XStreams()
		}
		e.pools[ap.Name()] = &pool{ap: ap, slots: make(chan struct{}, q), counters: &stats.OpCounters{}}
		e.names = append(e.names, ap.Name())
	}
	return e, nil
}

// Run submits fn to the named pool and returns an eventual for its result.
// Submission blocks while the pool is at MaxQueue in-flight operations
// (backpressure) and aborts — returning an already-resolved eventual — when
// ctx is canceled or the engine shuts down while waiting. The task runs
// with a context canceled by either the caller's ctx or engine shutdown,
// whichever comes first. Run never returns nil.
func Run[T any](e *Engine, ctx context.Context, poolName string, fn func(context.Context) (T, error)) *Eventual[T] {
	if ctx == nil {
		ctx = context.Background()
	}
	ev, _ := runWith(e, ctx, poolName, fn, nil)
	return ev
}

// Submit is Run for tasks with no value: fire-and-track.
func (e *Engine) Submit(ctx context.Context, poolName string, fn func(context.Context) error) *Eventual[Void] {
	return Run(e, ctx, poolName, func(ctx context.Context) (Void, error) {
		return Void{}, fn(ctx)
	})
}

// runWith is Run plus an onDone hook that fires exactly once iff the task
// was accepted (submitted == true). Group uses it to release its own slot
// from the completion path; when submitted is false the caller must release
// resources itself — the hook is NOT called on rejected submissions.
func runWith[T any](e *Engine, ctx context.Context, poolName string, fn func(context.Context) (T, error), onDone func(error)) (*Eventual[T], bool) {
	var zero T
	p := e.pools[poolName]
	if p == nil {
		return resolved(zero, fmt.Errorf("asyncengine: unknown pool %q", poolName)), false
	}
	if e.closed.Load() {
		p.counters.Rejected()
		return resolved(zero, ErrEngineClosed), false
	}
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		p.counters.Rejected()
		return resolved(zero, ctx.Err()), false
	case <-e.base.Done():
		p.counters.Rejected()
		return resolved(zero, ErrEngineClosed), false
	}
	p.counters.Submitted()
	ev := newEventual[T]()
	tctx, tcancel := context.WithCancel(ctx)
	stop := context.AfterFunc(e.base, tcancel)
	e.wg.Add(1)
	task := func() {
		var v T
		err := tctx.Err()
		if err == nil {
			v, err = fn(tctx)
		}
		stop()
		tcancel()
		p.counters.Completed(err)
		ev.set(v, err)
		if onDone != nil {
			onDone(err)
		}
		<-p.slots
		e.wg.Done()
	}
	if pushErr := p.ap.Push(task); pushErr != nil {
		// Runtime closed between the flag check and the push.
		stop()
		tcancel()
		p.counters.Completed(ErrEngineClosed)
		<-p.slots
		e.wg.Done()
		return resolved(zero, ErrEngineClosed), false
	}
	return ev, true
}

// Go runs fn on a dedicated tracked goroutine — the analog of spawning a
// ULT on a dynamically created execution stream. Use it for long-running
// loops (PEP readers, loaders) that would otherwise occupy a fixed pool
// stream for their whole lifetime. fn's context is canceled by ctx or by
// engine shutdown.
func (e *Engine) Go(ctx context.Context, fn func(context.Context)) {
	if ctx == nil {
		ctx = context.Background()
	}
	tctx, tcancel := context.WithCancel(ctx)
	stop := context.AfterFunc(e.base, tcancel)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer stop()
		defer tcancel()
		fn(tctx)
	}()
}

// Shutdown cancels every in-flight task context, drains the pools, and
// waits for all tracked work (pool tasks and Go goroutines) to finish.
// Idempotent. Queued tasks that have not started resolve their eventuals
// with the cancellation error instead of running.
func (e *Engine) Shutdown() {
	e.down.Do(func() {
		e.closed.Store(true)
		e.cancel()
		e.rt.Shutdown()
		e.wg.Wait()
	})
}

// SetPressure applies a server-push backpressure level (0 relaxed .. 255
// saturated) to the named pool: a share of the pool's slot semaphore is
// reserved — held out of reach of submitters — in proportion to the
// level, shrinking the effective in-flight bound. Level 0 releases every
// reservation. At least one slot always remains usable, so progress (and
// the pressure feedback loop itself) never stalls completely. Safe for
// concurrent use; an unknown pool ignores the signal.
func (e *Engine) SetPressure(poolName string, level uint8) {
	p := e.pools[poolName]
	if p == nil {
		return
	}
	capacity := cap(p.slots)
	want := capacity * int(level) / 256
	if want > capacity-1 {
		want = capacity - 1
	}
	p.reserveWant.Store(int32(want))
	p.reserveOnce.Do(func() {
		p.reserveKick = make(chan struct{}, 1)
		e.wg.Add(1)
		go e.reconcileReservations(p)
	})
	select {
	case p.reserveKick <- struct{}{}:
	default:
	}
}

// PressureReserved reports how many of the pool's slots the throttle
// currently holds — the test- and metrics-visible effect of SetPressure.
func (e *Engine) PressureReserved(poolName string) int {
	p := e.pools[poolName]
	if p == nil {
		return 0
	}
	return int(p.reserveHeld.Load())
}

// reconcileReservations converges the held reservation count toward the
// wanted one: acquiring competes with real submitters on the same slot
// channel (so an in-flight burst drains before the throttle bites), and
// releasing hands slots straight back to blocked submitters.
func (e *Engine) reconcileReservations(p *pool) {
	defer e.wg.Done()
	held := 0
	for {
		want := int(p.reserveWant.Load())
		switch {
		case held < want:
			select {
			case p.slots <- struct{}{}:
				held++
				p.reserveHeld.Store(int32(held))
			case <-p.reserveKick:
				// Target moved while waiting for a slot; re-evaluate.
			case <-e.base.Done():
				return
			}
		case held > want:
			// The channel always holds at least `held` reservation tokens,
			// so this receive cannot steal a completion's token or block.
			<-p.slots
			held--
			p.reserveHeld.Store(int32(held))
		default:
			select {
			case <-p.reserveKick:
			case <-e.base.Done():
				return
			}
		}
	}
}

// Metrics returns a per-pool snapshot of submission/completion/error
// counters and queue depth, keyed by pool name.
func (e *Engine) Metrics() map[string]stats.OpSnapshot {
	m := make(map[string]stats.OpSnapshot, len(e.pools))
	for name, p := range e.pools {
		m[name] = p.counters.Snapshot()
	}
	return m
}

// PoolNames returns the configured pool names in declaration order.
func (e *Engine) PoolNames() []string {
	return append([]string(nil), e.names...)
}

// Group runs a set of error-returning tasks on one pool with its own
// concurrency limit, first-error cancellation, and a Wait that returns the
// first error — errgroup semantics on engine pools.
type Group struct {
	e      *Engine
	pool   string
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error
}

// NewGroup creates a Group over the named pool. limit bounds how many of
// the group's tasks may be in flight at once (<=0 means no group-level
// bound beyond the pool's own MaxQueue).
func (e *Engine) NewGroup(ctx context.Context, poolName string, limit int) *Group {
	if ctx == nil {
		ctx = context.Background()
	}
	gctx, cancel := context.WithCancel(ctx)
	g := &Group{e: e, pool: poolName, ctx: gctx, cancel: cancel}
	if limit > 0 {
		g.sem = make(chan struct{}, limit)
	}
	return g
}

func (g *Group) report(err error) {
	if err == nil {
		return
	}
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	g.cancel()
}

// Go submits one task. It blocks for a group slot (and then a pool slot).
// Once the group is canceled — first error, caller cancellation — further
// Go calls are no-ops.
func (g *Group) Go(fn func(context.Context) error) {
	if g.ctx.Err() != nil {
		return
	}
	if g.sem != nil {
		select {
		case g.sem <- struct{}{}:
		case <-g.ctx.Done():
			return
		}
	}
	release := func() {
		if g.sem != nil {
			<-g.sem
		}
	}
	g.wg.Add(1)
	ev, submitted := runWith(g.e, g.ctx, g.pool, func(ctx context.Context) (Void, error) {
		return Void{}, fn(ctx)
	}, func(err error) {
		g.report(err)
		release()
		g.wg.Done()
	})
	if !submitted {
		// Rejected at submission: the eventual is already resolved and
		// the completion hook will never fire.
		_, err := ev.Wait(context.Background())
		g.report(err)
		release()
		g.wg.Done()
	}
}

// Wait blocks until every submitted task finished, then returns the first
// error (nil if none). The group context is canceled on return.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.cancel()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}
