// Package argo is the Go analog of Argobots, the lightweight threading and
// tasking layer HEPnOS uses underneath Margo (§II-B of the paper).
//
// Argobots separates *where* work runs (execution streams, one per core)
// from *what* runs (user-level threads pushed into pools). Bedrock exposes
// this mapping as configuration — e.g. the paper's deployments use 16
// rpc-xstreams, with each Yokan provider pinned to its own stream "to avoid
// competing for access by multiple execution streams and to improve memory
// locality".
//
// Goroutines already are user-level threads, so this package does not
// reimplement context switching; what it keeps is the structure the rest of
// the system configures: named FIFO pools, each drained by its own fixed
// number of execution streams. A stream runs one task at a time to
// completion, like an Argobots ES running ULTs without preemption.
package argo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Task is a unit of work (a ULT body).
type Task func()

// ErrShutdown is returned by Push after the runtime began shutting down.
var ErrShutdown = errors.New("argo: runtime is shut down")

// Pool is a named, unbounded FIFO queue of tasks drained by its own
// execution streams.
type Pool struct {
	name     string
	xstreams int

	mu     sync.Mutex
	cond   sync.Cond
	ring   []Task // circular buffer, len a power of two (or zero)
	head   int
	n      int
	closed bool

	started atomic.Int64
	wg      sync.WaitGroup
}

// Name returns the pool's configured name.
func (p *Pool) Name() string { return p.name }

// XStreams returns how many execution streams drain the pool.
func (p *Pool) XStreams() int { return p.xstreams }

// Started returns how many tasks the pool's streams have taken up. A task
// counts before it runs, so a caller woken by the task already sees it.
func (p *Pool) Started() int64 { return p.started.Load() }

// Push enqueues a task. It never blocks and never drops a task; pools are
// unbounded like Argobots pools. Once the queue has grown to the pool's
// working depth, Push allocates nothing.
func (p *Pool) Push(t Task) error {
	if t == nil {
		return fmt.Errorf("argo: nil task pushed to pool %q", p.name)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrShutdown
	}
	if p.n == len(p.ring) {
		p.grow()
	}
	p.ring[(p.head+p.n)&(len(p.ring)-1)] = t
	p.n++
	p.mu.Unlock()
	p.cond.Signal()
	return nil
}

// grow doubles the ring, unwrapping the queued tasks to its front.
func (p *Pool) grow() {
	ring := make([]Task, max(16, 2*len(p.ring)))
	for i := 0; i < p.n; i++ {
		ring[i] = p.ring[(p.head+i)&(len(p.ring)-1)]
	}
	p.ring, p.head = ring, 0
}

// stream is one execution stream: it runs queued tasks in FIFO order and
// exits once the pool is closed and empty.
func (p *Pool) stream() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.n == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.n == 0 {
			p.mu.Unlock()
			return
		}
		t := p.ring[p.head]
		p.ring[p.head] = nil
		p.head = (p.head + 1) & (len(p.ring) - 1)
		p.n--
		p.mu.Unlock()
		p.started.Add(1)
		t()
	}
}

// PoolConfig declares one pool and how many execution streams drain it
// (fewer than one runs one).
type PoolConfig struct {
	Name     string `json:"name"`
	XStreams int    `json:"xstreams"`
}

// Config mirrors the "argobots" section of a Bedrock JSON document.
type Config struct {
	Pools []PoolConfig `json:"pools"`
}

// DefaultConfig returns a runtime shaped like the paper's server processes:
// one primary pool drained by n rpc-xstreams.
func DefaultConfig(n int) Config {
	return Config{Pools: []PoolConfig{{Name: "__primary__", XStreams: max(n, 1)}}}
}

// Runtime owns a set of pools and their execution streams.
type Runtime struct {
	pools    []*Pool
	shutdown sync.Once
}

// NewRuntime validates the configuration and starts every pool's streams.
func NewRuntime(cfg Config) (*Runtime, error) {
	if len(cfg.Pools) == 0 {
		return nil, errors.New("argo: configuration has no pools")
	}
	r := &Runtime{}
	for _, pc := range cfg.Pools {
		if pc.Name == "" {
			return nil, errors.New("argo: pool with empty name")
		}
		if r.Pool(pc.Name) != nil {
			return nil, fmt.Errorf("argo: duplicate pool %q", pc.Name)
		}
		p := &Pool{name: pc.Name, xstreams: max(pc.XStreams, 1)}
		p.cond.L = &p.mu
		r.pools = append(r.pools, p)
	}
	for _, p := range r.pools {
		p.wg.Add(p.xstreams)
		for i := 0; i < p.xstreams; i++ {
			go p.stream()
		}
	}
	return r, nil
}

// Pool returns the named pool, or nil if it does not exist.
func (r *Runtime) Pool(name string) *Pool {
	for _, p := range r.pools {
		if p.name == name {
			return p
		}
	}
	return nil
}

// Pools returns all pools in configuration order.
func (r *Runtime) Pools() []*Pool { return append([]*Pool(nil), r.pools...) }

// Shutdown refuses further pushes, runs every task already queued, and
// waits for all streams to exit. It is idempotent and safe to call from
// multiple goroutines.
func (r *Runtime) Shutdown() {
	r.shutdown.Do(func() {
		for _, p := range r.pools {
			p.mu.Lock()
			p.closed = true
			p.mu.Unlock()
			p.cond.Broadcast()
		}
		for _, p := range r.pools {
			p.wg.Wait()
		}
	})
}
