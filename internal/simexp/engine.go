// Package simexp reproduces the paper's evaluation (§IV, Figures 2 and 3)
// with a discrete-event simulation of the Theta deployment. The functional
// library in this repository runs for real at laptop scale; the figures,
// however, compare workflows on up to 256 XC40 nodes (16,384 cores), which
// no test machine can execute. Following DESIGN.md substitution #6, this
// package models the cluster — nodes, cores, a shared parallel file
// system, per-server storage backends and NICs — and drives the *policies*
// of the real system (pipelined file assignment; reader-per-database event
// loading in 16384-event batches; 64-event work batches shared by all
// ranks) in virtual time.
//
// Absolute numbers are model outputs; the reproduced claims are shape
// claims (who wins, where scaling flattens, efficiency ratios). Model
// constants live in model.go with their rationale.
package simexp

import (
	"container/heap"
	"fmt"
)

// Engine is a minimal discrete-event scheduler with a float64 clock
// (seconds).
type Engine struct {
	now float64
	pq  eventHeap
	seq int64 // tie-breaker for deterministic ordering
}

type simEvent struct {
	at  float64
	seq int64
	fn  func()
}

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)     { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() (out any) { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }
func (e *Engine) Now() float64      { return e.now }
func (e *Engine) Pending() int      { return len(e.pq) }
func (e *Engine) String() string    { return fmt.Sprintf("sim@%.3fs (%d pending)", e.now, len(e.pq)) }
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.pq, simEvent{at: t, seq: e.seq, fn: fn})
}

// After schedules fn dt seconds from now.
func (e *Engine) After(dt float64, fn func()) { e.At(e.now+dt, fn) }

// Run drains the event queue.
func (e *Engine) Run() {
	for len(e.pq) > 0 {
		ev := heap.Pop(&e.pq).(simEvent)
		e.now = ev.at
		ev.fn()
	}
}

// Pipe is a shared FIFO bandwidth resource (bytes/second): transfers
// serialize through it, so concurrent demand saturates at exactly Rate.
// This models the parallel file system's aggregate bandwidth, a server
// NIC's injection bandwidth, and a storage backend's read bandwidth.
type Pipe struct {
	Rate     float64 // bytes per second
	nextFree float64
	busy     float64 // cumulative busy seconds
}

// Transfer reserves the pipe for size bytes starting no earlier than now,
// returning the completion time.
func (p *Pipe) Transfer(now, size float64) float64 {
	if p.Rate <= 0 {
		return now
	}
	start := now
	if p.nextFree > start {
		start = p.nextFree
	}
	dur := size / p.Rate
	p.nextFree = start + dur
	p.busy += dur
	return p.nextFree
}

// BusySeconds reports cumulative occupancy (for utilization accounting).
func (p *Pipe) BusySeconds() float64 { return p.busy }

// OpGate is a shared FIFO operation-rate resource (operations/second),
// modeling e.g. the file system's metadata service.
type OpGate struct {
	OpsPerSec float64
	nextFree  float64
}

// Acquire reserves one operation slot, returning its completion time.
func (g *OpGate) Acquire(now float64) float64 {
	if g.OpsPerSec <= 0 {
		return now
	}
	start := now
	if g.nextFree > start {
		start = g.nextFree
	}
	g.nextFree = start + 1/g.OpsPerSec
	return g.nextFree
}

// SlotPool models k identical execution slots (cores or xstreams) with a
// FIFO queue: work submitted when all slots are busy waits for the
// earliest-free slot. It is work-conserving, which matches the paper's
// fine-grained distributed work queue.
type SlotPool struct {
	free      slotHeap // earliest-free times, one per slot
	busy      float64
	completed int64
}

// NewSlotPool creates a pool with k slots, all free at time 0.
func NewSlotPool(k int) *SlotPool {
	if k < 1 {
		k = 1
	}
	p := &SlotPool{free: make(slotHeap, k)}
	heap.Init(&p.free)
	return p
}

type slotHeap []float64

func (h slotHeap) Len() int           { return len(h) }
func (h slotHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h slotHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *slotHeap) Pop() (out any)    { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }

// Schedule books dur seconds on the earliest-available slot at or after
// ready, returning (start, end).
func (p *SlotPool) Schedule(ready, dur float64) (start, end float64) {
	slotFree := heap.Pop(&p.free).(float64)
	start = ready
	if slotFree > start {
		start = slotFree
	}
	end = start + dur
	heap.Push(&p.free, end)
	p.busy += dur
	p.completed++
	return start, end
}

// Slots returns the pool size.
func (p *SlotPool) Slots() int { return len(p.free) }

// BusySeconds reports total booked time across slots.
func (p *SlotPool) BusySeconds() float64 { return p.busy }

// Completed reports how many work items were scheduled.
func (p *SlotPool) Completed() int64 { return p.completed }
