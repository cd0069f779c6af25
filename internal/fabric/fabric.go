// Package fabric is the Go analog of the Mercury RPC library that HEPnOS
// uses for communication (§II-B of the paper), with the transport fidelity
// caveats documented in DESIGN.md: no OS-bypass RDMA exists in Go, so the
// package reproduces Mercury's *programming model* — registered RPCs,
// handler dispatch, explicit bulk handles for large transfers — over two
// transports:
//
//   - "inproc": endpoints inside one process, connected through an in-memory
//     registry. This is the analog of Mercury's na+sm and is what tests,
//     examples and benchmarks use. An optional cost model (NetSim) imposes
//     latency, bandwidth and NIC injection limits so contention phenomena
//     remain observable.
//   - "tcp": length-prefixed frames over real sockets, so a service can be
//     deployed across actual processes and machines.
//
// Addresses are URIs: "inproc://name" or "tcp://host:port".
package fabric

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/resilience"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
)

// Address identifies an endpoint, e.g. "inproc://server0" or
// "tcp://127.0.0.1:9999".
type Address string

// Scheme returns the transport scheme of the address.
func (a Address) Scheme() string {
	if i := strings.Index(string(a), "://"); i >= 0 {
		return string(a)[:i]
	}
	return ""
}

// Errors returned by fabric operations, as classed sentinels on the xerr
// taxonomy: unreachable is the canonical (retryable, local) unavailable;
// an unknown RPC is an invalid request that no re-send can fix; a closed
// endpoint is a terminal local state.
var (
	ErrUnreachable = xerr.Sentinel("fabric/unreachable", xerr.ClassUnavailable, "fabric: address unreachable")
	ErrNoSuchRPC   = xerr.Sentinel("fabric/no_such_rpc", xerr.ClassInvalid, "fabric: no such RPC registered")
	ErrClosed      = xerr.Sentinel("fabric/closed", xerr.ClassClosed, "fabric: endpoint closed")
)

// RemoteError wraps an error string produced by a remote handler that
// carried no classification — the legacy path for handlers whose errors
// are not on the xerr taxonomy. Classified handler errors cross the wire
// as typed frames instead (statusTyped) and never become RemoteError.
type RemoteError struct {
	RPC string
	Msg string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("fabric: remote %s failed: %s", e.RPC, e.Msg)
}

// ErrRemote marks the error as produced across an RPC boundary: the
// handler ran, so blind re-send is not safe (xerr.Retryable refuses it).
func (e *RemoteError) ErrRemote() bool { return true }

// InjectedFault marks an error produced by a fault hook (NetSim.Fault or
// a serve-side hook). Transports propagate it as a message *loss* — a
// transport-level failure — rather than converting it to a RemoteError,
// because an injected drop means the handler never ran and re-sending is
// safe. Unwrap exposes the scenario's error for errors.Is tests.
type InjectedFault struct{ Err error }

// Error implements the error interface.
func (f *InjectedFault) Error() string { return "fabric: injected fault: " + f.Err.Error() }

// Unwrap exposes the injected cause.
func (f *InjectedFault) Unwrap() error { return f.Err }

// ErrClass classifies every injected loss as unavailable: the handler
// never ran, so the fault is retryable by the one retry rule regardless
// of what error the chaos scenario chose to inject.
func (f *InjectedFault) ErrClass() xerr.Class { return xerr.ClassUnavailable }

// RetryableError is the fabric's retry classifier for resilience
// policies — now one line of classification instead of a pattern-match:
// only a *local* unavailable (unreachable target, injected drop, open
// circuit) can be re-sent, because the request cannot have been executed
// by a remote handler. Remote answers of any class, sheds, interrupts
// and application failures are never retryable.
func RetryableError(err error) bool {
	return xerr.Retryable(err)
}

// FaultHook is a server-side fault injection point: it observes each
// incoming request before dispatch and may return an error to drop it.
// peer is the caller's address, size the payload length, tenant the QoS
// tenant from the request envelope (empty for untagged traffic) — so
// chaos scenarios can storm one tenant while sparing another.
type FaultHook func(peer Address, rpc string, size int, tenant string) error

// Request is what a handler receives.
type Request struct {
	RPC     string
	Payload []byte
	From    Address // the caller's address (reply path for bulk pulls)
	// Identity is the QoS identity from the request envelope (zero when
	// the caller is pre-QoS or untagged).
	Identity qos.Identity

	ep *Endpoint
}

// PullBulk transfers the remote region described by h from the requester's
// exposed memory into a fresh buffer — the analog of HG_Bulk_transfer with
// HG_BULK_PULL, which Yokan uses for large values and batches.
func (r *Request) PullBulk(ctx context.Context, h BulkHandle) ([]byte, error) {
	if r.From == "" {
		return nil, errors.New("fabric: request has no reply address for bulk pull")
	}
	return r.ep.pullBulk(ctx, r.From, h)
}

// Handler processes one RPC and returns the response payload.
type Handler func(ctx context.Context, req *Request) ([]byte, error)

// Stats counts endpoint activity.
type Stats struct {
	CallsSent     int64
	CallsServed   int64
	BytesSent     int64
	BytesReceived int64
	BulkPulls     int64
	BulkBytes     int64
	Errors        int64
}

type statsCollector struct {
	callsSent     atomic.Int64
	callsServed   atomic.Int64
	bytesSent     atomic.Int64
	bytesReceived atomic.Int64
	bulkPulls     atomic.Int64
	bulkBytes     atomic.Int64
	errors        atomic.Int64
}

func (s *statsCollector) snapshot() Stats {
	return Stats{
		CallsSent:     s.callsSent.Load(),
		CallsServed:   s.callsServed.Load(),
		BytesSent:     s.bytesSent.Load(),
		BytesReceived: s.bytesReceived.Load(),
		BulkPulls:     s.bulkPulls.Load(),
		BulkBytes:     s.bulkBytes.Load(),
		Errors:        s.errors.Load(),
	}
}

// Endpoint is a communication endpoint: it serves registered RPCs and
// issues calls to other endpoints.
type Endpoint struct {
	addr  Address
	trans transport
	sim   *NetSim            // nil means free, instant network
	res   *resilience.Policy // nil means single-shot calls

	mu         sync.RWMutex
	handlers   map[string]Handler
	serveFault FaultHook
	closed     bool

	bulk   bulkTable
	stats  statsCollector
	prof   profiler
	tracer *obs.Tracer // nil disables span recording

	// errClasses counts every error this endpoint observed (calls it sent,
	// requests it served), keyed by xerr class — the feed behind
	// hepnos_errors_total{class=...}.
	errClasses sync.Map // string class -> *atomic.Int64

	tenant       string                               // default tenant stamped on outgoing calls
	pressureSrc  atomic.Pointer[func() uint8]         // server side: gate's pressure, pushed in replies
	pressureHook atomic.Pointer[func(Address, uint8)] // client side: observes pushed pressure
}

// Option configures an endpoint at Listen time.
type Option func(*Endpoint)

// WithNetSim attaches a network cost model to the endpoint. All of the
// endpoint's sends pay the model's latency/bandwidth/injection costs.
func WithNetSim(sim *NetSim) Option {
	return func(e *Endpoint) { e.sim = sim }
}

// WithResilience attaches a retry/backoff/circuit-breaker policy to the
// endpoint's outgoing calls. If the policy has no classifier, the
// fabric's RetryableError is installed so application (RemoteError)
// failures are never re-sent. The policy should be shared by everything
// talking through this endpoint so its retry budget and breakers see the
// whole traffic.
func WithResilience(p *resilience.Policy) Option {
	return func(e *Endpoint) {
		if p != nil && p.Retryable == nil {
			p.Retryable = RetryableError
		}
		e.res = p
	}
}

// WithTenant sets the default QoS tenant stamped on every outgoing call
// whose context carries no explicit identity. An empty tenant leaves
// calls untagged (the server accounts them under qos.DefaultTenant).
func WithTenant(tenant string) Option {
	return func(e *Endpoint) { e.tenant = tenant }
}

// WithPressureHook installs a client-side observer of the server-push
// backpressure signal: after each reply, hook is invoked with the
// target's address and its current pressure level (0 = relaxed, 255 =
// saturated). The asyncengine uses it to shrink its ingest slots.
func WithPressureHook(hook func(target Address, level uint8)) Option {
	return func(e *Endpoint) {
		if hook != nil {
			e.pressureHook.Store(&hook)
		}
	}
}

// WithTracer attaches a span tracer to the endpoint. Every outgoing call
// records a client span carrying the caller's active span (from the
// context) as parent, and its span context travels in the RPC envelope;
// every served request records a server span parented by the incoming
// context — the linked two-sided view of each RPC.
func WithTracer(t *obs.Tracer) Option {
	return func(e *Endpoint) { e.tracer = t }
}

// Listen creates an endpoint on the given address. Supported schemes are
// "inproc" and "tcp". For "tcp", a port of 0 picks a free port; the actual
// address is available from Addr.
func Listen(addr Address, opts ...Option) (*Endpoint, error) {
	e := &Endpoint{handlers: make(map[string]Handler)}
	e.bulk.init()
	for _, o := range opts {
		o(e)
	}
	switch addr.Scheme() {
	case "inproc":
		t, actual, err := listenInproc(e, addr)
		if err != nil {
			return nil, err
		}
		e.trans, e.addr = t, actual
	case "tcp":
		t, actual, err := listenTCP(e, addr)
		if err != nil {
			return nil, err
		}
		e.trans, e.addr = t, actual
	default:
		return nil, fmt.Errorf("fabric: unsupported scheme in %q", addr)
	}
	e.registerBulkService()
	return e, nil
}

// Addr returns the endpoint's reachable address.
func (e *Endpoint) Addr() Address { return e.addr }

// Tracer returns the endpoint's span tracer (nil when tracing is off).
func (e *Endpoint) Tracer() *obs.Tracer { return e.tracer }

// Stats returns a snapshot of the endpoint's activity counters.
func (e *Endpoint) Stats() Stats { return e.stats.snapshot() }

// Register installs a handler for the named RPC. Registering twice replaces
// the handler, matching HG_Register semantics.
func (e *Endpoint) Register(rpc string, h Handler) {
	if h == nil {
		panic("fabric: nil handler for " + rpc)
	}
	e.mu.Lock()
	e.handlers[rpc] = h
	e.mu.Unlock()
}

// SetServeFault installs (or, with nil, removes) a server-side fault
// hook consulted before dispatching each incoming request. A non-nil
// error from the hook drops the request: the caller observes a
// transport-level failure (InjectedFault), never a RemoteError, because
// the handler was never run. Safe to call while the endpoint is serving
// — chaos scenarios install and heal hooks on live deployments.
func (e *Endpoint) SetServeFault(h FaultHook) {
	e.mu.Lock()
	e.serveFault = h
	e.mu.Unlock()
}

// SetPressureSource installs the server-side backpressure source; its
// level rides every reply envelope. Margo points it at the QoS gate.
func (e *Endpoint) SetPressureSource(src func() uint8) {
	if src != nil {
		e.pressureSrc.Store(&src)
	}
}

// SetPressureHook installs (or replaces) the client-side pressure
// observer after Listen — how core wires the asyncengine throttle to an
// endpoint margo already created.
func (e *Endpoint) SetPressureHook(hook func(target Address, level uint8)) {
	if hook != nil {
		e.pressureHook.Store(&hook)
	}
}

// pressure reads the server-side pressure source (0 when none is set).
func (e *Endpoint) pressure() uint8 {
	if p := e.pressureSrc.Load(); p != nil {
		return (*p)()
	}
	return 0
}

// Call sends an RPC to the target and waits for its response. With a
// resilience policy attached (WithResilience), transport-level failures
// are retried under that policy — each attempt is a fresh send paying
// the NetSim cost model again.
//
// The response is treated as GC-owned: the transport's receive buffer is
// never recycled, so the caller may retain the bytes freely. Hot paths
// that can bound the response's lifetime should use CallBorrow, which
// returns the buffer to the transport's pool.
func (e *Endpoint) Call(ctx context.Context, target Address, rpc string, payload []byte) ([]byte, error) {
	resp, _, err := e.CallBorrow(ctx, target, rpc, payload)
	return resp, err
}

// CallBorrow is Call with explicit response-buffer ownership: the returned
// response may be a borrowed view into a pooled transport buffer, and done
// (when non-nil) releases it. The contract (DESIGN.md §12):
//
//   - After calling done, the response and every view into it are dead.
//   - done may be called at most once; calling it is optional — skipping it
//     leaks nothing, the buffer just falls to the GC and the pool misses a
//     reuse. Callers that retain views of the response (borrowed decode)
//     must NOT call done.
//   - The request payload is never retained by the fabric: once CallBorrow
//     returns, the caller may recycle the payload's buffer.
func (e *Endpoint) CallBorrow(ctx context.Context, target Address, rpc string, payload []byte) ([]byte, func(), error) {
	if e.res == nil {
		return e.callOnce(ctx, target, rpc, payload)
	}
	var done func()
	resp, err := resilience.Do(ctx, e.res, string(target), func(ctx context.Context) ([]byte, error) {
		r, d, err := e.callOnce(ctx, target, rpc, payload)
		done = d
		return r, err
	})
	if err != nil {
		return nil, nil, err
	}
	return resp, done, nil
}

// callOnce is a single unretried send attempt. done is nil on error and on
// transports whose responses are GC-owned (inproc).
func (e *Endpoint) callOnce(ctx context.Context, target Address, rpc string, payload []byte) ([]byte, func(), error) {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil, nil, ErrClosed
	}
	// Each attempt is its own client span: under a retrying policy the
	// trace shows every send, not just the one that succeeded. The span and
	// the breadcrumb profile open before the NetSim gate so a simulated
	// message loss is still a visible failed attempt.
	parent := obs.SpanFromContext(ctx)
	sp := e.tracer.Start(rpc, obs.KindClient, parent, string(target))
	envSC := sp.Context()
	if !envSC.Valid() {
		// No local tracer: still forward the caller's context so traces
		// survive an uninstrumented hop.
		envSC = parent
	}
	// The QoS identity travels next to the span context: an explicit
	// identity on the context wins; otherwise the endpoint's configured
	// tenant is stamped so every call from this client is attributable.
	ti := qos.IdentityFromContext(ctx)
	if ti.Tenant == "" {
		ti.Tenant = e.tenant
	}
	sp.SetTenant(ti.Tenant)
	start := time.Now()
	if e.sim != nil {
		if err := e.sim.beforeSend(ctx, target, rpc, len(payload), ti.Tenant); err != nil {
			// A NetSim fault is a simulated message loss: wrap it as an
			// InjectedFault so it classifies as (local) unavailable and the
			// class-driven retry rule re-sends it, whatever error value the
			// chaos scenario injected. Cancellation passes through — the
			// caller leaving is not a transport failure.
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				var inj *InjectedFault
				if !errors.As(err, &inj) {
					err = &InjectedFault{Err: err}
				}
			}
			e.stats.errors.Add(1)
			e.countErrClass(err)
			e.prof.record(rpc, time.Since(start), true)
			sp.End(err)
			return nil, nil, err
		}
	}
	e.stats.callsSent.Add(1)
	e.stats.bytesSent.Add(int64(len(payload)))
	resp, pressure, done, err := e.trans.call(ctx, target, rpc, payload, envSC, ti)
	e.prof.record(rpc, time.Since(start), err != nil)
	sp.End(err)
	if err != nil {
		e.stats.errors.Add(1)
		e.countErrClass(err)
		// A typed shed still carried the server's pressure level — the
		// strongest possible back-off signal reaches the hook below.
		if !qos.IsShed(err) {
			return nil, nil, err
		}
	}
	if hook := e.pressureHook.Load(); hook != nil {
		(*hook)(target, pressure)
	}
	if err != nil {
		return nil, nil, err
	}
	e.stats.bytesReceived.Add(int64(len(resp)))
	return resp, done, nil
}

// countErrClass bumps the per-class error counter for err.
func (e *Endpoint) countErrClass(err error) {
	cls := string(xerr.ClassOf(err))
	if cls == "" {
		cls = string(xerr.ClassInternal)
	}
	if c, ok := e.errClasses.Load(cls); ok {
		c.(*atomic.Int64).Add(1)
		return
	}
	c, _ := e.errClasses.LoadOrStore(cls, new(atomic.Int64))
	c.(*atomic.Int64).Add(1)
}

// ErrorClasses snapshots the endpoint's per-class error counts.
func (e *Endpoint) ErrorClasses() map[string]int64 {
	out := make(map[string]int64)
	e.errClasses.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// Close shuts the endpoint down. In-flight calls may fail with ErrClosed.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	return e.trans.close()
}

// serve runs the handler for an incoming request on the calling goroutine
// and returns the response payload or an error to be sent back, plus the
// endpoint's current backpressure level for the reply envelope. It is
// invoked by transports, each of which calls it on a goroutine of its own
// per request; handlers that hand work to a pool (margo providers) block
// that goroutine until the pool answers. sc is the caller's span context
// from the envelope (zero when the caller did not trace), ti the caller's
// QoS identity (zero for pre-QoS frames).
func (e *Endpoint) serve(ctx context.Context, from Address, rpc string, payload []byte, sc obs.SpanContext, ti qos.Identity) ([]byte, uint8, error) {
	e.mu.RLock()
	h, ok := e.handlers[rpc]
	closed := e.closed
	fault := e.serveFault
	e.mu.RUnlock()
	if closed {
		return nil, 0, ErrClosed
	}
	if fault != nil {
		if err := fault(from, rpc, len(payload), ti.Tenant); err != nil {
			e.stats.errors.Add(1)
			inj := &InjectedFault{Err: err}
			e.countErrClass(inj)
			return nil, e.pressure(), inj
		}
	}
	if !ok {
		err := fmt.Errorf("%w: %q at %s", ErrNoSuchRPC, rpc, e.addr)
		e.countErrClass(err)
		return nil, e.pressure(), err
	}
	e.stats.callsServed.Add(1)

	// The server span opens before the handler, so it measures pool queue
	// wait plus execution — the difference against the handler's own
	// internal span (opened after the pool picks the work up) is pure queue
	// wait.
	srv := e.tracer.Start(rpc, obs.KindServer, sc, string(from))
	srv.SetTenant(ti.Tenant)
	active := srv.Context()
	if !active.Valid() {
		active = sc // untraced hop: keep forwarding the caller's context
	}
	hctx := obs.ContextWithSpan(ctx, active)
	if ti.Tenant != "" || ti.Class != qos.ClassUnknown {
		// The identity flows into the handler context, so downstream calls
		// the handler makes (replication, resync) stay attributed.
		hctx = qos.ContextWithIdentity(hctx, ti)
	}
	resp, err := h(hctx, &Request{RPC: rpc, Payload: payload, From: from, Identity: ti, ep: e})
	srv.End(err)
	if err != nil {
		e.countErrClass(err)
	}
	return resp, e.pressure(), err
}

// transport is the wire-level half of an endpoint. sc and ti travel in
// the request envelope so the target can link its server span to the
// caller and attribute the request to a tenant; pressure comes back in
// the reply envelope (0 when the server runs no gate).
//
// call must not retain payload after returning. The returned response may
// be a borrowed view into a transport-owned buffer; done (which may be
// nil) releases that buffer back to the transport's pool, after which the
// response bytes are dead. done is nil whenever the response is plain
// GC-owned memory.
type transport interface {
	call(ctx context.Context, target Address, rpc string, payload []byte, sc obs.SpanContext, ti qos.Identity) (resp []byte, pressure uint8, done func(), err error)
	close() error
}
