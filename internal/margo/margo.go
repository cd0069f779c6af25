// Package margo combines the fabric (Mercury analog) and argo (Argobots
// analog) layers into the simple programming model HEPnOS builds on,
// mirroring the role of the Margo library in the Mochi stack (§II-B).
//
// A margo Instance owns one fabric endpoint and one argo runtime. Services
// attach *providers* to it: named objects answering a set of RPCs, each
// mapped to an Argobots pool. As in Mochi, the provider is the mechanism by
// which the execution resources used to run an RPC (a pool drained by some
// execution streams) are decoupled from the resources the RPC acts on (for
// Yokan, a set of databases).
//
// Every provider RPC makes one hand-off: the transport's per-request
// goroutine pushes the handler into the provider's pool and waits on a
// one-slot channel until a stream of that pool has run it.
package margo

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/hep-on-hpc/hepnos-go/internal/argo"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/resilience"
)

// ProviderID distinguishes multiple providers of the same service on one
// endpoint, like Mercury provider ids.
type ProviderID uint16

// rpcName builds the namespaced RPC name for a provider-scoped RPC.
func rpcName(service string, id ProviderID, rpc string) string {
	return fmt.Sprintf("%s:%d#%s", service, id, rpc)
}

// Instance is a running Margo context: endpoint + threading runtime.
type Instance struct {
	ep     *fabric.Endpoint
	rt     *argo.Runtime
	sim    *fabric.NetSim
	tracer *obs.Tracer
	gate   *qos.Gate // nil when QoS is disabled

	mu        sync.Mutex
	providers map[string]*Provider
	closed    bool
}

// Config configures an Instance.
type Config struct {
	// Address to listen on ("inproc://name" or "tcp://host:port").
	Address fabric.Address
	// Argobots names the pools and how many execution streams drain each.
	// If empty, one pool with RPCXStreams streams is used.
	Argobots argo.Config
	// RPCXStreams is the stream count of the default pool (ignored when
	// Argobots is set). The paper's deployments use 16.
	RPCXStreams int
	// NetSim optionally attaches a network cost model to the endpoint.
	NetSim *fabric.NetSim
	// Resilience optionally attaches a shared retry/backoff/circuit-
	// breaker policy to the endpoint's outgoing calls (see
	// internal/resilience). All forwards issued through this instance are
	// executed under the policy.
	Resilience *resilience.Policy
	// Tracer optionally attaches a span tracer to the endpoint. Provider
	// handlers additionally record an exec span measuring time inside the
	// Argobots pool, so queue wait (server span minus exec span) becomes
	// visible per RPC.
	Tracer *obs.Tracer
	// Tenant, when set, is stamped on every outgoing call whose context
	// carries no explicit QoS identity — the client side of multi-tenancy.
	Tenant string
	// QoS, when Enabled, puts a qos.Gate in front of provider dispatch:
	// admission control, class-aware shedding, weighted fair queueing
	// across tenants, and a pressure level pushed in every reply — the
	// server side of multi-tenancy. Reserved services ("margo" heartbeats,
	// "admin" control plane) bypass the gate.
	QoS qos.Config
	// OnPressure, when non-nil, observes the pressure level each reply
	// envelope carries back from a server. Core wires it to the
	// asyncengine's ingest throttle.
	OnPressure func(target fabric.Address, level uint8)
}

// Init starts a margo instance.
func Init(cfg Config) (*Instance, error) {
	acfg := cfg.Argobots
	if len(acfg.Pools) == 0 {
		acfg = argo.DefaultConfig(cfg.RPCXStreams)
	}
	rt, err := argo.NewRuntime(acfg)
	if err != nil {
		return nil, err
	}
	var opts []fabric.Option
	if cfg.NetSim != nil {
		opts = append(opts, fabric.WithNetSim(cfg.NetSim))
	}
	if cfg.Resilience != nil {
		opts = append(opts, fabric.WithResilience(cfg.Resilience))
	}
	if cfg.Tracer != nil {
		opts = append(opts, fabric.WithTracer(cfg.Tracer))
	}
	if cfg.Tenant != "" {
		opts = append(opts, fabric.WithTenant(cfg.Tenant))
	}
	if cfg.OnPressure != nil {
		opts = append(opts, fabric.WithPressureHook(cfg.OnPressure))
	}
	ep, err := fabric.Listen(cfg.Address, opts...)
	if err != nil {
		rt.Shutdown()
		return nil, err
	}
	m := &Instance{ep: ep, rt: rt, sim: cfg.NetSim, tracer: cfg.Tracer, providers: make(map[string]*Provider)}
	if gate := qos.NewGate(cfg.QoS); gate != nil {
		m.gate = gate
		ep.SetPressureSource(gate.Pressure)
	}
	// Every instance answers the built-in heartbeat directly on the fabric
	// goroutine — no provider pool involved, so a saturated RPC pool cannot
	// make a healthy server look dead to the prober (liveness, not load).
	m.ep.Register(heartbeatRPC, func(ctx context.Context, req *fabric.Request) ([]byte, error) {
		return nil, nil
	})
	return m, nil
}

// heartbeatRPC is the built-in liveness probe every margo instance answers;
// registered under the reserved "margo" service so it can never collide
// with application providers.
var heartbeatRPC = rpcName("margo", 0, "ping")

// Ping issues the built-in heartbeat RPC to a remote instance. It is the
// probe the health layer's prober uses: cheap (empty payload, handled off
// the target's RPC pools) and subject to the instance's fault hooks, so
// chaos-injected server death is visible to it like any other call.
func (m *Instance) Ping(ctx context.Context, target fabric.Address) error {
	_, err := m.ep.Call(ctx, target, heartbeatRPC, nil)
	return err
}

// Addr returns the instance's reachable address.
func (m *Instance) Addr() fabric.Address { return m.ep.Addr() }

// Endpoint exposes the underlying fabric endpoint (for bulk operations).
func (m *Instance) Endpoint() *fabric.Endpoint { return m.ep }

// Runtime exposes the underlying argo runtime.
func (m *Instance) Runtime() *argo.Runtime { return m.rt }

// Tracer returns the instance's span tracer (nil when tracing is off).
func (m *Instance) Tracer() *obs.Tracer { return m.tracer }

// Gate returns the instance's QoS gate (nil when QoS is disabled) — for
// metrics registration and test assertions.
func (m *Instance) Gate() *qos.Gate { return m.gate }

// gateExempt reports whether a service bypasses the QoS gate: the margo
// heartbeat must stay load-independent (liveness, not load) and the admin
// control plane must stay reachable precisely when the gate is shedding.
func gateExempt(service string) bool {
	return service == "margo" || service == "admin"
}

// Provider is a registered service instance.
type Provider struct {
	Service string
	ID      ProviderID
	Pool    *argo.Pool

	rpcs []string
}

// RPCs returns the provider's registered RPC names (unmangled), sorted.
func (p *Provider) RPCs() []string {
	out := append([]string(nil), p.rpcs...)
	sort.Strings(out)
	return out
}

// RegisterProvider attaches a provider. Its handlers execute in the given
// pool (nil selects the runtime's first pool). Handler map keys are bare
// RPC names; they are namespaced with the service name and provider id on
// the wire.
func (m *Instance) RegisterProvider(service string, id ProviderID, pool *argo.Pool, handlers map[string]fabric.Handler) (*Provider, error) {
	if service == "" {
		return nil, fmt.Errorf("margo: empty service name")
	}
	if len(handlers) == 0 {
		return nil, fmt.Errorf("margo: provider %s:%d has no handlers", service, id)
	}
	if pool == nil {
		pool = m.rt.Pools()[0]
	}
	key := fmt.Sprintf("%s:%d", service, id)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("margo: instance is finalized")
	}
	if _, dup := m.providers[key]; dup {
		return nil, fmt.Errorf("margo: provider %s already registered", key)
	}
	p := &Provider{Service: service, ID: id, Pool: pool}
	gate := m.gate
	// One method value serves every request; gate.RunNext evaluated per
	// push would allocate a fresh one each time.
	var runNext argo.Task
	if gateExempt(service) {
		gate = nil
	} else if gate != nil {
		runNext = gate.RunNext
	}
	type result struct {
		resp []byte
		err  error
	}
	for name, h := range handlers {
		h := h
		p.rpcs = append(p.rpcs, name)
		wire := rpcName(service, id, name)
		m.ep.Register(wire, func(ctx context.Context, req *fabric.Request) ([]byte, error) {
			// Route execution into the provider's pool; the transport's
			// goroutine blocks on the one-slot channel, as a Margo
			// handler blocks on an ABT_eventual.
			done := make(chan result, 1)
			run := func() {
				// The exec span opens once the pool picks the work up;
				// the enclosing server span opened before the push, so
				// server minus exec is the RPC's queue wait.
				exec := m.tracer.Start("exec:"+wire, obs.KindInternal, obs.SpanFromContext(ctx), "")
				exec.SetTenant(req.Identity.Tenant)
				resp, err := h(obs.ContextWithSpan(ctx, exec.Context()), req)
				exec.End(err)
				done <- result{resp, err}
			}
			if gate != nil {
				// The gate owns admission and ordering; the pool owns
				// execution. Submit either sheds (typed error, handler
				// never queued) or enqueues, and exactly one RunNext is
				// pushed per admitted request, so the pool's item count
				// matches the WFQ backlog while the *order* items run in
				// is re-decided by tenant fairness at drain time.
				if err := gate.Submit(req.Identity, len(req.Payload), run); err != nil {
					return nil, err
				}
				if err := pool.Push(runNext); err != nil {
					return nil, err
				}
			} else if err := pool.Push(run); err != nil {
				return nil, err
			}
			r := <-done
			return r.resp, r.err
		})
	}
	m.providers[key] = p
	return p, nil
}

// Providers lists registered providers sorted by service name then id.
func (m *Instance) Providers() []*Provider {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Provider, 0, len(m.providers))
	for _, p := range m.providers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Service != out[j].Service {
			return out[i].Service < out[j].Service
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Forward calls a provider-scoped RPC on a remote instance, the analog of
// margo_provider_forward. The response is GC-owned and safe to retain.
func (m *Instance) Forward(ctx context.Context, target fabric.Address, service string, id ProviderID, rpc string, payload []byte) ([]byte, error) {
	return m.ep.Call(ctx, target, rpcName(service, id, rpc), payload)
}

// ForwardBorrow is Forward with explicit response-buffer ownership: the
// response may be a borrowed view into a pooled transport buffer and done
// (when non-nil) recycles it. See fabric.Endpoint.CallBorrow for the
// contract; callers that decode-and-copy should release, callers that keep
// borrowed views must not.
func (m *Instance) ForwardBorrow(ctx context.Context, target fabric.Address, service string, id ProviderID, rpc string, payload []byte) ([]byte, func(), error) {
	return m.ep.CallBorrow(ctx, target, rpcName(service, id, rpc), payload)
}

// Finalize shuts the instance down: endpoint first (no new RPCs), then the
// threading runtime (drain queued handlers).
func (m *Instance) Finalize() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.ep.Close()
	m.rt.Shutdown()
}
