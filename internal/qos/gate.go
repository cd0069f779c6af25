package qos

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/obs"
)

// TenantConfig is one tenant's share of the service: its WFQ weight and
// its token-bucket admission rate.
type TenantConfig struct {
	// Weight is the tenant's WFQ share; tenants drain in proportion to
	// their weights when backlogged. Zero means 1.
	Weight float64 `json:"weight,omitempty"`
	// RatePerSec is the tenant's token-bucket refill rate in requests per
	// second. Zero disables rate admission for the tenant (bucket always
	// admits).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket capacity. Zero defaults to RatePerSec (one
	// second of burst), or 1 if that is also zero.
	Burst float64 `json:"burst,omitempty"`
}

// Config configures a provider-side Gate. The zero value (Enabled false)
// disables QoS entirely: no admission, no queueing, no pressure.
type Config struct {
	// Enabled turns the front door on.
	Enabled bool `json:"enabled,omitempty"`
	// Default applies to tenants without an explicit entry in Tenants.
	Default TenantConfig `json:"default,omitempty"`
	// Tenants holds per-tenant overrides keyed by tenant name.
	Tenants map[string]TenantConfig `json:"tenants,omitempty"`
	// MaxQueue bounds the WFQ backlog across all tenants; at the bound
	// every request sheds. Zero means 256.
	MaxQueue int `json:"max_queue,omitempty"`
	// PressureAt is the queue-fill fraction where the pushed backpressure
	// signal starts rising from zero; it reaches 255 at MaxQueue. Zero
	// means 0.25.
	PressureAt float64 `json:"pressure_at,omitempty"`

	// Now injects the admission clock for tests. Nil means time.Now.
	Now func() time.Time `json:"-"`
}

// Queue-fill fractions at which batch, then interactive, traffic sheds.
// Batch sheds first: that order is what makes shedding class-aware.
const (
	shedBatchAt       = 0.5
	shedInteractiveAt = 0.9
)

func (c Config) maxQueue() int {
	if c.MaxQueue <= 0 {
		return 256
	}
	return c.MaxQueue
}

func (c Config) pressureAt() float64 {
	if c.PressureAt <= 0 {
		return 0.25
	}
	return c.PressureAt
}

func (c Config) tenant(name string) TenantConfig {
	tc, ok := c.Tenants[name]
	if !ok {
		tc = c.Default
	}
	if tc.Weight <= 0 {
		tc.Weight = 1
	}
	if tc.Burst <= 0 {
		tc.Burst = tc.RatePerSec
	}
	return tc
}

// tenantStats is one tenant+class cell of the gate's accounting.
type tenantStats struct {
	admitted atomic.Int64
	shed     atomic.Int64
	queuedNs atomic.Int64
}

// Gate is the provider-side front door: admission (token bucket + queue
// thresholds, class-aware), weighted fair queueing across tenants, and a
// pressure signal for the reply envelope. Submit and RunNext are the two
// halves of the dispatch contract: Submit admits and enqueues, the caller
// then schedules exactly one RunNext on its execution pool, and RunNext
// dequeues in WFQ order — so the pool's item count stays in lockstep with
// the queue while execution order is re-decided by fairness.
type Gate struct {
	cfg Config

	mu      sync.Mutex
	queue   *wfq
	buckets map[string]*TokenBucket

	statsMu sync.Mutex
	stats   map[string]*tenantStats // key: tenant + "\x00" + class
}

// NewGate builds a gate from cfg. A nil return means QoS is disabled and
// the caller should dispatch directly; every method on a nil *Gate is a
// safe no-op that admits everything.
func NewGate(cfg Config) *Gate {
	if !cfg.Enabled {
		return nil
	}
	g := &Gate{
		cfg:     cfg,
		buckets: make(map[string]*TokenBucket),
		stats:   make(map[string]*tenantStats),
	}
	g.queue = newWFQ(func(tenant string) float64 { return g.cfg.tenant(tenant).Weight })
	return g
}

func (g *Gate) cell(tenant string, class Class) *tenantStats {
	key := tenant + "\x00" + class.String()
	g.statsMu.Lock()
	defer g.statsMu.Unlock()
	ts := g.stats[key]
	if ts == nil {
		ts = &tenantStats{}
		g.stats[key] = ts
	}
	return ts
}

// normalize maps the wire identity to accounting identity: empty tenant
// becomes DefaultTenant, untagged class is treated as interactive.
func normalize(id Identity) Identity {
	if id.Tenant == "" {
		id.Tenant = DefaultTenant
	}
	if id.Class == ClassUnknown {
		id.Class = ClassInteractive
	}
	return id
}

// Submit runs admission control for one request and, if admitted,
// enqueues run into the WFQ. It returns a *ShedError when the request is
// rejected; the caller must then schedule one RunNext on its pool for
// each successful Submit. cost is the request size in bytes (used as the
// WFQ cost; admission charges one token per request regardless).
func (g *Gate) Submit(id Identity, cost int, run func()) error {
	if g == nil {
		if run != nil {
			run()
		}
		return nil
	}
	id = normalize(id)

	g.mu.Lock()
	depth := g.queue.len()
	max := g.cfg.maxQueue()
	fill := float64(depth) / float64(max)

	var reason string
	switch {
	case depth >= max:
		reason = "queue full"
	case id.Class == ClassBatch && fill >= shedBatchAt:
		reason = "batch shed threshold"
	case fill >= shedInteractiveAt:
		reason = "interactive shed threshold"
	default:
		tc := g.cfg.tenant(id.Tenant)
		if tc.RatePerSec > 0 && id.Class == ClassBatch {
			b := g.buckets[id.Tenant]
			if b == nil {
				b = NewTokenBucket(tc.RatePerSec, tc.Burst, g.cfg.Now)
				g.buckets[id.Tenant] = b
			}
			if !b.Take(1) {
				reason = "rate limit"
			}
		}
	}
	if reason != "" {
		g.mu.Unlock()
		g.cell(id.Tenant, id.Class).shed.Add(1)
		return &ShedError{Tenant: id.Tenant, Class: id.Class, Reason: reason}
	}

	ts := g.cell(id.Tenant, id.Class)
	enq := time.Now()
	if g.cfg.Now != nil {
		enq = g.cfg.Now()
	}
	g.queue.push(id.Tenant, float64(cost), func() {
		deq := time.Now()
		if g.cfg.Now != nil {
			deq = g.cfg.Now()
		}
		if d := deq.Sub(enq); d > 0 {
			ts.queuedNs.Add(int64(d))
		}
		if run != nil {
			run()
		}
	})
	g.mu.Unlock()
	ts.admitted.Add(1)
	return nil
}

// RunNext dequeues and executes the next request in WFQ order. An empty
// queue is a no-op (benign: only happens when the pool drains during
// shutdown races).
func (g *Gate) RunNext() {
	if g == nil {
		return
	}
	g.mu.Lock()
	run := g.queue.pop()
	g.mu.Unlock()
	if run != nil {
		run()
	}
}

// Depth reports the current queued backlog.
func (g *Gate) Depth() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.queue.len()
}

// Pressure derives the server-push backpressure level from the queue
// depth: 0 below PressureAt·MaxQueue, rising linearly to 255 at MaxQueue.
func (g *Gate) Pressure() uint8 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	depth := g.queue.len()
	g.mu.Unlock()
	max := g.cfg.maxQueue()
	lo := int(g.cfg.pressureAt() * float64(max))
	if depth <= lo {
		return 0
	}
	span := max - lo
	if span <= 0 {
		return 255
	}
	p := 255 * (depth - lo) / span
	if p > 255 {
		p = 255
	}
	return uint8(p)
}

// CellSnapshot is one tenant+class row of the gate's accounting.
type CellSnapshot struct {
	Tenant   string
	Class    string
	Admitted int64
	Shed     int64
	QueuedNs int64
}

// Snapshot returns the per-tenant accounting — the raw material for both
// metrics collectors and test assertions.
func (g *Gate) Snapshot() []CellSnapshot {
	if g == nil {
		return nil
	}
	g.statsMu.Lock()
	defer g.statsMu.Unlock()
	out := make([]CellSnapshot, 0, len(g.stats))
	for key, ts := range g.stats {
		var tenant, class string
		for i := 0; i < len(key); i++ {
			if key[i] == 0 {
				tenant, class = key[:i], key[i+1:]
				break
			}
		}
		out = append(out, CellSnapshot{
			Tenant:   tenant,
			Class:    class,
			Admitted: ts.admitted.Load(),
			Shed:     ts.shed.Load(),
			QueuedNs: ts.queuedNs.Load(),
		})
	}
	return out
}

// RegisterMetrics exposes the gate's per-tenant admission accounting and
// live queue state in reg. Safe on a nil gate (registers nothing).
func (g *Gate) RegisterMetrics(reg *obs.Registry) {
	if g == nil || reg == nil {
		return
	}
	reg.MustRegister(obs.MetricQoSAdmitted,
		"Requests admitted by the QoS gate, by tenant and class.",
		obs.TypeCounter, func() []obs.Sample {
			var out []obs.Sample
			for _, c := range g.Snapshot() {
				out = append(out, obs.OneSample(float64(c.Admitted), "tenant", c.Tenant, "class", c.Class))
			}
			return out
		})
	reg.MustRegister(obs.MetricQoSShed,
		"Requests shed by the QoS gate, by tenant and class.",
		obs.TypeCounter, func() []obs.Sample {
			var out []obs.Sample
			for _, c := range g.Snapshot() {
				out = append(out, obs.OneSample(float64(c.Shed), "tenant", c.Tenant, "class", c.Class))
			}
			return out
		})
	reg.MustRegister(obs.MetricQoSQueuedNs,
		"Cumulative nanoseconds requests spent in the QoS queue, by tenant and class.",
		obs.TypeCounter, func() []obs.Sample {
			var out []obs.Sample
			for _, c := range g.Snapshot() {
				out = append(out, obs.OneSample(float64(c.QueuedNs), "tenant", c.Tenant, "class", c.Class))
			}
			return out
		})
	reg.MustRegister(obs.MetricQoSQueueDepth,
		"Current QoS queue backlog across tenants.",
		obs.TypeGauge, func() []obs.Sample {
			return obs.GaugeSample(float64(g.Depth()))
		})
	reg.MustRegister(obs.MetricQoSPressure,
		"Current server-push backpressure level (0-255).",
		obs.TypeGauge, func() []obs.Sample {
			return obs.GaugeSample(float64(g.Pressure()))
		})
}
