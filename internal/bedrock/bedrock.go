// Package bedrock is the Go analog of the Mochi Bedrock component: it
// bootstraps a server process from a JSON configuration describing the
// Argobots resources (pools, execution streams), the Mercury/Margo setup
// (address, rpc execution streams) and the list of providers with their
// databases (§II-B of the paper).
//
// The "high degree of configurability" the paper credits for HEPnOS tuning
// is preserved: every knob the evaluation sweeps (providers per process,
// databases per provider, backend type, xstream counts) is a field here.
package bedrock

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/argo"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/health"
	"github.com/hep-on-hpc/hepnos-go/internal/margo"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/resilience"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// ProcessConfig is the root of a Bedrock JSON document for one server
// process.
type ProcessConfig struct {
	Margo     MargoConfig      `json:"margo"`
	Providers []ProviderConfig `json:"providers"`
	// Storage tunes the process-wide LSM storage tier (block cache size,
	// memtable size, WAL durability). Nil keeps the defaults; it only
	// matters when some provider serves an "lsm" database.
	Storage *StorageConfig `json:"storage,omitempty"`
}

// StorageConfig is the JSON form of the server's storage-tier setup. One
// block cache and one background pool of two execution streams are shared
// by every LSM database the process serves; flushes and merges always run
// on that pool, off the write path.
type StorageConfig struct {
	// BlockCacheMB sizes the shared block cache in MiB (0: 32 MiB).
	BlockCacheMB int `json:"block_cache_mb,omitempty"`
	// MemtableMB is the per-database flush threshold in MiB (0: 4 MiB).
	MemtableMB int `json:"memtable_mb,omitempty"`
	// SyncWrites acknowledges a write only once an fsync covers it.
	// Concurrent writers share that fsync (group commit). Off, the WAL is
	// fsynced only when a memtable rotates, so a killed server can lose
	// acknowledged writes.
	SyncWrites bool `json:"sync_writes,omitempty"`
}

// storagePoolName is the dedicated pool for LSM background jobs, kept out
// of the RPC pools so storage I/O never steals request execution streams;
// storageStreams execution streams drain it.
const (
	storagePoolName = "__storage__"
	storageStreams  = 2
)

// options materializes the LSM options this config describes.
func (sc *StorageConfig) options() yokan.LSMOptions {
	var opts yokan.LSMOptions
	if sc != nil {
		opts.BlockCacheBytes = int64(sc.BlockCacheMB) << 20
		opts.MemtableBytes = int64(sc.MemtableMB) << 20
		opts.SyncWrites = sc.SyncWrites
	}
	return opts
}

// MargoConfig configures the communication and threading layers.
type MargoConfig struct {
	// Address to listen on, e.g. "inproc://server0" or "tcp://0.0.0.0:0".
	Address string `json:"address"`
	// RPCXStreams sets the size of the default round-robin xstream set
	// when Argobots is not given explicitly. The paper uses 16.
	RPCXStreams int `json:"rpc_xstreams"`
	// Argobots optionally spells out pools and xstreams in full.
	Argobots argo.Config `json:"argobots"`
	// NetSim optionally attaches a network cost model (testing only; not
	// part of the original Bedrock schema).
	NetSim *NetSimConfig `json:"netsim,omitempty"`
	// Resilience optionally attaches a retry/backoff/circuit-breaker
	// policy to the server's outgoing calls (bulk pulls back to clients).
	Resilience *ResilienceConfig `json:"resilience,omitempty"`
	// Obs tunes the observability layer (§V monitoring). Nil keeps the
	// defaults: tracing on with the default span buffer, metrics on.
	Obs *ObsConfig `json:"obs,omitempty"`
	// QoS configures the multi-tenant front door: per-tenant WFQ weights
	// and admission rates, queue bound, and class-aware shed thresholds.
	// Nil (or Enabled false) serves every request ungated, as before.
	QoS *QoSConfig `json:"qos,omitempty"`
}

// QoSConfig is the JSON form of a qos.Config — the server's multi-tenant
// admission, fairness and backpressure policy.
type QoSConfig struct {
	// Enabled turns the QoS gate on for all non-reserved providers.
	Enabled bool `json:"enabled"`
	// Default applies to tenants without an explicit entry in Tenants.
	Default qos.TenantConfig `json:"default,omitempty"`
	// Tenants holds per-tenant weight/rate overrides, keyed by tenant.
	Tenants map[string]qos.TenantConfig `json:"tenants,omitempty"`
	// MaxQueue bounds the gate's WFQ backlog (0: qos default of 256).
	// Batch traffic sheds at half of it, interactive traffic at 90%.
	MaxQueue int `json:"max_queue,omitempty"`
	// PressureAt is the fill fraction where pushed backpressure starts
	// rising (default 0.25).
	PressureAt float64 `json:"pressure_at,omitempty"`
}

// Gate materializes the config into a live qos.Config for margo.
func (qc *QoSConfig) Gate() qos.Config {
	if qc == nil {
		return qos.Config{}
	}
	return qos.Config{
		Enabled:    qc.Enabled,
		Default:    qc.Default,
		Tenants:    qc.Tenants,
		MaxQueue:   qc.MaxQueue,
		PressureAt: qc.PressureAt,
	}
}

// ObsConfig is the JSON form of the process's observability setup. The
// metrics registry is pull-model — it costs nothing until scraped — so it
// is always on; only tracing (which keeps a ring of finished spans) has
// an off switch.
type ObsConfig struct {
	// DisableTracing turns span recording off. Metrics stay on.
	DisableTracing bool `json:"disable_tracing,omitempty"`
	// SpanBuffer is the tracer's ring capacity in spans
	// (0: obs.DefaultSpanBuffer).
	SpanBuffer int `json:"span_buffer,omitempty"`
}

// NewTracer materializes the config into a live tracer (nil when tracing
// is disabled). A nil *ObsConfig yields the default tracer.
func (oc *ObsConfig) NewTracer() *obs.Tracer {
	if oc != nil && oc.DisableTracing {
		return nil
	}
	size := 0
	if oc != nil {
		size = oc.SpanBuffer
	}
	return obs.NewTracer(size)
}

// NetSimConfig is the JSON form of a fabric.NetSim.
type NetSimConfig struct {
	LatencyUS         int64   `json:"latency_us"`
	BandwidthBps      float64 `json:"bandwidth_bps"`
	InjectionBps      float64 `json:"injection_bps"`
	InjectionHardFail bool    `json:"injection_hard_fail"`
}

// ResilienceConfig is the JSON form of a resilience.Policy. Zero fields
// fall back to the resilience package defaults.
type ResilienceConfig struct {
	MaxRetries        int     `json:"max_retries"`
	InitialBackoffUS  int64   `json:"initial_backoff_us"`
	MaxBackoffUS      int64   `json:"max_backoff_us"`
	Jitter            float64 `json:"jitter"`
	PerTryTimeoutUS   int64   `json:"per_try_timeout_us"`
	RetryBudget       float64 `json:"retry_budget"`
	BreakerThreshold  int     `json:"breaker_threshold"`
	BreakerCooldownUS int64   `json:"breaker_cooldown_us"`
}

// Policy materializes the config into a live policy.
func (rc *ResilienceConfig) Policy() *resilience.Policy {
	if rc == nil {
		return nil
	}
	p := &resilience.Policy{
		MaxRetries:     rc.MaxRetries,
		InitialBackoff: time.Duration(rc.InitialBackoffUS) * time.Microsecond,
		MaxBackoff:     time.Duration(rc.MaxBackoffUS) * time.Microsecond,
		Jitter:         rc.Jitter,
		PerTryTimeout:  time.Duration(rc.PerTryTimeoutUS) * time.Microsecond,
	}
	if rc.RetryBudget > 0 {
		p.Budget = resilience.NewBudget(rc.RetryBudget, 0.1)
	}
	if rc.BreakerThreshold > 0 {
		p.Breaker = &resilience.BreakerConfig{
			FailureThreshold: rc.BreakerThreshold,
			Cooldown:         time.Duration(rc.BreakerCooldownUS) * time.Microsecond,
		}
	}
	return p
}

// ProviderConfig declares one provider.
type ProviderConfig struct {
	// Type must be "yokan" (the only provider type HEPnOS uses).
	Type string `json:"type"`
	// Name is informational.
	Name string `json:"name"`
	// ProviderID distinguishes providers on the same endpoint.
	ProviderID uint16 `json:"provider_id"`
	// Pool names the Argobots pool this provider's RPCs execute in;
	// empty selects the primary pool.
	Pool string `json:"pool"`
	// Config holds provider-type-specific settings.
	Config ProviderSpec `json:"config"`
}

// ProviderSpec is the "config" object of a yokan provider.
type ProviderSpec struct {
	Databases []yokan.DBConfig `json:"databases"`
}

// Validate performs structural checks before boot.
func (c *ProcessConfig) Validate() error {
	if c.Margo.Address == "" {
		return fmt.Errorf("bedrock: margo.address is required")
	}
	if len(c.Providers) == 0 {
		return fmt.Errorf("bedrock: at least one provider is required")
	}
	seen := make(map[uint16]bool)
	for i, p := range c.Providers {
		if p.Type != "yokan" {
			return fmt.Errorf("bedrock: provider %d has unsupported type %q", i, p.Type)
		}
		if seen[p.ProviderID] {
			return fmt.Errorf("bedrock: duplicate provider_id %d", p.ProviderID)
		}
		seen[p.ProviderID] = true
		if len(p.Config.Databases) == 0 {
			return fmt.Errorf("bedrock: provider %d has no databases", i)
		}
	}
	return nil
}

// Server is a booted process: a margo instance plus its providers.
type Server struct {
	mi         *margo.Instance
	providers  []*yokan.Provider
	cfg        ProcessConfig
	registry   *obs.Registry
	tracer     *obs.Tracer
	shutdownCh chan struct{}
	janitorCh  chan struct{}

	// Storage tier shared by the process's LSM databases: a block cache
	// and a dedicated background runtime for flush/compaction jobs. Nil
	// when no provider serves an lsm database.
	storageRT    *argo.Runtime
	storageCache *yokan.BlockCache

	// epoch is the membership-view version the server believes it belongs
	// to (set by Deployment, reported by the admin health RPC).
	epoch atomic.Uint64
	// healthView, when attached, supplies the liveness snapshot the admin
	// health RPC publishes (see AttachHealthView).
	healthView atomic.Value // func() []health.TargetStatus
	// rebalanceView, when attached, supplies the live-migration progress
	// the admin rebalance RPC publishes (see AttachRebalanceView).
	rebalanceView atomic.Value // func() RebalanceStatus
}

// setEpoch records the membership epoch the server is part of.
func (s *Server) setEpoch(e uint64) { s.epoch.Store(e) }

// Epoch reports the membership epoch last pushed to the server.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// AttachHealthView wires a liveness snapshot source (typically a
// health.Tracker's Snapshot method) into the server's admin health RPC, so
// operators can scrape the fault-domain view a process has built.
func (s *Server) AttachHealthView(snapshot func() []health.TargetStatus) {
	s.healthView.Store(snapshot)
}

// AttachRebalanceView wires a live-migration progress source (typically an
// autopilot Migrator's Status method) into the server's admin rebalance
// RPC, so operators can watch a topology change move key ranges without
// access to the process driving it.
func (s *Server) AttachRebalanceView(status func() RebalanceStatus) {
	s.rebalanceView.Store(status)
}

// Boot starts a server from the configuration.
func Boot(cfg ProcessConfig) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var sim *fabric.NetSim
	if ns := cfg.Margo.NetSim; ns != nil {
		sim = &fabric.NetSim{
			Latency:           time.Duration(ns.LatencyUS) * time.Microsecond,
			BandwidthBps:      ns.BandwidthBps,
			InjectionBps:      ns.InjectionBps,
			InjectionHardFail: ns.InjectionHardFail,
		}
	}
	policy := cfg.Margo.Resilience.Policy()
	tracer := cfg.Margo.Obs.NewTracer()
	mi, err := margo.Init(margo.Config{
		Address:     fabric.Address(cfg.Margo.Address),
		Argobots:    cfg.Margo.Argobots,
		RPCXStreams: cfg.Margo.RPCXStreams,
		NetSim:      sim,
		Resilience:  policy,
		Tracer:      tracer,
		QoS:         cfg.Margo.QoS.Gate(),
	})
	if err != nil {
		return nil, err
	}
	srv := &Server{
		mi:         mi,
		cfg:        cfg,
		registry:   obs.NewRegistry(),
		tracer:     tracer,
		shutdownCh: make(chan struct{}, 1),
		janitorCh:  make(chan struct{}),
	}
	mi.Endpoint().RegisterMetrics(srv.registry)
	mi.Gate().RegisterMetrics(srv.registry)
	if policy != nil {
		policy.RegisterMetrics(srv.registry)
	}
	if tracer != nil {
		obs.RegisterTracerMetrics(srv.registry, tracer)
	}
	if err := srv.registerAdmin(); err != nil {
		srv.Shutdown()
		return nil, err
	}

	// Stand up the shared storage tier if any provider serves an LSM
	// database: one block cache across all DBs, plus a dedicated argo
	// runtime whose pool drains background flush/compaction jobs (margo's
	// runtime has its pools fixed at init, and storage I/O should not sit
	// in RPC queues anyway).
	var env *yokan.StorageEnv
	if processHasLSM(cfg) {
		var acfg argo.Config
		acfg.Pools = []argo.PoolConfig{{Name: storagePoolName, Kind: argo.SchedFIFO}}
		for i := 0; i < storageStreams; i++ {
			acfg.XStreams = append(acfg.XStreams, argo.XStreamConfig{
				Name:  fmt.Sprintf("storage-%d", i),
				Pools: []string{storagePoolName},
			})
		}
		rt, err := argo.NewRuntime(acfg)
		if err != nil {
			srv.Shutdown()
			return nil, fmt.Errorf("bedrock: storage runtime: %w", err)
		}
		srv.storageRT = rt
		opts := cfg.Storage.options()
		srv.storageCache = yokan.NewBlockCache(opts.BlockCacheBytes)
		srv.storageCache.RegisterMetrics(srv.registry)
		env = &yokan.StorageEnv{
			Cache:     srv.storageCache,
			Compactor: yokan.NewCompactor(rt.Pool(storagePoolName)),
			Options:   opts,
		}
	}

	for _, pc := range cfg.Providers {
		var pool *argo.Pool
		if pc.Pool != "" {
			pool = mi.Runtime().Pool(pc.Pool)
			if pool == nil {
				srv.Shutdown()
				return nil, fmt.Errorf("bedrock: provider %q references unknown pool %q", pc.Name, pc.Pool)
			}
		}
		p, err := yokan.NewProviderStorage(mi, margo.ProviderID(pc.ProviderID), pool, pc.Config.Databases, env)
		if err != nil {
			srv.Shutdown()
			return nil, fmt.Errorf("bedrock: provider %q: %w", pc.Name, err)
		}
		p.RegisterMetrics(srv.registry)
		srv.providers = append(srv.providers, p)
	}
	// Bulk-region janitor: reclaim regions abandoned by dead clients
	// (exposed for a get_multi bulk response but never bulk_freed).
	go srv.bulkJanitor()
	return srv, nil
}

// bulkJanitorInterval and bulkRegionMaxAge bound server memory held for
// clients that disappeared mid-transfer.
const (
	bulkJanitorInterval = 30 * time.Second
	bulkRegionMaxAge    = 2 * time.Minute
)

func (s *Server) bulkJanitor() {
	t := time.NewTicker(bulkJanitorInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mi.Endpoint().SweepBulk(bulkRegionMaxAge)
		case <-s.janitorCh:
			return
		}
	}
}

// BootJSON parses a JSON document and boots from it. Unknown fields are
// refused, so a misspelled or removed setting fails loudly instead of
// silently keeping its default.
func BootJSON(data []byte) (*Server, error) {
	var cfg ProcessConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("bedrock: parse config: %w", err)
	}
	return Boot(cfg)
}

// BootFile reads a JSON configuration file and boots from it.
func BootFile(path string) (*Server, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bedrock: read config: %w", err)
	}
	return BootJSON(data)
}

// Addr returns the server's reachable address.
func (s *Server) Addr() fabric.Address { return s.mi.Addr() }

// Margo exposes the underlying margo instance.
func (s *Server) Margo() *margo.Instance { return s.mi }

// Registry returns the server's metrics registry: fabric breadcrumbs,
// per-provider Yokan aggregates, resilience counters. Never nil.
func (s *Server) Registry() *obs.Registry { return s.registry }

// Tracer returns the server's span tracer (nil when tracing is off).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Providers returns the booted Yokan providers.
func (s *Server) Providers() []*yokan.Provider {
	return append([]*yokan.Provider(nil), s.providers...)
}

// Descriptor summarizes this server for a group file.
func (s *Server) Descriptor() ServerDescriptor {
	d := ServerDescriptor{Address: string(s.Addr())}
	for _, p := range s.providers {
		d.Providers = append(d.Providers, uint16(p.ID()))
	}
	return d
}

// Shutdown stops the server: providers close their databases, then the
// margo instance finalizes. It is safe to call once.
func (s *Server) Shutdown() {
	select {
	case <-s.janitorCh:
	default:
		close(s.janitorCh)
	}
	for _, p := range s.providers {
		p.Close()
	}
	// Databases are closed (each Close waits out its background jobs), so
	// the storage runtime can go down after them.
	if s.storageRT != nil {
		s.storageRT.Shutdown()
	}
	s.mi.Finalize()
}

// processHasLSM reports whether any provider in cfg serves an LSM-backed
// database.
func processHasLSM(cfg ProcessConfig) bool {
	for _, pc := range cfg.Providers {
		for _, db := range pc.Config.Databases {
			if db.Type == "lsm" {
				return true
			}
		}
	}
	return false
}
