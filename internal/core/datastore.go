// Package core implements HEPnOS itself: the hierarchical object store for
// High Energy Physics data described in §II of the paper. Data is organized
// as named datasets containing numbered runs, subruns and events; any
// container can hold typed, labelled products (serialized Go values). The
// store is distributed over Yokan databases served by one or more server
// processes; placement follows the paper's §II-C design:
//
//   - dataset full paths map to UUIDs in dataset databases,
//   - a container key's database is chosen by consistent-hashing its
//     *parent's* key, so the children of one container are co-located and
//     iterable with a single database iterator, in order,
//   - a product's database is chosen by hashing its container key, so the
//     products of one container batch onto one server.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/asyncengine"
	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/chash"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/health"
	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/margo"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/resilience"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/uuid"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// Errors returned by datastore operations. Each carries its own stable code
// so wire transit and errors.Is keep them distinct even where classes
// coincide (every "no such X" is not_found, but a missing dataset is never
// mistaken for a missing product).
var (
	ErrNoSuchDataSet   = xerr.Sentinel("hepnos/no_such_dataset", xerr.ClassNotFound, "hepnos: no such dataset")
	ErrNoSuchContainer = xerr.Sentinel("hepnos/no_such_container", xerr.ClassNotFound, "hepnos: no such container")
	ErrNoSuchProduct   = xerr.Sentinel("hepnos/no_such_product", xerr.ClassNotFound, "hepnos: no such product")
	ErrBadPath         = xerr.Sentinel("hepnos/bad_path", xerr.ClassInvalid, "hepnos: invalid dataset path")
	ErrClosed          = xerr.Sentinel("hepnos/datastore_closed", xerr.ClassClosed, "hepnos: datastore is closed")
)

// Placement selects the key-to-database mapping strategy.
type Placement string

// Placement strategies. PlacementModulo is HEPnOS's default (the database
// count is fixed for a datastore's lifetime). PlacementJump uses jump
// consistent hashing so that *growing* the database set relocates only
// ~1/(n+1) of the keys — the property the storage-rescaling extension
// (Pufferscale, §V of the paper) relies on. All clients of one service
// must use the same strategy.
const (
	PlacementModulo Placement = "modulo"
	PlacementJump   Placement = "jump"
)

func (p Placement) placer(n int) chash.Placer {
	if p == PlacementJump {
		return chash.Jump{N: n}
	}
	return chash.Modulo{N: n}
}

// ClientConfig configures Connect.
type ClientConfig struct {
	// Group describes the service (addresses and provider ids), typically
	// loaded from a group file written at deployment.
	Group bedrock.GroupFile
	// Address is this client's own endpoint address. Empty picks an
	// automatic inproc name (or tcp://127.0.0.1:0 for tcp groups).
	Address fabric.Address
	// EagerLimit overrides the RPC-inline threshold for batch transfers.
	EagerLimit int
	// Placement selects the key placement strategy (default modulo).
	Placement Placement
	// NetSim optionally attaches a network cost model to the client's
	// endpoint (latency/bandwidth injection for tests and ablations).
	NetSim *fabric.NetSim
	// Resilience optionally attaches a shared retry/backoff/circuit-
	// breaker policy to every RPC the client issues (discovery, puts,
	// gets, iteration). Transient transport faults — injected drops,
	// injection-bandwidth overload (§IV-E), crashed-and-restarted
	// servers — are then absorbed instead of surfacing to the
	// application. resilience.Default() is a good starting point.
	Resilience *resilience.Policy
	// Async sizes the client-side AsyncEngine (§II-D) that WriteBatch,
	// the Prefetcher, EventCursor lookahead, PEP and the data loader all
	// share. Nil means asyncengine.DefaultConfig().
	Async *asyncengine.Config
	// Tracer optionally records trace spans for every RPC the client
	// issues and every core-layer stage (batch flushes, prefetch fan-out,
	// PEP runs). The span context crosses the wire, so a traced client
	// against a traced service yields linked client/server span pairs.
	Tracer *obs.Tracer
	// RF overrides the deployment's replication factor (0 uses the group
	// file's; both defaulting leaves replication off). With RF ≥ 2 every
	// key is written to its placement primary plus RF−1 successor
	// databases on distinct servers, and reads fail over to replicas when
	// the primary is unhealthy. All clients of one service must agree.
	RF int
	// Health tunes the failure-detector thresholds (zero values use the
	// package defaults).
	Health health.Config
	// HeartbeatInterval is the background liveness probe period (default
	// 500ms). Probes run only when RF ≥ 2 and DisableHeartbeat is false;
	// circuit-breaker trips feed the tracker either way.
	HeartbeatInterval time.Duration
	// DisableHeartbeat turns the background prober loop off; tests drive
	// ProbeOnce deterministically instead.
	DisableHeartbeat bool
	// MinGroupEpoch rejects group files whose membership epoch is older —
	// the guard against connecting through a stale view after a rescale or
	// rejoin changed the deployment.
	MinGroupEpoch uint64
	// Tenant names the QoS identity this client's traffic runs under.
	// QoS-enabled servers meter, queue and shed per tenant; empty means
	// the shared default tenant. The tenant rides every RPC envelope, so
	// no per-call tagging is needed.
	Tenant string
}

var clientSeq atomic.Int64

// View is one immutable snapshot of a service's databases by role, in
// deterministic placement order, plus the membership the snapshot was
// discovered from. A DataStore serves from exactly one committed view at a
// time; live rebalancing (internal/autopilot) installs a second, alternate
// view for the duration of a migration so writes land in both and reads can
// fall back across the epoch bump.
type View struct {
	DatasetDBs []yokan.DBHandle
	RunDBs     []yokan.DBHandle
	SubrunDBs  []yokan.DBHandle
	EventDBs   []yokan.DBHandle
	ProductDBs []yokan.DBHandle
	// Group is the membership document the view was discovered from; its
	// Epoch orders views (commits only move forward).
	Group bedrock.GroupFile
}

// DataStore is a client handle to a deployed HEPnOS service. It is safe for
// concurrent use by multiple goroutines.
type DataStore struct {
	mi     *margo.Instance
	yc     *yokan.Client
	engine *asyncengine.Engine

	// views is the committed view every operation routes by and the
	// migration window's alternate, published together (see viewPair).
	views atomic.Pointer[viewPair]
	// migMu serializes migration lifecycle transitions (begin/commit/
	// abort/retire); data-plane readers stay lock-free on the atomics.
	migMu sync.Mutex
	// viewGen counts view transitions that can invalidate an in-flight
	// read's replica set (commit and retire). Readers snapshot it before
	// resolving replicas; an answer observed across a generation change
	// may have come from a retired copy and is re-resolved instead of
	// trusted (see replicaRead).
	viewGen atomic.Uint64

	placement Placement
	closed    atomic.Bool

	// pressure mirrors server-push backpressure onto the ingest pool.
	pressure *pressureController

	// Replication and failover state (ISSUE 5): rf copies per key, a
	// health tracker fed by the heartbeat prober and breaker trips, and
	// the prober itself (nil when rf == 1).
	rf     int
	health *health.Tracker
	prober *health.Prober

	// Client-side observability: one registry covering the endpoint's
	// breadcrumbs, the resilience policy, the async pools and the core
	// counters below; tracer is the (optional) span recorder shared with
	// the endpoint.
	registry *obs.Registry
	tracer   *obs.Tracer

	pepEvents        atomic.Int64 // events processed by PEP workers
	pepBatches       atomic.Int64 // work batches processed by PEP workers
	prefetchLoads    atomic.Int64 // product loads requested by the Prefetcher
	prefetchDegraded atomic.Int64 // loads degraded to on-demand by failed groups
	prefetchDrained  atomic.Int64 // cancelled-fetch segments recycled by the background drain
	failoverReads    atomic.Int64 // reads served by a replica instead of the primary
	replicaWrites    atomic.Int64 // extra copies written beyond the first per key
	replicaDrops     atomic.Int64 // replica copies dropped because their server was down
	resyncReplayed   atomic.Int64 // keys replayed onto rejoined servers by anti-entropy

	// Live-rebalancing accounting (DESIGN.md §18).
	migrationCopied   atomic.Int64 // key copies written to migration targets
	migrationRepaired atomic.Int64 // missing copies healed by the verify pass
	migrationErased   atomic.Int64 // stale keys erased from outgoing databases

	// Pushdown-scan accounting, summed over every scan RPC this client
	// issued (Load/HasProduct single-event scans and ScanCursor sweeps).
	scanRequests      atomic.Int64
	scanPagesScanned  atomic.Int64
	scanRowsScanned   atomic.Int64
	scanRowsMatched   atomic.Int64
	scanBytesReturned atomic.Int64
	scanBytesSaved    atomic.Int64
}

// Connect discovers the service's databases and returns a ready DataStore,
// the analog of hepnos::DataStore::connect("config.json").
func Connect(ctx context.Context, cfg ClientConfig) (*DataStore, error) {
	if len(cfg.Group.Servers) == 0 {
		return nil, fmt.Errorf("hepnos: connect: group lists no servers")
	}
	if cfg.Group.Epoch < cfg.MinGroupEpoch {
		return nil, fmt.Errorf("hepnos: connect: group file epoch %d is older than required epoch %d (stale membership view)",
			cfg.Group.Epoch, cfg.MinGroupEpoch)
	}
	rf := cfg.RF
	if rf <= 0 {
		rf = cfg.Group.ReplicationFactor()
	}
	if rf > len(cfg.Group.Servers) {
		return nil, fmt.Errorf("hepnos: connect: replication factor %d exceeds %d servers", rf, len(cfg.Group.Servers))
	}
	// The health tracker exists before any RPC leaves the process, and the
	// resilience policy's breaker-open hook feeds it from the data plane.
	// The hook is captured when a target's breaker is first created, so it
	// must be installed before any traffic. (The policy should not be
	// shared across concurrently-connecting clients.)
	tracker := health.NewTracker(cfg.Health)
	if cfg.Resilience != nil && cfg.Resilience.OnBreakerOpen == nil {
		cfg.Resilience.OnBreakerOpen = tracker.ReportBreakerOpen
	}
	addr := cfg.Address
	if addr == "" {
		if cfg.Group.Protocol == "tcp" {
			addr = "tcp://127.0.0.1:0"
		} else {
			addr = fabric.Address(fmt.Sprintf("inproc://hepnos-client-%d", clientSeq.Add(1)))
		}
	}
	acfg := asyncengine.DefaultConfig()
	if cfg.Async != nil {
		acfg = *cfg.Async
	}
	eng, err := asyncengine.New(acfg)
	if err != nil {
		return nil, fmt.Errorf("hepnos: connect: async engine: %w", err)
	}
	// Server-push backpressure lands here: every reply carries the server
	// gate's pressure level, and the controller mirrors the worst level
	// seen across servers onto the ingest pool (shrinking WriteBatch's
	// flush concurrency) until the pressure subsides.
	pc := &pressureController{levels: map[fabric.Address]uint8{}, engine: eng}
	mi, err := margo.Init(margo.Config{
		Address: addr, NetSim: cfg.NetSim, Resilience: cfg.Resilience,
		Tracer: cfg.Tracer, Tenant: cfg.Tenant, OnPressure: pc.observe,
	})
	if err != nil {
		eng.Shutdown()
		return nil, err
	}
	placement := cfg.Placement
	if placement == "" {
		placement = PlacementModulo
	}
	ds := &DataStore{mi: mi, yc: yokan.NewClient(mi), engine: eng, pressure: pc, placement: placement, rf: rf, health: tracker}
	if cfg.EagerLimit > 0 {
		ds.yc.EagerLimit = cfg.EagerLimit
	}

	view, err := discoverView(ctx, ds.yc, cfg.Group)
	if err != nil {
		eng.Shutdown()
		mi.Finalize()
		return nil, err
	}
	ds.views.Store(&viewPair{committed: view})

	// One registry for everything this client measures. Collectors close
	// over live counters, so building it here costs nothing per operation.
	ds.tracer = cfg.Tracer
	ds.registry = obs.NewRegistry()
	mi.Endpoint().RegisterMetrics(ds.registry)
	if cfg.Resilience != nil {
		cfg.Resilience.RegisterMetrics(ds.registry)
	}
	eng.RegisterMetrics(ds.registry)
	if cfg.Tracer != nil {
		obs.RegisterTracerMetrics(ds.registry, cfg.Tracer)
	}
	ds.health.RegisterMetrics(ds.registry)
	ds.registerCoreMetrics()

	// Heartbeat prober: a tiny control-plane ping per server on an
	// interval, registered on the fabric endpoint directly so a saturated
	// provider pool does not read as a dead server. The loop rides a
	// tracked engine goroutine (shut down with the engine); with heartbeats
	// off, tests drive ProbeOnce explicitly and breaker trips remain the
	// only passive feed.
	if rf > 1 {
		targets := make([]string, len(cfg.Group.Servers))
		for i, srv := range cfg.Group.Servers {
			targets[i] = srv.Address
		}
		probe := func(pctx context.Context, target string) error {
			return mi.Ping(pctx, fabric.Address(target))
		}
		ds.prober = health.NewProber(tracker, probe, targets, health.ProberConfig{Interval: cfg.HeartbeatInterval})
		if !cfg.DisableHeartbeat {
			eng.Go(context.Background(), ds.prober.Run)
		}
	}
	return ds, nil
}

// discoverView queries every server of group for its databases and builds
// the placement-ordered View — the client side of service discovery, shared
// by Connect and by live rebalancing (which re-discovers after growing or
// before draining the deployment).
func discoverView(ctx context.Context, yc *yokan.Client, group bedrock.GroupFile) (*View, error) {
	type dbEntry struct {
		handle yokan.DBHandle
		index  int
	}
	byRole := map[string][]dbEntry{}
	for _, srv := range group.Servers {
		for _, pid := range srv.Providers {
			names, _, err := yc.ListDatabases(ctx, fabric.Address(srv.Address), margo.ProviderID(pid))
			if err != nil {
				return nil, fmt.Errorf("hepnos: connect: query %s provider %d: %w", srv.Address, pid, err)
			}
			for _, name := range names {
				role, idx, ok := parseDBName(name)
				if !ok {
					continue // not a HEPnOS database; ignore
				}
				byRole[role] = append(byRole[role], dbEntry{
					handle: yokan.DBHandle{
						Addr:     fabric.Address(srv.Address),
						Provider: margo.ProviderID(pid),
						Name:     name,
					},
					index: idx,
				})
			}
		}
	}
	// Order each role set by the database index embedded in its name, so
	// every client agrees on placement regardless of discovery order.
	var dupErr error
	assign := func(role string) []yokan.DBHandle {
		entries := byRole[role]
		sort.Slice(entries, func(i, j int) bool { return entries[i].index < entries[j].index })
		out := make([]yokan.DBHandle, len(entries))
		for i, e := range entries {
			// Two databases with the same name (e.g. two deployments
			// accidentally merged into one group) would make placement
			// ambiguous; refuse to connect.
			if i > 0 && entries[i-1].index == e.index && dupErr == nil {
				dupErr = fmt.Errorf("hepnos: connect: duplicate database %q in group", e.handle.Name)
			}
			out[i] = e.handle
		}
		return out
	}
	v := &View{
		DatasetDBs: assign(bedrock.RoleDatasets),
		RunDBs:     assign(bedrock.RoleRuns),
		SubrunDBs:  assign(bedrock.RoleSubruns),
		EventDBs:   assign(bedrock.RoleEvents),
		ProductDBs: assign(bedrock.RoleProducts),
		Group:      group,
	}
	if dupErr != nil {
		return nil, dupErr
	}
	if r := v.emptyRole(); r != "" {
		return nil, fmt.Errorf("hepnos: connect: service has no %s databases", r)
	}
	return v, nil
}

// emptyRole names the first role the view has no databases for, or "".
func (v *View) emptyRole() string {
	for r, name := range [...]string{"dataset", "run", "subrun", "event", "product"} {
		if len(role(r).of(v)) == 0 {
			return name
		}
	}
	return ""
}

// DiscoverView rediscovers the database view described by group, using this
// client's endpoint. Rebalancing uses it to build the target view after the
// deployment changed shape.
func (ds *DataStore) DiscoverView(ctx context.Context, group bedrock.GroupFile) (*View, error) {
	if ds.closed.Load() {
		return nil, ErrClosed
	}
	return discoverView(ctx, ds.yc, group)
}

// viewPair is one consistent snapshot of the views a DataStore routes by:
// the committed view and, when non-nil, the migration-window alternate —
// the target view between BeginMigration and CommitMigration, the outgoing
// view between CommitMigration and RetireView. Replica sets union the two
// so the window dual-writes and dual-reads.
type viewPair struct{ committed, alt *View }

// v returns the committed view. It is never nil after Connect.
func (ds *DataStore) v() *View { return ds.views.Load().committed }

// pressureController turns per-server backpressure levels (pushed in every
// RPC reply by a QoS-gated server) into one client-side throttle: the
// maximum level across servers is applied to the ingest pool, holding back
// flush slots in proportion. The max — not the mean — because a batch
// writer spreads every flush over all servers, so the most loaded one
// bounds useful ingest throughput anyway.
type pressureController struct {
	mu      sync.Mutex
	levels  map[fabric.Address]uint8
	engine  *asyncengine.Engine
	current uint8
}

// observe records one server's pushed level; it is the margo OnPressure
// hook, called from RPC completion paths, so it must stay cheap.
func (pc *pressureController) observe(target fabric.Address, level uint8) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if level == 0 {
		delete(pc.levels, target)
	} else {
		pc.levels[target] = level
	}
	var max uint8
	for _, l := range pc.levels {
		if l > max {
			max = l
		}
	}
	if max == pc.current {
		return
	}
	pc.current = max
	pc.engine.SetPressure(asyncengine.PoolIngest, max)
}

// level returns the throttle currently applied (0–255, 0 = none).
func (pc *pressureController) level() uint8 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.current
}

// PressureLevel reports the server-push backpressure level currently
// applied to the client's ingest pool (0 = none, 255 = full stop). It is
// the max across servers; tests and operators use it to see throttling.
func (ds *DataStore) PressureLevel() uint8 { return ds.pressure.level() }

// parseDBName splits "<role>_<index>".
func parseDBName(name string) (role string, index int, ok bool) {
	i := strings.LastIndexByte(name, '_')
	if i <= 0 {
		return "", 0, false
	}
	role = name[:i]
	switch role {
	case bedrock.RoleDatasets, bedrock.RoleRuns, bedrock.RoleSubruns,
		bedrock.RoleEvents, bedrock.RoleProducts:
	default:
		return "", 0, false
	}
	var idx int
	if _, err := fmt.Sscanf(name[i+1:], "%d", &idx); err != nil {
		return "", 0, false
	}
	return role, idx, true
}

// Close shuts down the async engine (canceling any in-flight background
// work) and releases the client's endpoint. The service keeps running.
func (ds *DataStore) Close() {
	if ds.closed.CompareAndSwap(false, true) {
		ds.engine.Shutdown()
		ds.mi.Finalize()
	}
}

// Engine returns the client's AsyncEngine. All client-side background work
// (batch flushes, prefetch fan-out, cursor lookahead, PEP readers, parallel
// ingest) runs on its pools.
func (ds *DataStore) Engine() *asyncengine.Engine { return ds.engine }

// NumEventDatabases returns how many event databases the service has; the
// ParallelEventProcessor sizes its reader set from this (§II-D).
func (ds *DataStore) NumEventDatabases() int { return len(ds.v().EventDBs) }

// pathSep separates dataset path components.
const pathSep = "/"

// normalizePath validates and canonicalizes "a/b/c" (no empty components).
func normalizePath(path string) (string, error) {
	path = strings.Trim(path, pathSep)
	if path == "" {
		return "", fmt.Errorf("%w: empty path", ErrBadPath)
	}
	parts := strings.Split(path, pathSep)
	for _, p := range parts {
		if p == "" {
			return "", fmt.Errorf("%w: %q has empty component", ErrBadPath, path)
		}
	}
	return strings.Join(parts, pathSep), nil
}

// parentPath returns the path of the enclosing dataset ("" for top level).
func parentPath(path string) string {
	if i := strings.LastIndex(path, pathSep); i >= 0 {
		return path[:i]
	}
	return ""
}

// CreateDataSet creates the dataset at path, creating missing parents like
// mkdir -p. It is idempotent and returns the dataset handle.
func (ds *DataStore) CreateDataSet(ctx context.Context, path string) (*DataSet, error) {
	if ds.closed.Load() {
		return nil, ErrClosed
	}
	norm, err := normalizePath(path)
	if err != nil {
		return nil, err
	}
	parts := strings.Split(norm, pathSep)
	var cur string
	var last *DataSet
	for _, p := range parts {
		if cur == "" {
			cur = p
		} else {
			cur = cur + pathSep + p
		}
		last, err = ds.createOneDataSet(ctx, cur)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

func (ds *DataStore) createOneDataSet(ctx context.Context, path string) (*DataSet, error) {
	// Atomic get-or-put: concurrent creators race on the server, and
	// everyone proceeds with the single winning UUID. (A plain get/put
	// pair would let a loser build its hierarchy under an orphaned UUID.)
	// With replication the race is arbitrated on one replica and the
	// winning UUID is copied to the rest.
	candidate := uuid.New()
	winner, _, err := ds.replicatedPutIfAbsent(ctx, ds.replicas(place{roleDatasets, []byte(parentPath(path))}), []byte(path), candidate[:])
	if err != nil {
		return nil, err
	}
	id, err := uuid.FromBytes(winner)
	if err != nil {
		return nil, fmt.Errorf("hepnos: dataset %q has corrupt UUID: %w", path, err)
	}
	return ds.datasetHandle(path, id), nil
}

// OpenDataSet returns a handle to an existing dataset, or ErrNoSuchDataSet.
// This is the ds = datastore["path/to/dataset"] accessor from Listing 1.
func (ds *DataStore) OpenDataSet(ctx context.Context, path string) (*DataSet, error) {
	if ds.closed.Load() {
		return nil, ErrClosed
	}
	norm, err := normalizePath(path)
	if err != nil {
		return nil, err
	}
	raw, found, err := ds.get(ctx, ds.resolver(place{roleDatasets, []byte(parentPath(norm))}), []byte(norm))
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchDataSet, norm)
	}
	id, err := uuid.FromBytes(raw)
	if err != nil {
		return nil, fmt.Errorf("hepnos: dataset %q has corrupt UUID: %w", norm, err)
	}
	return ds.datasetHandle(norm, id), nil
}

func (ds *DataStore) datasetHandle(path string, id uuid.UUID) *DataSet {
	return &DataSet{
		container: container{ds: ds, key: keys.ForDataSet(id)},
		path:      path,
	}
}

// ListDataSets returns the names (not full paths) of the datasets directly
// inside parent ("" for the top level), in lexicographic order.
func (ds *DataStore) ListDataSets(ctx context.Context, parent string) ([]string, error) {
	if ds.closed.Load() {
		return nil, ErrClosed
	}
	prefix := ""
	norm := ""
	if parent != "" {
		var err error
		if norm, err = normalizePath(parent); err != nil {
			return nil, err
		}
		prefix = norm + pathSep
	}
	// All children of one parent live in one database (placement is by
	// parent path), so one paginated scan suffices.
	pg := ds.pager(place{roleDatasets, []byte(norm)}, []byte(prefix), listPageSize)
	var names []string
	for !pg.done {
		page, err := pg.next(ctx)
		if err != nil {
			return nil, err
		}
		for _, k := range page {
			rest := strings.TrimPrefix(string(k), prefix)
			if rest == "" || strings.Contains(rest, pathSep) {
				continue // grandchildren live here only if their parent hashes alike; skip
			}
			names = append(names, rest)
		}
	}
	return names, nil
}

// listPageSize is the pagination unit for iteration RPCs.
const listPageSize = 1024

// decodeProduct deserializes stored bytes into ptr.
func decodeProduct(data []byte, ptr any) error {
	if err := serde.Unmarshal(data, ptr); err != nil {
		return fmt.Errorf("hepnos: deserialize product: %w", err)
	}
	return nil
}

// EventDatabases returns the handles of the service's event databases, in
// placement order. Exposed for tooling and ablation benchmarks; normal
// applications never need it.
func (ds *DataStore) EventDatabases() []yokan.DBHandle {
	return append([]yokan.DBHandle(nil), ds.v().EventDBs...)
}

// Yokan returns the underlying key-value client. Exposed for tooling and
// ablation benchmarks; normal applications never need it.
func (ds *DataStore) Yokan() *yokan.Client { return ds.yc }

// Margo returns the client's fabric endpoint. The autopilot scrapes server
// metrics over it — the same instance the data path uses, so monitoring
// traffic shares the client's QoS envelope.
func (ds *DataStore) Margo() *margo.Instance { return ds.mi }

// RF returns the effective replication factor (1 when replication is off).
func (ds *DataStore) RF() int { return ds.rf }

// Health returns the client's liveness tracker. Never nil after Connect;
// with RF 1 it simply never drives routing decisions.
func (ds *DataStore) Health() *health.Tracker { return ds.health }

// ProbeOnce runs one synchronous heartbeat round over every server, feeding
// the health tracker. Deterministic tests (and recovery tooling) call it
// instead of waiting on the background prober's interval. No-op when the
// datastore has no prober (RF 1).
func (ds *DataStore) ProbeOnce(ctx context.Context) {
	if ds.prober != nil {
		ds.prober.Tick(ctx)
	}
}
