// Package hepnos is the public API of hepnos-go, a Go reproduction of
// HEPnOS — the High Energy Physics new Object Store (IPDPS 2023). It
// re-exports the core client types so downstream users never import
// internal packages.
//
// A HEPnOS service stores HEP data as a hierarchy of datasets, runs,
// subruns and events; any container holds typed, labelled products
// (serialized Go values). The Go translation of the paper's Listing 1:
//
//	ds, _ := hepnos.Connect(ctx, hepnos.ClientConfig{Group: group})
//	defer ds.Close()
//	d, _ := ds.CreateDataSet(ctx, "fermilab/nova")
//	run, _ := d.CreateRun(ctx, 43)
//	subrun, _ := run.CreateSubRun(ctx, 56)
//	ev, _ := subrun.CreateEvent(ctx, 25)
//	_ = ev.Store(ctx, "mylabel", particles)   // store a product
//	var out []Particle
//	_ = ev.Load(ctx, "mylabel", &out)          // load it back
//	for _, sr := range mustV(run.SubRuns(ctx)) { ... }
//
// Services are deployed with the bedrock package (see cmd/hepnos-server)
// and described to clients by a group file.
package hepnos

import (
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/asyncengine"
	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/core"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/health"
	"github.com/hep-on-hpc/hepnos-go/internal/mpi"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/resilience"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
)

// Client-side types.
type (
	// DataStore is a client handle to a HEPnOS service.
	DataStore = core.DataStore
	// ClientConfig configures Connect.
	ClientConfig = core.ClientConfig
	// DataSet is a named container of runs and datasets.
	DataSet = core.DataSet
	// Run is a numbered container of subruns.
	Run = core.Run
	// SubRun is a numbered container of events.
	SubRun = core.SubRun
	// Event is the natural atomic unit of HEP data.
	Event = core.Event
	// EventID is the (run, subrun, event) coordinate triple.
	EventID = core.EventID
	// WriteBatch groups updates by target database (§II-D) and flushes on
	// the client's AsyncEngine. Flush blocks on a batch from NewWriteBatch
	// and returns at once on one from NewAsyncWriteBatch.
	WriteBatch = core.WriteBatch
	// Prefetcher bulk-loads selected products for event-key batches,
	// fanning per-database groups out on the AsyncEngine.
	Prefetcher = core.Prefetcher
	// PEPOptions tunes ProcessEvents (the ParallelEventProcessor).
	PEPOptions = core.PEPOptions
	// PEPStats reports a ProcessEvents execution.
	PEPStats = core.PEPStats
	// ProductSelector names a product to prefetch with events.
	ProductSelector = core.ProductSelector
	// RunCursor, SubRunCursor and EventCursor stream container children
	// page by page; EventCursor can prefetch products (the Prefetcher
	// pattern).
	RunCursor    = core.RunCursor
	SubRunCursor = core.SubRunCursor
	EventCursor  = core.EventCursor
	// Placement selects the key-to-database mapping strategy.
	Placement = core.Placement
	// AsyncEngine is the client-side asynchrony layer of §II-D: the one
	// set of argo pools under asynchronous write batches, the prefetcher,
	// cursor lookahead, PEP readers and the data loader. Obtain it with
	// DataStore.Engine; configure it via ClientConfig.Async.
	AsyncEngine = asyncengine.Engine
	// AsyncConfig sizes the AsyncEngine's pools.
	AsyncConfig = asyncengine.Config
	// AsyncPoolSpec sizes one engine pool (xstreams, max in-flight ops).
	AsyncPoolSpec = asyncengine.PoolSpec
)

// Standard AsyncEngine pool names.
const (
	AsyncPoolRPC      = asyncengine.PoolRPC
	AsyncPoolPrefetch = asyncengine.PoolPrefetch
	AsyncPoolIngest   = asyncengine.PoolIngest
)

// DefaultAsyncConfig returns the default AsyncEngine pool sizing.
var DefaultAsyncConfig = asyncengine.DefaultConfig

// Placement strategies (see core.Placement).
const (
	PlacementModulo = core.PlacementModulo
	PlacementJump   = core.PlacementJump
)

// Deployment types (server side).
type (
	// DeploySpec sizes a service deployment.
	DeploySpec = bedrock.DeploySpec
	// Deployment is a set of running servers.
	Deployment = bedrock.Deployment
	// GroupFile describes a deployed service to clients.
	GroupFile = bedrock.GroupFile
	// ProcessConfig is one server's Bedrock JSON configuration.
	ProcessConfig = bedrock.ProcessConfig
	// ClientProcessConfig is the client-side JSON configuration (group
	// file location, async pool sizing, resilience policy).
	ClientProcessConfig = bedrock.ClientProcessConfig
)

// Comm is the MPI-like communicator used by parallel client applications.
type Comm = mpi.Comm

// QoS types: the multi-tenant front door. A server deployed with a
// QoSConfig (DeploySpec.QoS) meters, fair-queues and sheds requests per
// tenant; a client names its tenant via ClientConfig.Tenant and its
// traffic classes are tagged automatically (batched ingest = batch,
// cursor/prefetch reads = interactive). Overload surfaces to batch
// writers as a typed ShedError — test with IsShed — never as a timeout.
type (
	// QoSConfig is the server-side admission/fairness policy (JSON).
	QoSConfig = bedrock.QoSConfig
	// QoSTenantConfig is one tenant's weight and ingest rate limit.
	QoSTenantConfig = qos.TenantConfig
	// ShedError is the typed rejection a QoS gate returns when it sheds
	// a request instead of queueing it.
	ShedError = qos.ShedError
)

// IsShed reports whether err is (or wraps) a QoS shed rejection.
var IsShed = qos.IsShed

// Resilience types: the shared failure-handling policy attachable to a
// client via ClientConfig.Resilience (retry budget, exponential backoff
// with seeded jitter, per-attempt deadlines, per-target circuit breakers
// with half-open probing).
type (
	// ResiliencePolicy bundles retry/backoff/breaker behaviour.
	ResiliencePolicy = resilience.Policy
	// RetryBudget bounds a process's total retry volume.
	RetryBudget = resilience.Budget
	// BreakerConfig parameterizes per-target circuit breakers.
	BreakerConfig = resilience.BreakerConfig
)

// DefaultResilience returns the stack's standard policy; NewRetryBudget
// builds a custom shared retry budget.
var (
	DefaultResilience = resilience.Default
	NewRetryBudget    = resilience.NewBudget
)

// Observability types (§V monitoring): a client created with
// ClientConfig.Tracer records linked client/server spans; every client
// exposes a metrics Registry through DataStore.Registry. Server-side
// counterparts are scraped remotely — see cmd/hepnos-metrics.
type (
	// Tracer records finished spans into a bounded ring buffer.
	Tracer = obs.Tracer
	// Span is one finished measurement, linkable across processes.
	Span = obs.Span
	// MetricsRegistry is a process's set of named instruments.
	MetricsRegistry = obs.Registry
	// MetricFamily is one instrument with all its labelled samples.
	MetricFamily = obs.Family
	// ObsSource is one scraped process in an observability report.
	ObsSource = obs.Source
)

// NewTracer creates a span tracer; PromText renders metric families in
// Prometheus text exposition; RenderObsReport turns scraped sources into
// the hot-path text report of cmd/hepnos-metrics.
var (
	NewTracer       = obs.NewTracer
	PromText        = obs.PromText
	RenderObsReport = obs.RenderReport
)

// Errors re-exported from the core package.
var (
	ErrNoSuchDataSet   = core.ErrNoSuchDataSet
	ErrNoSuchContainer = core.ErrNoSuchContainer
	ErrNoSuchProduct   = core.ErrNoSuchProduct
	ErrBadPath         = core.ErrBadPath
	ErrClosed          = core.ErrClosed
	// ErrBatchClosed is returned by WriteBatch operations after Close.
	ErrBatchClosed = core.ErrBatchClosed
	// ErrViewChanged ends a ProcessEvents pass that a live-rebalancing
	// commit overtook; rerun it on the new view.
	ErrViewChanged = core.ErrViewChanged
)

// ErrorClass is the stable machine-readable classification every error in
// the stack carries (not_found, unavailable, shed, timeout, ...). Classes
// survive the wire: a remote miss classifies the same as a local one, and
// the hepnos_errors_total metric is labelled with these values.
type ErrorClass = xerr.Class

// Error classes.
const (
	ClassNotFound    = xerr.ClassNotFound
	ClassConflict    = xerr.ClassConflict
	ClassInvalid     = xerr.ClassInvalid
	ClassUnavailable = xerr.ClassUnavailable
	ClassShed        = xerr.ClassShed
	ClassTimeout     = xerr.ClassTimeout
	ClassCanceled    = xerr.ClassCanceled
	ClassClosed      = xerr.ClassClosed
	ClassInternal    = xerr.ClassInternal
)

// Error-classification helpers. ClassOf extracts an error's class (empty
// for nil or unclassified errors); IsNotFound and IsUnavailable test the
// two classes applications branch on most; IsRemoteError reports whether
// the error was answered by a remote handler (as opposed to a local
// transport failure where the request may never have been delivered).
var (
	ClassOf       = xerr.ClassOf
	IsNotFound    = xerr.IsNotFound
	IsUnavailable = xerr.IsUnavailable
	IsRemoteError = xerr.IsRemote
)

// Connect discovers a service's databases and returns a client handle —
// the analog of hepnos::DataStore::connect("config.json").
var Connect = core.Connect

// LoadClientConfig builds a ClientConfig from a client-side JSON document
// (see ClientProcessConfig): it reads the config, loads the group file it
// points at, and materializes the resilience policy and async pool sizing.
// Together with Connect this is the full connect("config.json") flow.
func LoadClientConfig(path string) (ClientConfig, error) {
	cpc, err := bedrock.ReadClientConfig(path)
	if err != nil {
		return ClientConfig{}, err
	}
	return ClientConfigFrom(cpc)
}

// ClientConfigFrom materializes a parsed ClientProcessConfig, loading the
// group file it references.
func ClientConfigFrom(cpc ClientProcessConfig) (ClientConfig, error) {
	group, err := bedrock.ReadGroupFile(cpc.GroupFile)
	if err != nil {
		return ClientConfig{}, err
	}
	cfg := ClientConfig{
		Group:         group,
		Address:       fabric.Address(cpc.Address),
		EagerLimit:    cpc.EagerLimit,
		Placement:     Placement(cpc.Placement),
		Resilience:    cpc.Resilience.Policy(),
		Async:         cpc.Async,
		Tracer:        cpc.Obs.NewTracer(),
		MinGroupEpoch: cpc.MinGroupEpoch,
		Tenant:        cpc.Tenant,
	}
	if hc := cpc.Health; hc != nil {
		cfg.DisableHeartbeat = hc.Disabled
		cfg.HeartbeatInterval = time.Duration(hc.ProbeIntervalMS) * time.Millisecond
		cfg.Health = HealthThresholds{SuspectAfter: hc.SuspectAfter, DeadAfter: hc.DeadAfter}
	}
	return cfg, nil
}

// SelectorFor builds a ProductSelector from a label and an example value.
var SelectorFor = core.SelectorFor

// Columnar products and pushdown scans (DESIGN.md §17): a slice-of-struct
// product type registered with RegisterColumnar is stored as column pages,
// and DataSet.Scan evaluates a Predicate server-side, returning only the
// requested columns of the surviving rows:
//
//	hepnos.RegisterColumnar([]RecoSlice{})
//	pred := hepnos.And(hepnos.GE("CVNe", 0.5), hepnos.LT("CalE", 4))
//	cur := dset.Scan(ctx, "reco", []RecoSlice{}, pred, "CVNe", "CalE")
//	for cur.Next() {
//		var rows []RecoSlice
//		_ = cur.Rows(&rows) // only CVNe/CalE populated; view is borrowed
//	}
type (
	// Predicate is a server-evaluated row filter over numeric columns.
	// The zero value selects every row.
	Predicate = serde.Predicate
	// ColumnSchema describes a registered columnar product type.
	ColumnSchema = serde.ColumnSchema
	// ScanCursor streams a pushdown scan's surviving event groups.
	ScanCursor = core.ScanCursor
	// ScanStats accounts one cursor's traffic (rows, pages, wire bytes).
	ScanStats = core.ScanStats
	// ProductDBCount is one product database's keys-only census entry.
	ProductDBCount = core.ProductDBCount
)

// Predicate builders. Comparisons name a struct field and a constant;
// F32 widens a float32 constant exactly for comparisons against float32
// columns. And/Or compose.
var (
	LT  = serde.LT
	LE  = serde.LE
	GT  = serde.GT
	GE  = serde.GE
	EQ  = serde.EQ
	NE  = serde.NE
	And = serde.And
	Or  = serde.Or
	F32 = serde.F32
)

// RegisterColumnar opts a slice-of-struct product type into columnar page
// storage; ColumnSchemaOf derives a schema without registering.
var (
	RegisterColumnar = serde.RegisterColumnar
	ColumnSchemaOf   = serde.ColumnSchemaOf
)

// Replication and failover types (surviving server death): with a
// replication factor ≥ 2 — set at deployment via DeploySpec.RF or per
// client via ClientConfig.RF — every key is written to copies on distinct
// servers, reads route around unhealthy primaries via the client's health
// tracker (DataStore.Health), and DataStore.ResyncServer replays missed
// writes onto a restarted server from the surviving replicas.
type (
	// ResyncStats reports an anti-entropy pass, per role (the key-walk
	// stats every copy-shaped pass shares: Scanned and Copied).
	ResyncStats = core.CopyStats
	// HealthTracker is the client's per-server liveness state machine.
	HealthTracker = health.Tracker
	// HealthState is one liveness state (alive/suspect/dead/rejoined).
	HealthState = health.State
	// HealthStatus is one server's externally visible health.
	HealthStatus = health.TargetStatus
	// HealthThresholds tunes the failure detector (ClientConfig.Health).
	HealthThresholds = health.Config
	// HealthReport is the admin health RPC's response (ScrapeHealth).
	HealthReport = bedrock.HealthReport
)

// Liveness states of the health state machine.
const (
	HealthAlive    = health.Alive
	HealthSuspect  = health.Suspect
	HealthDead     = health.Dead
	HealthRejoined = health.Rejoined
)

// ScrapeHealth fetches a server's membership epoch and, when a health view
// is attached, its liveness snapshot — the operator's failover dashboard.
var ScrapeHealth = bedrock.ScrapeHealth

// Deploy boots a full service in this process (servers as goroutines).
var Deploy = bedrock.Deploy

// BootFile boots one server process from a Bedrock JSON file.
var BootFile = bedrock.BootFile

// ReadGroupFile and WriteGroupFile exchange service descriptors with disk.
var (
	ReadGroupFile  = bedrock.ReadGroupFile
	WriteGroupFile = bedrock.WriteGroupFile
)

// NewWorld creates an in-process MPI-like world for parallel applications.
var NewWorld = mpi.NewWorld
