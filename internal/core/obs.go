package core

import (
	"sync/atomic"

	"github.com/hep-on-hpc/hepnos-go/internal/obs"
)

// Registry returns the client's metrics registry: fabric breadcrumbs,
// resilience activity, async pool counters and the core-layer counters,
// all collected on demand. Never nil after Connect.
func (ds *DataStore) Registry() *obs.Registry { return ds.registry }

// Tracer returns the client's span tracer (nil when tracing is off).
func (ds *DataStore) Tracer() *obs.Tracer { return ds.tracer }

// registerCoreMetrics wires the datastore's own cumulative counters into
// the client registry.
func (ds *DataStore) registerCoreMetrics() {
	counter := func(name, help string, ctr *atomic.Int64) {
		ds.registry.MustRegister(name, help, obs.TypeCounter, func() []obs.Sample {
			return obs.GaugeSample(float64(ctr.Load()))
		})
	}
	counter(obs.MetricPEPEvents,
		"Events processed by this rank's ParallelEventProcessor workers.", &ds.pepEvents)
	counter(obs.MetricPEPBatches,
		"Work batches processed by this rank's ParallelEventProcessor workers.", &ds.pepBatches)
	counter(obs.MetricPrefetchLoads,
		"Product loads requested by the Prefetcher.", &ds.prefetchLoads)
	counter(obs.MetricPrefetchDegrade,
		"Prefetch product loads degraded to on-demand RPCs by failed groups.", &ds.prefetchDegraded)
	counter(obs.MetricFailoverReads,
		"Reads served by a replica because the placement primary was unhealthy.", &ds.failoverReads)
	counter(obs.MetricReplicaWrites,
		"Extra copies written beyond the first for replicated keys.", &ds.replicaWrites)
	counter(obs.MetricReplicaDrops,
		"Replica copies dropped because their server was down (replayed by resync).", &ds.replicaDrops)
	counter(obs.MetricResyncReplayed,
		"Keys replayed onto rejoined servers by the anti-entropy pass.", &ds.resyncReplayed)
	counter(obs.MetricRebalanceCopied,
		"Key copies written to migration target databases by live rebalancing.", &ds.migrationCopied)
	counter(obs.MetricRebalanceRepaired,
		"Missing target copies healed by the migration verify pass.", &ds.migrationRepaired)
	counter(obs.MetricRebalanceErased,
		"Stale keys erased from outgoing databases by migration retire.", &ds.migrationErased)
	ds.registry.MustRegister(obs.MetricRebalanceEpoch,
		"Membership epoch of this client's committed view.",
		obs.TypeGauge, func() []obs.Sample {
			return obs.GaugeSample(float64(ds.GroupEpoch()))
		})
	// Client-side pushdown-scan accounting; the server-side counterparts
	// (same family names, provider label) live in the yokan providers.
	counter(obs.MetricScans,
		"Pushdown scan RPCs issued by this client.", &ds.scanRequests)
	counter(obs.MetricScanPages,
		"Columnar pages examined by this client's pushdown scans.", &ds.scanPagesScanned)
	counter(obs.MetricScanRowsScanned,
		"Rows examined by this client's pushdown scans.", &ds.scanRowsScanned)
	counter(obs.MetricScanRowsMatched,
		"Rows surviving this client's pushdown-scan predicates.", &ds.scanRowsMatched)
	counter(obs.MetricScanBytesReturned,
		"Bytes returned to this client by pushdown scans.", &ds.scanBytesReturned)
	counter(obs.MetricScanBytesSaved,
		"Wire bytes pushdown scans saved this client versus full row-path decode.", &ds.scanBytesSaved)
}
