package main

import (
	"strings"

	"github.com/hep-on-hpc/hepnos-go/internal/obs"
)

// perLayer is the per-layer half of BENCHMARK.json: the ladder rungs (see
// ladder.go) and, per workload, ratios of counters the layers already
// keep, read before and after the timed phases. Constant-by-construction
// counts (failover reads, sheds, WAL syncs with SyncWrites off) are
// guarded or reported as extras instead: no optimisation moves them.
var perLayer = []metricDef{
	{Name: "serde.marshal_ns_per_slice", Unit: "ns", Better: "lower"},
	{Name: "serde.unmarshal_ns_per_slice", Unit: "ns", Better: "lower"},
	{Name: "serde.unmarshal_borrow_ns_per_slice", Unit: "ns", Better: "lower"},
	{Name: "serde.columns_encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "serde.column_decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "serde.predicate_eval_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "serde.unmarshal_allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "keys.product_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.tcp_rtt_256B_us", Unit: "us", Better: "lower"},
	{Name: "fabric.tcp_rtt_64KiB_us", Unit: "us", Better: "lower"},
	{Name: "fabric.inproc_rtt_256B_us", Unit: "us", Better: "lower"},
	{Name: "fabric.tcp_allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "fabric.rpcs_per_unit", Unit: "count", Better: "lower"},
	{Name: "fabric.bytes_per_unit", Unit: "B", Better: "lower"},
	{Name: "argo.pool_handoff_us", Unit: "us", Better: "lower"},
	{Name: "asyncengine.run_wait_us", Unit: "us", Better: "lower"},
	{Name: "asyncengine.pool_max_depth", Unit: "count", Better: "lower"},
	{Name: "qos.gate_uncontended_ns", Unit: "ns", Better: "lower"},
	{Name: "qos.queued_us_per_op", Unit: "us", Better: "lower"},
	{Name: "margo.forward_null_us", Unit: "us", Better: "lower"},
	{Name: "margo.forward_null_qos_us", Unit: "us", Better: "lower"},
	{Name: "yokan.map.get_ns", Unit: "ns", Better: "lower"},
	{Name: "yokan.map.put_ns", Unit: "ns", Better: "lower"},
	{Name: "yokan.lsm.get_hit_us", Unit: "us", Better: "lower"},
	{Name: "yokan.lsm.get_miss_us", Unit: "us", Better: "lower"},
	{Name: "yokan.lsm.put_us", Unit: "us", Better: "lower"},
	{Name: "yokan.lsm.listkeys_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "yokan.lsm.reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "yokan.lsm.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "yokan.lsm.flushes", Unit: "count", Better: "lower"},
	{Name: "yokan.lsm.compactions", Unit: "count", Better: "lower"},
	{Name: "yokan.lsm.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "yokan.rpc.get_us", Unit: "us", Better: "lower"},
	{Name: "yokan.rpc.put_us", Unit: "us", Better: "lower"},
	{Name: "yokan.rpc.get_multi_us_per_key", Unit: "us", Better: "lower"},
	{Name: "yokan.rpc.put_multi_us_per_key", Unit: "us", Better: "lower"},
	{Name: "yokan.rpc.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "yokan.provider.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "core.store_us", Unit: "us", Better: "lower"},
	{Name: "core.load_us", Unit: "us", Better: "lower"},
	{Name: "core.load_columnar_us", Unit: "us", Better: "lower"},
	{Name: "core.writebatch_row_us_per_event", Unit: "us", Better: "lower"},
	{Name: "core.writebatch_columnar_us_per_event", Unit: "us", Better: "lower"},
	{Name: "core.prefetch_us_per_event", Unit: "us", Better: "lower"},
	{Name: "core.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "dataloader.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "nova.select_ns_per_slice", Unit: "ns", Better: "lower"},
	{Name: "filebased.slices_per_s", Unit: "1/s", Better: "higher"},
	{Name: "proc.allocs_per_unit", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_unit", Unit: "B", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.trace_overhead_x", Unit: "ratio", Better: "lower"},
}

// perLayerCounts fills in the per-workload counts of a traced run: the
// untraced and the traced windows together for the counter ratios, the
// untraced ones alone for the allocation figures.
func perLayerCounts(rep *report, isPoint bool, plain, traced phases) {
	pick := func(ph phases) (delta, last counters, use usage) {
		if isPoint {
			return ph.pcount, ph.plast, ph.point.use
		}
		return ph.bulk.counts, ph.bulk.last, ph.bulk.use
	}
	d1, _, heap := pick(plain)
	d2, last, fabric := pick(traced)
	d := d1.plus(d2)
	fabric.add(heap)
	units := unitsOf(rep.Unit)
	tp, tt := sum(primary(isPoint, plain)), sum(primary(isPoint, traced))
	n, np := units(tp)+units(tt), units(tp)
	wall := (tp.wall + tt.wall).Seconds()
	srv := func(family string) float64 { return d["server:"+family] }

	rep.set("fabric.rpcs_per_unit", "count", ratio(float64(fabric.rpcs), n), int(n))
	rep.set("fabric.bytes_per_unit", "B", ratio(float64(fabric.bytes), n), int(n))
	depth := 0.0
	for k, v := range last {
		if strings.HasPrefix(k, "client:"+obs.MetricAsyncMaxDepth+"{") && v > depth {
			depth = v
		}
	}
	rep.set("asyncengine.pool_max_depth", "count", depth, 0)
	admitted, shed := srv(obs.MetricQoSAdmitted), srv(obs.MetricQoSShed)
	rep.set("qos.queued_us_per_op", "us", ratio(srv(obs.MetricQoSQueuedNs)/1e3, admitted), int(admitted))
	rep.Extra["qos.shed_share"] = value{Value: ratio(shed, admitted+shed), Unit: "ratio", N: int(admitted + shed)}
	hits, misses := srv(obs.MetricLSMCacheHits), srv(obs.MetricLSMCacheMisses)
	rep.set("yokan.lsm.cache_hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses))
	rep.set("yokan.lsm.flushes", "count", srv(obs.MetricLSMFlushes), 0)
	rep.set("yokan.lsm.compactions", "count", srv(obs.MetricLSMCompactions), 0)
	rep.Extra["yokan.lsm.wal_syncs_per_append"] = value{
		Value: ratio(srv(obs.MetricLSMWALSyncs), srv(obs.MetricLSMWALAppends)), Unit: "ratio", N: int(srv(obs.MetricLSMWALAppends))}
	rep.set("yokan.lsm.disk_bytes_per_user_byte", "ratio", ratio(last["disk:bytes"], last["user:bytes"]), 0)
	rep.set("yokan.provider.busy_share", "ratio", ratio(srv(obs.MetricYokanOpSeconds), wall), int(srv(obs.MetricYokanOps)))
	rep.Extra["core.failover_reads"] = value{Value: d["client:"+obs.MetricFailoverReads], Unit: "count"}
	rep.Extra["core.prefetch_degraded"] = value{Value: d["client:"+obs.MetricPrefetchDegrade], Unit: "count"}

	rep.set("proc.allocs_per_unit", "count", ratio(float64(heap.mallocs), np), int(np))
	rep.set("proc.alloc_bytes_per_unit", "B", ratio(float64(heap.heapBytes), np), int(np))
	rep.set("proc.gc_pause_ms", "ms", float64(heap.pauseNs)/1e6, int(heap.gcs))
	rep.set("proc.peak_rss_mb", "MB", peakRSSMB(), 0)
}
