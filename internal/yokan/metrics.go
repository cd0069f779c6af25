package yokan

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/obs"
)

// Per-database, per-operation server-side aggregates: how many operations
// each database served and how much execution time they took — the
// service-time view that, against the client's round-trip breadcrumbs,
// separates server work from network and queueing. The buckets are
// pre-built at provider construction (databases and operations are both
// fixed sets), so the hot path is two atomic adds with no locking.
type opAgg struct {
	ops   atomic.Int64
	errs  atomic.Int64
	nanos atomic.Int64
}

// trackedOps are the database-scoped operations that get an aggregate
// bucket; administrative RPCs (db_list, bulk_free) are not per-database
// and are visible through the fabric breadcrumbs instead.
var trackedOps = []string{
	"put", "put_new", "put_multi", "get", "get_multi",
	"exists", "erase", "list_keys", "scan",
}

func newOpAggs(dbs []string) map[string]map[string]*opAgg {
	m := make(map[string]map[string]*opAgg, len(dbs))
	for _, db := range dbs {
		ops := make(map[string]*opAgg, len(trackedOps))
		for _, op := range trackedOps {
			ops[op] = &opAgg{}
		}
		m[db] = ops
	}
	return m
}

// track opens the operation's execution window: an internal child span
// (parented by whatever the fabric/margo layers put in ctx) plus the
// per-database aggregate. The returned func finishes both. db must be a
// served database name.
func (p *Provider) track(ctx context.Context, db, op string) func(error) {
	sp := p.mi.Tracer().Start("yokan:"+op, obs.KindInternal, obs.SpanFromContext(ctx), "")
	start := time.Now()
	return func(err error) {
		sp.End(err)
		if ops := p.opAggs[db]; ops != nil {
			if a := ops[op]; a != nil {
				a.ops.Add(1)
				a.nanos.Add(time.Since(start).Nanoseconds())
				if err != nil {
					a.errs.Add(1)
				}
			}
		}
	}
}

// RegisterMetrics exposes the provider's per-database operation counts,
// service-time aggregates and key counts in reg. Several providers in
// one process register the same families; their samples are disjoint by
// the provider label.
func (p *Provider) RegisterMetrics(reg *obs.Registry) {
	provider := strconv.Itoa(int(p.id))
	perOp := func(value func(*opAgg) float64) obs.Collector {
		return func() []obs.Sample {
			var out []obs.Sample
			for _, db := range p.Databases() {
				for _, op := range trackedOps {
					a := p.opAggs[db][op]
					if a.ops.Load() == 0 {
						continue
					}
					out = append(out, obs.OneSample(value(a),
						"provider", provider, "db", db, "op", op))
				}
			}
			return out
		}
	}
	reg.MustRegister(obs.MetricYokanOps,
		"Operations served, by provider, database and operation.",
		obs.TypeCounter, perOp(func(a *opAgg) float64 { return float64(a.ops.Load()) }))
	reg.MustRegister(obs.MetricYokanOpSeconds,
		"Cumulative server-side execution time, by provider, database and operation.",
		obs.TypeCounter, perOp(func(a *opAgg) float64 {
			return time.Duration(a.nanos.Load()).Seconds()
		}))
	reg.MustRegister("hepnos_yokan_op_errors_total",
		"Failed operations, by provider, database and operation.",
		obs.TypeCounter, perOp(func(a *opAgg) float64 { return float64(a.errs.Load()) }))
	reg.MustRegister("hepnos_yokan_db_keys",
		"Live keys per database.", obs.TypeGauge, func() []obs.Sample {
			var out []obs.Sample
			for _, db := range p.Databases() {
				n, err := p.dbs[db].Count()
				if err != nil {
					continue
				}
				out = append(out, obs.OneSample(float64(n), "provider", provider, "db", db))
			}
			return out
		})

	// Pushdown-scan families: how much page data the provider examined,
	// how many rows survived predicates, and the wire bytes the columnar
	// path saved versus shipping the row-oriented encodings.
	scanCounter := func(v *atomic.Int64) obs.Collector {
		return func() []obs.Sample {
			return []obs.Sample{obs.OneSample(float64(v.Load()), "provider", provider)}
		}
	}
	reg.MustRegister(obs.MetricScanPages,
		"Columnar pages examined by pushdown scans, by provider.",
		obs.TypeCounter, scanCounter(&p.scanPagesTotal))
	reg.MustRegister(obs.MetricScanRowsScanned,
		"Rows examined by pushdown scans, by provider.",
		obs.TypeCounter, scanCounter(&p.scanRowsScanned))
	reg.MustRegister(obs.MetricScanRowsMatched,
		"Rows surviving pushdown-scan predicates, by provider.",
		obs.TypeCounter, scanCounter(&p.scanRowsMatched))
	reg.MustRegister(obs.MetricScanBytesReturned,
		"Bytes returned by pushdown scans (filtered columns + event ids), by provider.",
		obs.TypeCounter, scanCounter(&p.scanBytesReturned))
	reg.MustRegister(obs.MetricScanBytesSaved,
		"Wire bytes saved by pushdown scans versus full row-path decode, by provider.",
		obs.TypeCounter, scanCounter(&p.scanBytesSaved))

	// Storage-tier families, present only when this provider serves LSM
	// databases: background flush/compaction activity, table counts, and
	// WAL append/fsync totals (group commit shows up as syncs << appends).
	var lsmNames []string
	for _, db := range p.Databases() {
		if _, ok := p.dbs[db].(*lsmDB); ok {
			lsmNames = append(lsmNames, db)
		}
	}
	if len(lsmNames) == 0 {
		return
	}
	perLSM := func(value func(*lsmDB) float64) obs.Collector {
		return func() []obs.Sample {
			var out []obs.Sample
			for _, db := range lsmNames {
				l := p.dbs[db].(*lsmDB)
				out = append(out, obs.OneSample(value(l), "provider", provider, "db", db))
			}
			return out
		}
	}
	reg.MustRegister(obs.MetricLSMFlushes,
		"Memtable flushes completed, by provider and database.",
		obs.TypeCounter, perLSM(func(l *lsmDB) float64 {
			f, _ := l.Counters()
			return float64(f)
		}))
	reg.MustRegister(obs.MetricLSMCompactions,
		"Table merges completed, by provider and database.",
		obs.TypeCounter, perLSM(func(l *lsmDB) float64 {
			_, c := l.Counters()
			return float64(c)
		}))
	reg.MustRegister(obs.MetricLSMTables,
		"SSTables currently installed, by provider and database.",
		obs.TypeGauge, perLSM(func(l *lsmDB) float64 {
			return float64(l.TableCount())
		}))
	reg.MustRegister(obs.MetricLSMWALAppends,
		"WAL records appended, by provider and database.",
		obs.TypeCounter, perLSM(func(l *lsmDB) float64 {
			a, _ := l.WALStats()
			return float64(a)
		}))
	reg.MustRegister(obs.MetricLSMWALSyncs,
		"WAL fsyncs issued, by provider and database.",
		obs.TypeCounter, perLSM(func(l *lsmDB) float64 {
			_, s := l.WALStats()
			return float64(s)
		}))
	reg.MustRegister(obs.MetricLSMQuarantined,
		"Corrupt SSTables quarantined at the last open, by provider and database.",
		obs.TypeCounter, perLSM(func(l *lsmDB) float64 {
			return float64(l.RecoveryStats().Quarantined)
		}))
}
