package asyncengine

import (
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/stats"
)

// RegisterMetrics exposes the engine's per-pool counters in reg: the
// cumulative submitted/completed/failed/rejected streams plus the live
// queue depth and its high-water mark.
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	perPool := func(value func(name string) float64) obs.Collector {
		return func() []obs.Sample {
			out := make([]obs.Sample, 0, len(e.names))
			for _, name := range e.names {
				out = append(out, obs.OneSample(value(name), "pool", name))
			}
			return out
		}
	}
	snap := func(name string) stats.OpSnapshot { return e.pools[name].counters.Snapshot() }
	reg.MustRegister(obs.MetricAsyncSubmitted,
		"Operations accepted into each engine pool.", obs.TypeCounter,
		perPool(func(n string) float64 { return float64(snap(n).Submitted) }))
	reg.MustRegister(obs.MetricAsyncCompleted,
		"Operations finished by each engine pool.", obs.TypeCounter,
		perPool(func(n string) float64 { return float64(snap(n).Completed) }))
	reg.MustRegister(obs.MetricAsyncFailed,
		"Completed operations that returned an error, per pool.", obs.TypeCounter,
		perPool(func(n string) float64 { return float64(snap(n).Failed) }))
	reg.MustRegister(obs.MetricAsyncRejected,
		"Operations refused at submission, per pool.", obs.TypeCounter,
		perPool(func(n string) float64 { return float64(snap(n).Rejected) }))
	reg.MustRegister(obs.MetricAsyncDepth,
		"In-flight (queued or running) operations per pool.", obs.TypeGauge,
		perPool(func(n string) float64 { return float64(snap(n).Depth) }))
	reg.MustRegister(obs.MetricAsyncMaxDepth,
		"High-water mark of in-flight operations per pool.", obs.TypeGauge,
		perPool(func(n string) float64 { return float64(snap(n).MaxDepth) }))
	reg.MustRegister(obs.MetricQoSThrottle,
		"Pool slots held back by server-push backpressure, per pool.", obs.TypeGauge,
		perPool(func(n string) float64 { return float64(e.PressureReserved(n)) }))
}
