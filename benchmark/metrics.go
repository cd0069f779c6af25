package main

import (
	"sort"
	"syscall"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/stats"
)

// metricDef names one metric of BENCHMARK.json. The self-test pins these
// tables to the file.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var workloadNames = []string{"ingest-lsm", "select-mem", "scan-lsm", "point-mixed"}

// endToEnd is what a user of the service sees. Every workload has a bulk
// phase (its passes) and a point phase (the point-mixed loop against its
// own deployment); README.md says which metric comes from which. A bound
// is per metric, not per workload, so the workload on which a metric
// scatters most sets it. Each bound is one and a half times the widest
// interquartile spread the metric showed in six sets of ten runs on this
// two-processor sandbox (README.md, "A/A"), rounded up to 5 % and capped
// at the 25 % the driver allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.20},
	{"slices_per_s", "1/s", "higher", 0.20},
	{"pass_p50_ms", "ms", "lower", 0.20},
	{"pass_p90_ms", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"load_p50_us", "us", "lower", 0.20},
	{"load_p99_us", "us", "lower", 0.25},
	{"store_p50_us", "us", "lower", 0.20},
	{"store_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_unit", "us", "lower", 0.25},
}

// value is one measured metric; N is the sample count behind a timing.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// candidatePercentiles are the percentiles the harness reports, in per
// mille so that "ten samples beyond" is exact integer arithmetic.
var candidatePercentiles = []int{500, 750, 900, 950, 990, 999}

// highestPercentile returns the highest candidate percentile that has at
// least ten samples beyond it, or 0 when even the median has not.
func highestPercentile(n int) float64 {
	best := 0
	for _, pm := range candidatePercentiles {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 10
}

// dist is a sorted latency sample.
type dist []float64

func newDist(xs []float64) dist {
	sort.Float64s(xs)
	return xs
}

func (d dist) p(pct float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return stats.PercentileSorted(d, pct)
}

// tailChunk is how many consecutive latency samples one tail estimate is
// taken from: twenty samples lie beyond the 99th percentile of a chunk.
const tailChunk = 2048

// chunkedTail is the median, over consecutive chunks of tailChunk samples
// in the order they were taken, of each chunk's pct-th percentile. A burst
// of host noise lands in a few chunks and moves their tails, not the
// median of the tails; the percentile of the whole run it would move a
// lot. A sample shorter than two chunks is one chunk. xs is left in place.
func chunkedTail(xs []float64, pct float64) float64 {
	if len(xs) < 2*tailChunk {
		return newDist(append([]float64(nil), xs...)).p(pct)
	}
	tails := make([]float64, 0, len(xs)/tailChunk)
	buf := make([]float64, tailChunk)
	for i := 0; i+tailChunk <= len(xs); i += tailChunk {
		copy(buf, xs[i:i+tailChunk])
		tails = append(tails, newDist(buf).p(pct))
	}
	return median(tails)
}

// median leaves xs in place; an empty sample has median 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 50)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
