package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/nova"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale shrinks the datasets for the self-tests; below 1 the "the LSM
	// really worked" guards are off, since a tiny dataset cannot meet them.
	scale   float64
	clients int
	tmp     string // this process's scratch directory
	outDir  string

	// setupRec records the spans of setup in a traced run.
	setupRec *recorder
}

// How a run divides --seconds. Untraced, a workload's passes get
// bulkShare and the point loop the rest (point-mixed gives it all to the
// point loop). Traced, the primary phase (the passes; on point-mixed the
// point loop) runs for tracedPrimaryShare in short windows, untraced and
// traced in turn; the other workloads then run a traced point loop for
// tracedPointShare; the ladder probes share ladderShare.
const (
	setupRepeats       = 3
	bulkShare          = 0.75
	tracedPrimaryShare = 0.4
	tracedPointShare   = 0.1
	ladderShare        = 0.4
	// tracePairs is how many pairs of an untraced and a traced window the
	// primary share is cut into. A workload whose pass outlasts a window
	// (an ingest round) gets fewer pairs, never fewer than two.
	tracePairs = 8
)

// report is everything one run measured; the last stdout line carries only
// the part BENCHMARK.json names.
type report struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Env       envRecord         `json:"env"`
	Unit      string            `json:"unit"`
	InputHash string            `json:"input_hash"`
	Columnar  bool              `json:"columnar_registered"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]value  `json:"metrics"`
	Extra     map[string]value  `json:"extra,omitempty"`
	Spans     []spanStat        `json:"spans,omitempty"`
	Ladder    []ladderShareLine `json:"ladder,omitempty"`
}

func (r *report) set(name, unit string, v float64, n int) {
	r.Metrics[name] = value{Value: v, Unit: unit, N: n}
}

// phases is the measured part of a run, in either mode.
type phases struct {
	bulk  bulkStats
	point pointStats
	// pcount is the scrape delta around the point loop, plast the reading
	// after it.
	pcount, plast counters
}

// merge appends a later stretch of the same phases.
func (a *phases) merge(b phases) {
	a.bulk.merge(b.bulk)
	a.point.loadUs = append(a.point.loadUs, b.point.loadUs...)
	a.point.storeUs = append(a.point.storeUs, b.point.storeUs...)
	a.point.blockMs = append(a.point.blockMs, b.point.blockMs...)
	a.point.ivals = append(a.point.ivals, b.point.ivals...)
	a.point.use.add(b.point.use)
	a.pcount = a.pcount.plus(b.pcount)
	if b.plast != nil {
		a.plast = b.plast
	}
}

func runWorkload(ctx context.Context, cfg *runConfig) (*report, error) {
	fl := &failures{}
	w, err := newWorkload(cfg, fl)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: cfg.workload, Trace: cfg.trace, Env: environment(cfg), Unit: w.unit(),
		Metrics: map[string]value{}, Extra: map[string]value{}}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		cfg.setupRec = rec
	}

	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	defer w.teardown()
	var setups []float64
	for i := 0; i < repeats; i++ {
		w.teardown()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.InputHash = fmt.Sprintf("%016x", w.inputHash())

	isPoint := cfg.workload == "point-mixed"
	total := time.Duration(cfg.seconds * float64(time.Second))
	share := func(f float64) time.Duration { return time.Duration(float64(total) * f) }
	run := func(bulkDur, pointDur time.Duration, rec *recorder, tag string) (phases, error) {
		var ph phases
		var err error
		if bulkDur > 0 {
			if ph.bulk, err = w.bulk(ctx, bulkDur, rec); err != nil {
				return ph, err
			}
		}
		if pointDur <= 0 {
			return ph, nil
		}
		svc, refs, err := w.target(ctx)
		if err != nil {
			return ph, err
		}
		before, err := svc.scrape(ctx)
		if err != nil {
			return ph, err
		}
		ph.point = pointLoop(ctx, svc, refs, cfg.seed, cfg.clients, pointDur, rec, fl, tag)
		after, err := svc.scrape(ctx)
		if err != nil {
			return ph, err
		}
		ph.pcount, ph.plast = after.minus(before), after
		return ph, nil
	}

	// Warm-up: one pass and a short point loop, so connections, pools and
	// the heap are in their steady state before anything is timed.
	if _, err := run(1, share(0.01), nil, "warm"); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	if !cfg.trace {
		bulkDur, pointDur := share(bulkShare), share(1-bulkShare)
		if isPoint {
			bulkDur, pointDur = 0, total
		}
		ph, err := run(bulkDur, pointDur, nil, "p")
		if err != nil {
			return nil, err
		}
		rep.set("setup_s", "s", median(setups), len(setups))
		endToEndMetrics(rep, isPoint, ph)
		guards(cfg, fl, isPoint, ph)
	} else {
		// Untraced and traced windows in turn, so that whatever the machine
		// and the growing deployment do over the seconds lands on both
		// alike; every other pair runs the traced window first. The tracing
		// overhead is the median over pairs of untraced over traced
		// throughput.
		units := unitsOf(w.unit())
		budget := share(tracedPrimaryShare)
		window := budget / (2 * tracePairs)
		var plain, traced phases
		var overhead []float64
		for start := time.Now(); len(overhead) < 2 || time.Since(start) < budget; {
			var off, on float64 // units per second with the recorder off and on
			for k := 0; k < 2; k++ {
				tracing := (k == 1) != (len(overhead)%2 == 1)
				acc, r, tag := &plain, (*recorder)(nil), fmt.Sprintf("u%d", len(overhead))
				if tracing {
					acc, r, tag = &traced, rec, fmt.Sprintf("t%d", len(overhead))
				}
				bulkDur, pointDur := window, time.Duration(0)
				if isPoint {
					bulkDur, pointDur = 0, window
				}
				ph, err := run(bulkDur, pointDur, r, tag)
				if err != nil {
					return nil, err
				}
				t := sum(primary(isPoint, ph))
				if tracing {
					on = ratio(units(t), t.wall.Seconds())
				} else {
					off = ratio(units(t), t.wall.Seconds())
				}
				acc.merge(ph)
			}
			overhead = append(overhead, ratio(off, on))
		}
		if !isPoint {
			ph, err := run(0, share(tracedPointShare), rec, "t")
			if err != nil {
				return nil, err
			}
			traced.merge(ph)
		}
		perLayerCounts(rep, isPoint, plain, traced)
		rep.set("bench.trace_overhead_x", "ratio", median(overhead), len(overhead))
		guards(cfg, fl, isPoint, traced)
	}
	// Recorded before the ladder, which registers the type for its own
	// columnar rungs: this is what the workload ran with.
	rep.Columnar = serde.ColumnarOf([]nova.Slice{}) != nil

	if err := w.finish(ctx); err != nil {
		return nil, fmt.Errorf("end-of-run oracle: %w", err)
	}
	if cfg.trace {
		w.teardown()
		if err := runLadder(ctx, cfg, share(ladderShare), rec, rep); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		rep.Spans = selfTimes(rec.spans)
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := rec.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); err != nil {
			return nil, err
		}
	}
	rep.Attempted, rep.Failed, rep.Failures = fl.attempted, fl.failed, fl.first
	return rep, nil
}

// unitsOf picks what cpu_us_per_unit and the per-unit counts divide by,
// from the workload's unit: event, slice or op.
func unitsOf(unit string) func(interval) float64 {
	switch unit {
	case "event":
		return func(iv interval) float64 { return float64(iv.events) }
	case "op":
		return func(iv interval) float64 { return float64(iv.ops) }
	}
	return func(iv interval) float64 { return float64(iv.slices) }
}

// primary returns the intervals of the phase the units come from.
func primary(isPoint bool, ph phases) []interval {
	if isPoint {
		return ph.point.ivals
	}
	return ph.bulk.ivals
}

func endToEndMetrics(rep *report, isPoint bool, ph phases) {
	bulk, passMs := ph.bulk.ivals, ph.bulk.passMs
	if isPoint {
		// The point loop is the bulk phase: every op touches one event,
		// and a pass is one block of pointBlockOps ops of one client.
		bulk, passMs = ph.point.ivals, ph.point.blockMs
	}
	per := func(f func(interval) float64) func(interval) float64 {
		return func(iv interval) float64 { return ratio(f(iv), iv.wall.Seconds()) }
	}
	units := unitsOf(rep.Unit)
	b, p := sum(bulk), sum(ph.point.ivals)
	passes := newDist(passMs)
	// The tails are taken first: newDist sorts the samples in place.
	loadTail, storeTail := chunkedTail(ph.point.loadUs, 99), chunkedTail(ph.point.storeUs, 99)
	loads, stores := newDist(ph.point.loadUs), newDist(ph.point.storeUs)
	rep.set("events_per_s", "1/s", medianOf(bulk, per(func(iv interval) float64 { return float64(iv.events) })), int(b.events))
	rep.set("slices_per_s", "1/s", medianOf(bulk, per(func(iv interval) float64 { return float64(iv.slices) })), int(b.slices))
	rep.set("pass_p50_ms", "ms", passes.p(50), len(passes))
	rep.set("pass_p90_ms", "ms", passes.p(90), len(passes))
	rep.set("ops_per_s", "1/s", medianOf(ph.point.ivals, per(func(iv interval) float64 { return float64(iv.ops) })), int(p.ops))
	rep.set("load_p50_us", "us", loads.p(50), len(loads))
	rep.set("load_p99_us", "us", loadTail, len(loads))
	rep.set("store_p50_us", "us", stores.p(50), len(stores))
	rep.set("store_p99_us", "us", storeTail, len(stores))
	rep.set("cpu_us_per_unit", "us", medianOf(bulk, func(iv interval) float64 {
		return ratio(float64(iv.cpu.Microseconds()), units(iv))
	}), int(units(b)))
	rep.Extra["intervals"] = value{Value: float64(len(bulk)), Unit: "count"}
	// A percentile the sample cannot support is still printed (the driver
	// wants every metric) but flagged, so nobody quotes it.
	for name, pct := range map[string]float64{"pass_p90_ms": 90, "load_p99_us": 99, "store_p99_us": 99} {
		if n := rep.Metrics[name].N; highestPercentile(n) < pct {
			rep.Extra[name+".unsupported"] = value{Value: float64(n), Unit: "samples"}
		}
	}
}

// guards are the "the LSM really worked" checks: each counts as one
// attempted operation and fails the run when the workload did not stress
// what it exists to stress.
func guards(cfg *runConfig, fl *failures, isPoint bool, ph phases) {
	if cfg.scale < 1 {
		return
	}
	hitRatio := func(c counters) float64 {
		h, m := c["server:"+obs.MetricLSMCacheHits], c["server:"+obs.MetricLSMCacheMisses]
		return ratio(h, h+m)
	}
	switch cfg.workload {
	case "point-mixed":
		fl.attempt(1)
		if r := hitRatio(ph.pcount); r <= 0.1 || r >= 0.9 {
			fl.fail("block cache hit ratio %.3f outside (0.1, 0.9): the hot set should fit and the tail miss", r)
		}
		fl.attempt(1)
		if shed := ph.pcount["server:"+obs.MetricQoSShed]; shed != 0 {
			fl.fail("the qos gate shed %v requests of a two-client closed loop", shed)
		}
	case "scan-lsm":
		// A sweep rereads its blocks in order, and a block holds 16 pages,
		// so 15 of 16 lookups hit however small the cache: the hit ratio
		// says nothing here. What shows that the sweep does not fit is
		// that blocks were evicted or refused admission.
		fl.attempt(1)
		c := ph.bulk.counts
		if n := c["server:"+obs.MetricLSMCacheEvictions] + c["server:"+obs.MetricLSMCacheRejects]; n == 0 {
			fl.fail("the block cache evicted and rejected nothing: the sweep fits in it")
		}
	}
	if !isPoint {
		fl.attempt(1)
		c := ph.bulk.counts
		if n := c["client:"+obs.MetricFailoverReads] + c["client:"+obs.MetricPrefetchDegrade]; n != 0 {
			fl.fail("%v reads failed over or degraded with every server up", n)
		}
	}
}
