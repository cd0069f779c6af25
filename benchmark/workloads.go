package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/core"
	"github.com/hep-on-hpc/hepnos-go/internal/dataloader"
	"github.com/hep-on-hpc/hepnos-go/internal/filebased"
	"github.com/hep-on-hpc/hepnos-go/internal/nova"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/stats"
	"github.com/hep-on-hpc/hepnos-go/internal/workflow"
)

// Full-scale dataset sizes, in events (≈4.1 slices each). README.md says
// how they were picked against the 1 MiB memtable and 1 MiB block cache.
const (
	ingestEvents = 172800 // per round: ≈58 MB stored, ≈7 MB per product DB
	selectEvents = 18000  // ≈74 k slices per pass
	scanEvents   = 240000 // ≈980 k columnar rows
	pointEvents  = 85000  // ≈27 MB per server with RF=2
	probeEvents  = 4096   // events the point phase of ingest-lsm looks up
)

// interval is one stretch of measured work: a pass, an ingest round, or a
// window of the point loop. Rates are reported as medians over intervals,
// so a burst of interference on the machine costs a few intervals and
// not the run.
type interval struct {
	events, slices, ops int64
	wall, cpu           time.Duration
}

// sum adds intervals up.
func sum(ivals []interval) (t interval) {
	for _, iv := range ivals {
		t.events += iv.events
		t.slices += iv.slices
		t.ops += iv.ops
		t.wall += iv.wall
		t.cpu += iv.cpu
	}
	return t
}

// medianOf is the median over intervals of f.
func medianOf(ivals []interval, f func(interval) float64) float64 {
	xs := make([]float64, len(ivals))
	for i, iv := range ivals {
		xs[i] = f(iv)
	}
	return median(xs)
}

// bulkStats is what the timed passes of a workload measured.
type bulkStats struct {
	ivals  []interval // one per pass (select-mem, scan-lsm) or round (ingest-lsm)
	passMs []float64  // one per pass; a pass of ingest-lsm is one file
	// counts is the scrape delta over the passes, last the reading after
	// them (what gauges are read from). ingest-lsm sums the deltas of its
	// rounds, each on a fresh deployment, and keeps the last round's reading.
	counts, last counters
	use          usage
}

func (a *bulkStats) merge(b bulkStats) {
	a.ivals = append(a.ivals, b.ivals...)
	a.passMs = append(a.passMs, b.passMs...)
	a.counts = a.counts.plus(b.counts)
	a.use.add(b.use)
	if b.last != nil {
		a.last = b.last
	}
}

// workload is one of the four benchmark workloads.
type workload interface {
	// setup generates the inputs from the seed, deploys, preloads and
	// computes the oracle. The harness times it as setup_s.
	setup(ctx context.Context) error
	// bulk runs timed passes for about dur.
	bulk(ctx context.Context, dur time.Duration, rec *recorder) (bulkStats, error)
	// target is the deployment and the events the point phase runs on.
	target(ctx context.Context) (*service, []eventRef, error)
	// finish runs the oracles that need the whole run behind them.
	finish(ctx context.Context) error
	teardown()
	// inputHash identifies the generated input; unit names what
	// cpu_us_per_unit divides by.
	inputHash() uint64
	unit() string
}

func newWorkload(cfg *runConfig, fl *failures) (workload, error) {
	base := base{cfg: cfg, fl: fl}
	switch cfg.workload {
	case "ingest-lsm":
		return &ingestLSM{base: base}, nil
	case "select-mem":
		return &selectMem{base: base}, nil
	case "scan-lsm":
		return &scanLSM{base: base}, nil
	case "point-mixed":
		return &pointMixed{base: base}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// base holds what every workload has: its configuration, its sample, and
// (for all but ingest-lsm, which redeploys every round) one deployment.
type base struct {
	cfg  *runConfig
	fl   *failures
	smp  *sample
	svc  *service
	refs []eventRef
}

func (b *base) inputHash() uint64 { return b.smp.hash }

func (b *base) target(context.Context) (*service, []eventRef, error) { return b.svc, b.refs, nil }

func (b *base) finish(context.Context) error { return nil }

func (b *base) teardown() {
	if b.svc != nil {
		b.svc.stop()
		if b.svc.dir != "" {
			os.RemoveAll(b.svc.dir)
		}
		b.svc = nil
	}
}

// scaled sizes a dataset by -scale, never below a handful of events.
func (b *base) scaled(events int) int {
	n := int(float64(events) * b.cfg.scale)
	if n < 64 {
		n = 64
	}
	return n
}

// deploy generates the sample and stands up the workload's deployment
// with the sample preloaded.
func (b *base) deploy(ctx context.Context, params nova.GenParams, events int, sh shape) error {
	var err error
	if b.smp, err = buildSample(params, b.scaled(events)); err != nil {
		return err
	}
	if sh.backend == "lsm" {
		if sh.dir, err = os.MkdirTemp(b.cfg.tmp, "lsm-*"); err != nil {
			return err
		}
	}
	if b.svc, err = startService(ctx, sh); err != nil {
		return err
	}
	if _, b.refs, err = preload(ctx, b.svc.ds, b.smp, datasetPath, nil); err != nil {
		return err
	}
	b.svc.userBytes = b.smp.userBytes * int64(sh.rf)
	return b.svc.quiesce(ctx)
}

// passes repeats pass (at least once) until dur has elapsed, timing each
// and taking the scrape delta around the lot.
func (b *base) passes(ctx context.Context, dur time.Duration, pass func() (events, slices int64)) (bulkStats, error) {
	var st bulkStats
	before, err := b.svc.scrape(ctx)
	if err != nil {
		return st, err
	}
	runtime.GC()
	stop := b.svc.meter()
	for start := time.Now(); ; {
		cpu0, t0 := cpuTime(), time.Now()
		events, slices := pass()
		d := time.Since(t0)
		st.ivals = append(st.ivals, interval{events: events, slices: slices, wall: d, cpu: cpuTime() - cpu0})
		st.passMs = append(st.passMs, float64(d)/1e6)
		if time.Since(start) >= dur {
			break
		}
	}
	st.use = stop()
	after, err := b.svc.scrape(ctx)
	if err != nil {
		return st, err
	}
	st.counts, st.last = after.minus(before), after
	return st, nil
}

// ---------------------------------------------------------------------------
// ingest-lsm
// ---------------------------------------------------------------------------

type ingestLSM struct {
	base
	filesDir string
	paths    []string
	binding  *dataloader.Binding
	stored   int // events the files hold: an event without slices has no rows
	dataset  *core.DataSet
}

func (w *ingestLSM) unit() string { return "event" }

func (w *ingestLSM) setup(ctx context.Context) error {
	var err error
	// Near-uniform files: a per-file ingest time should show the service,
	// not the file-size lottery. The heavy tail matters to the file-based
	// baseline's load balance, which select-mem keeps.
	params := nova.GenParams{Seed: w.cfg.seed, MeanEventsPerFile: 2160, EventSpreadSigma: 0.1}
	if w.smp, err = buildSample(params, w.scaled(ingestEvents)); err != nil {
		return err
	}
	if w.filesDir, err = os.MkdirTemp(w.cfg.tmp, "files-*"); err != nil {
		return err
	}
	if w.paths, err = w.smp.writeFiles(w.filesDir); err != nil {
		return err
	}
	w.stored = storedEvents(w.smp.files)
	sp := w.cfg.setupRec.start("dataloader.InspectFile", openSpan{})
	schemas, err := dataloader.InspectFile(w.paths[0])
	sp.end()
	if err != nil {
		return err
	}
	sp = w.cfg.setupRec.start("dataloader.Bind", openSpan{})
	w.binding, err = dataloader.Bind(nova.Slice{}, schemas[0])
	sp.end()
	return err
}

func storedEvents(files []*nova.FileData) int {
	n := 0
	for _, fd := range files {
		for e := range fd.Events {
			if len(fd.Events[e].Slices) > 0 {
				n++
			}
		}
	}
	return n
}

func (w *ingestLSM) teardown() {
	w.base.teardown()
	if w.filesDir != "" {
		os.RemoveAll(w.filesDir)
	}
}

// ingestFiles is one round's client side: cfg.clients closed loops taking
// files from a shared queue, each file one dataloader.IngestFile call.
func (w *ingestLSM) ingestFiles(ctx context.Context, rec *recorder, root openSpan) (iv interval, fileMs []float64) {
	loader := &dataloader.Loader{DS: w.svc.ds, Label: sliceLabel}
	queue := make(chan string, len(w.paths)) // holds every path: workers never block on it
	for _, p := range w.paths {
		queue <- p
	}
	close(queue)
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	for c := 0; c < w.cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range queue {
				sp := rec.start("dataloader.IngestFile", root)
				t := time.Now()
				got, err := loader.IngestFile(ctx, w.dataset, w.binding, path)
				d := time.Since(t)
				sp.end()
				if err != nil {
					w.fl.fail("ingest %s: %v", filepath.Base(path), err)
				}
				mu.Lock()
				iv.events += int64(got.Events)
				iv.slices += int64(got.Rows)
				fileMs = append(fileMs, float64(d)/1e6)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	iv.wall, iv.cpu = time.Since(t0), cpuTime()-cpu0
	return iv, fileMs
}

// round ingests the whole sample into a fresh deployment, which stays up
// (for the scrape and the point phase) until the next round replaces it.
func (w *ingestLSM) round(ctx context.Context, rec *recorder) (bulkStats, error) {
	w.base.teardown()
	dir, err := os.MkdirTemp(w.cfg.tmp, "lsm-*")
	if err != nil {
		return bulkStats{}, err
	}
	if w.svc, err = startService(ctx, shape{backend: "lsm", dir: dir, rf: 1}); err != nil {
		return bulkStats{}, err
	}
	if w.dataset, err = w.svc.ds.CreateDataSet(ctx, datasetPath); err != nil {
		return bulkStats{}, err
	}
	runtime.GC()
	stop := w.svc.meter()
	root := rec.start("ingest.round", openSpan{})
	iv, fileMs := w.ingestFiles(ctx, rec, root)
	root.end()
	st := bulkStats{ivals: []interval{iv}, passMs: fileMs, use: stop()}
	w.fl.attempt(int64(w.stored))
	if int(iv.events) != w.stored || int(iv.slices) != w.smp.slices {
		w.fl.fail("round acknowledged %d events / %d slices, the files hold %d / %d",
			iv.events, iv.slices, w.stored, w.smp.slices)
	}
	// A fresh deployment counts from zero, so one scrape is the delta.
	w.svc.userBytes = w.smp.userBytes
	if st.counts, err = w.svc.scrape(ctx); err != nil {
		return st, err
	}
	st.last = st.counts
	if w.cfg.scale >= 1 {
		// The LSM really worked: every product database flushed its
		// memtable many times over and merged at least once.
		w.fl.attempt(1)
		flushes := st.counts.minPerProductDB(obs.MetricLSMFlushes)
		merges := st.counts.minPerProductDB(obs.MetricLSMCompactions)
		if flushes < 8 || merges < 1 {
			w.fl.fail("a product database saw only %v flushes and %v compactions in a round", flushes, merges)
		}
	}
	return st, nil
}

func (w *ingestLSM) bulk(ctx context.Context, dur time.Duration, rec *recorder) (bulkStats, error) {
	var total bulkStats
	for start := time.Now(); ; {
		st, err := w.round(ctx, rec)
		if err != nil {
			return total, err
		}
		total.merge(st)
		if time.Since(start) >= dur {
			return total, nil
		}
	}
}

// target looks up a seeded sample of the last round's events.
func (w *ingestLSM) target(ctx context.Context) (*service, []eventRef, error) {
	var all []*nova.Event
	for _, fd := range w.smp.files {
		for e := range fd.Events {
			if len(fd.Events[e].Slices) > 0 {
				all = append(all, &fd.Events[e])
			}
		}
	}
	stats.NewRNG(w.cfg.seed).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if len(all) > probeEvents {
		all = all[:probeEvents]
	}
	type srKey struct{ run, sub uint64 }
	subs := map[srKey]*core.SubRun{}
	refs := make([]eventRef, 0, len(all))
	for _, data := range all {
		k := srKey{data.Run, data.SubRun}
		sr := subs[k]
		if sr == nil {
			run, err := w.dataset.Run(ctx, data.Run)
			if err != nil {
				return nil, nil, err
			}
			if sr, err = run.SubRun(ctx, data.SubRun); err != nil {
				return nil, nil, err
			}
			subs[k] = sr
		}
		ev, err := sr.Event(ctx, data.Event)
		if err != nil {
			return nil, nil, fmt.Errorf("acknowledged event %d/%d/%d: %w", data.Run, data.SubRun, data.Event, err)
		}
		refs = append(refs, eventRef{ev: ev, data: data})
	}
	return w.svc, refs, nil
}

// finish is the restart oracle: the last round's deployment is shut down
// and redeployed on its directory, and every acknowledged event must load.
// With SyncWrites off this is all the service promises: its write-ahead
// log buffers in user space, so a killed process loses acknowledged writes
// by design. What a kill leaves under SyncWrites=true is the business of
// the LSM's own crash-image tests in internal/.
func (w *ingestLSM) finish(ctx context.Context) error {
	sh := shape{backend: "lsm", dir: w.svc.dir, rf: 1}
	w.svc.stop()
	w.svc = nil
	svc, err := startService(ctx, sh)
	if err != nil {
		return fmt.Errorf("redeploy after shutdown: %w", err)
	}
	w.svc = svc // teardown stops it and removes the directory
	dataset, err := svc.ds.OpenDataSet(ctx, datasetPath)
	if err != nil {
		return fmt.Errorf("restart lost the dataset: %w", err)
	}
	w.fl.attempt(int64(w.stored))
	return verifyStored(ctx, dataset, w.smp.files, w.fl)
}

// verifyStored requires every event of files that has slices to load from
// the restarted dataset with the generated value.
func verifyStored(ctx context.Context, dataset *core.DataSet, files []*nova.FileData, fl *failures) error {
	for _, fd := range files {
		want := map[uint64]*nova.Event{}
		for e := range fd.Events {
			if len(fd.Events[e].Slices) > 0 {
				want[fd.Events[e].Event] = &fd.Events[e]
			}
		}
		run, err := dataset.Run(ctx, fd.Run)
		if err != nil {
			fl.fail("restart lost run %d: %v", fd.Run, err)
			continue
		}
		sr, err := run.SubRun(ctx, fd.SubRun)
		if err != nil {
			fl.fail("restart lost subrun %d/%d: %v", fd.Run, fd.SubRun, err)
			continue
		}
		cur := sr.EventCursor(ctx, 4096, core.SelectorFor(sliceLabel, []nova.Slice{}))
		var got []nova.Slice
		for cur.Next() {
			ev := cur.Event()
			data := want[ev.Number()]
			if data == nil {
				continue // another file of the same subrun
			}
			delete(want, ev.Number())
			got = got[:0]
			if err := ev.Load(ctx, sliceLabel, &got); err != nil {
				fl.fail("restart: load %s: %v", ev.ID(), err)
			} else if !sameSlices(got, data.Slices) {
				fl.fail("restart: %s differs from the generated event", ev.ID())
			}
		}
		if err := cur.Err(); err != nil {
			return err
		}
		for n := range want {
			fl.fail("restart lost acknowledged event %d/%d/%d", fd.Run, fd.SubRun, n)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// select-mem
// ---------------------------------------------------------------------------

type selectMem struct {
	base
	filesDir string
	want     []nova.SliceRef
}

func (w *selectMem) unit() string { return "slice" }

// selectParams generates forty-odd files, and so as many subruns: with a
// handful, how they happen to fall on the four event databases decides
// the pass time.
func selectParams(seed uint64) nova.GenParams {
	return nova.GenParams{Seed: seed, MeanEventsPerFile: 450}
}

func (w *selectMem) setup(ctx context.Context) error {
	if err := w.deploy(ctx, selectParams(w.cfg.seed), selectEvents, shape{backend: "map", rf: 1}); err != nil {
		return err
	}
	// The reference is the paper's baseline: the file-based workflow over
	// the same events, which must also agree with the generator's view.
	var err error
	if w.filesDir, err = os.MkdirTemp(w.cfg.tmp, "files-*"); err != nil {
		return err
	}
	paths, err := w.smp.writeFiles(w.filesDir)
	if err != nil {
		return err
	}
	ref, err := filebased.Run(filebased.Config{Files: paths, Processes: w.cfg.clients})
	if err != nil {
		return err
	}
	w.want = ref.Selected
	if gen := w.smp.selected(); !sameRefs(gen, w.want) || ref.TotalSlices != w.smp.slices {
		return fmt.Errorf("file-based reference (%d selected of %d slices) disagrees with the generated data (%d of %d)",
			len(w.want), ref.TotalSlices, len(gen), w.smp.slices)
	}
	return nil
}

func sameRefs(a, b []nova.SliceRef) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func (w *selectMem) teardown() {
	w.base.teardown()
	if w.filesDir != "" {
		os.RemoveAll(w.filesDir)
	}
}

func (w *selectMem) bulk(ctx context.Context, dur time.Duration, rec *recorder) (bulkStats, error) {
	return w.passes(ctx, dur, func() (int64, int64) {
		sp := rec.start("workflow.Run", openSpan{})
		res, err := workflow.Run(ctx, w.svc.ds, workflow.Config{Dataset: datasetPath, Label: sliceLabel, Ranks: w.cfg.clients})
		sp.end()
		w.fl.attempt(int64(w.smp.events))
		switch {
		case err != nil:
			w.fl.fail("workflow.Run: %v", err)
			return 0, 0
		case !sameRefs(res.Selected, w.want) || res.TotalSlices != w.smp.slices || int(res.TotalEvents) != w.smp.events:
			w.fl.fail("pass selected %d of %d slices in %d events, the file-based reference %d of %d in %d",
				len(res.Selected), res.TotalSlices, res.TotalEvents, len(w.want), w.smp.slices, w.smp.events)
		case res.Stats.LocalDegraded != 0:
			w.fl.fail("pass degraded %d prefetch loads to on-demand", res.Stats.LocalDegraded)
		}
		return res.TotalEvents, int64(res.TotalSlices)
	})
}

// ---------------------------------------------------------------------------
// scan-lsm
// ---------------------------------------------------------------------------

type scanLSM struct {
	base
	dataset *core.DataSet
	want    scanOracle
}

func (w *scanLSM) unit() string { return "slice" }

func scanPredicate() serde.Predicate {
	return serde.And(serde.GE("CVNe", 0.5), serde.GE("CalE", 1.0), serde.LE("CalE", 4.0))
}

func (w *scanLSM) setup(ctx context.Context) error {
	// Process-wide and irreversible: the reason every workload runs in a
	// process of its own.
	if _, err := serde.RegisterColumnar([]nova.Slice{}); err != nil {
		return err
	}
	params := nova.GenParams{Seed: w.cfg.seed, SubRunsPerRun: 16}
	if err := w.deploy(ctx, params, scanEvents, shape{backend: "lsm", rf: 1}); err != nil {
		return err
	}
	w.want = w.smp.scanExpect()
	var err error
	w.dataset, err = w.svc.ds.OpenDataSet(ctx, datasetPath)
	return err
}

func (w *scanLSM) bulk(ctx context.Context, dur time.Duration, rec *recorder) (bulkStats, error) {
	return w.passes(ctx, dur, func() (int64, int64) {
		root := rec.start("DataSet.Scan", openSpan{})
		cur := w.dataset.Scan(ctx, sliceLabel, []nova.Slice{}, scanPredicate(), "CVNe", "CalE")
		var got scanOracle
		var rows []nova.Slice
		for {
			// Only a Next that goes to the servers is worth a span; the
			// rest advance within the decoded reply in tens of nanoseconds.
			t := time.Now()
			ok := cur.Next()
			if rec != nil && time.Since(t) > 10*time.Microsecond {
				sp := rec.start("ScanCursor.Next(fetch)", root)
				sp.s.Start = int64(t.Sub(rec.epoch))
				sp.end()
			}
			if !ok {
				break
			}
			if err := cur.Rows(&rows); err != nil {
				w.fl.fail("scan rows: %v", err)
				break
			}
			id := cur.EventID()
			for i := range rows {
				got.matched++
				got.sum += scanRowSum(id.Run, id.SubRun, id.Event, &rows[i])
			}
		}
		root.end()
		st := cur.Stats()
		w.fl.attempt(int64(w.smp.slices))
		switch {
		case cur.Err() != nil:
			w.fl.fail("scan: %v", cur.Err())
		case got != w.want || int(st.RowsScanned) != w.smp.slices || int(st.RowsMatched) != w.want.matched:
			w.fl.fail("scan returned %d rows (sum %x) of %d scanned, a client-side filter %d (sum %x) of %d",
				got.matched, got.sum, st.RowsScanned, w.want.matched, w.want.sum, w.smp.slices)
		}
		return int64(w.smp.events), int64(st.RowsScanned)
	})
}

// ---------------------------------------------------------------------------
// point-mixed
// ---------------------------------------------------------------------------

// pointMixed has no bulk phase of its own: the harness runs the point loop
// for the whole measurement.
type pointMixed struct{ base }

func (w *pointMixed) unit() string { return "op" }

func (w *pointMixed) setup(ctx context.Context) error {
	return w.deploy(ctx, nova.GenParams{Seed: w.cfg.seed}, pointEvents, shape{backend: "lsm", rf: 2, qos: true})
}

func (w *pointMixed) bulk(context.Context, time.Duration, *recorder) (bulkStats, error) {
	return bulkStats{}, nil
}
